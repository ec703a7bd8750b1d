from pathlib import Path

import numpy as np
import pytest

from lcuts.config import Config, parse_kv, read_synth_spec
from lcuts.errors import InputError
from lcuts.geometry import Node, PointCloud, read_cloud_csv, write_cloud_csv
from lcuts.graph import GraphParams, SparseGraph, build_adjacency, write_adjacency_csv
from lcuts.raster import RasterImage, read_csv_grid, read_image, read_pgm, write_pgm
from lcuts.synth import SynthSpec, generate_cloud


def test_pgm_roundtrip_16bit(tmp_path):
    rng = np.random.default_rng(0)
    img = RasterImage(rng.uniform(0.0, 1.0, size=(13, 9)))
    path = tmp_path / "a.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.pixels.shape == (13, 9)
    assert np.abs(back.pixels - img.pixels).max() <= 0.5 / 65535 + 1e-12


def test_pgm_roundtrip_8bit(tmp_path):
    rng = np.random.default_rng(1)
    img = RasterImage(rng.uniform(0.0, 1.0, size=(6, 7)))
    path = tmp_path / "a.pgm"
    write_pgm(path, img, maxval=255)
    back = read_pgm(path)
    assert np.abs(back.pixels - img.pixels).max() <= 0.5 / 255 + 1e-12


def test_pgm_header_comments_and_maxval(tmp_path):
    # hand-built header with interleaved comments, maxval 100
    body = bytes([0, 50, 100, 25])
    raw = b"P5 # magic\n# a comment line\n2 # width\n 2\n100\n" + body
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    img = read_pgm(path)
    assert img.pixels.shape == (2, 2)
    assert np.allclose(img.pixels, [[0.0, 0.5], [1.0, 0.25]])


def test_pgm_errors(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(InputError):
        read_pgm(path)
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")  # not enough pixel bytes
    with pytest.raises(InputError):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n")  # header cut short
    with pytest.raises(InputError):
        read_pgm(path)


def test_csv_grid_normalization(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("-1.0,5.0\n2.5,10.0\n")
    img = read_csv_grid(path)
    # negatives clamp to 0 before scaling by the max
    assert np.allclose(img.pixels, [[0.0, 0.5], [0.25, 1.0]])
    path.write_text("0.25,0.5\n0.75,1.0\n")
    img = read_csv_grid(path)  # already in range: untouched
    assert np.allclose(img.pixels, [[0.25, 0.5], [0.75, 1.0]])
    path.write_text("1.0,junk\n")
    with pytest.raises(InputError):
        read_csv_grid(path)


def test_read_image_dispatch(tmp_path):
    img = RasterImage(np.full((3, 3), 0.5))
    pgm = tmp_path / "x.pgm"
    write_pgm(pgm, img)
    assert read_image(pgm).pixels.shape == (3, 3)
    csvp = tmp_path / "x.csv"
    csvp.write_text("0.5,0.5\n0.5,0.5\n")
    assert read_image(csvp).pixels.shape == (2, 2)


def test_cloud_csv_roundtrip_bitwise(tmp_path):
    spec = SynthSpec(dim=2, n_rods=4, seed=7)
    cloud, groups = generate_cloud(spec)
    path = tmp_path / "cloud.csv"
    write_cloud_csv(path, cloud, groups)
    back, bgroups = read_cloud_csv(path)
    assert np.array_equal(back.locs(), cloud.locs())  # repr() floats roundtrip exactly
    assert bgroups == groups


def test_cloud_csv_3d_and_missing_intensity(tmp_path):
    nodes = [
        Node(0, np.array([0.0, 0.0, 0.0]), intensity=0.25),
        Node(1, np.array([1.0, 2.0, 3.0]), intensity=None),
    ]
    cloud = PointCloud(nodes, 3)
    path = tmp_path / "c3.csv"
    write_cloud_csv(path, cloud)
    back, groups = read_cloud_csv(path)
    assert groups is None
    assert back.dim == 3
    assert back.nodes[0].intensity == 0.25
    assert back.nodes[1].intensity is None
    assert np.array_equal(back.locs(), cloud.locs())


def test_cloud_csv_group_label_order(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text(
        "x,y,intensity,group\n"
        "0.0,0.0,0.5,7\n"
        "1.0,0.0,0.5,3\n"
        "2.0,0.0,0.5,7\n"
        "3.0,0.0,,3\n"
    )
    cloud, groups = read_cloud_csv(path)
    # groups ordered by ascending label, membership by row index
    assert groups == [{1, 3}, {0, 2}]
    assert cloud.nodes[3].intensity is None

    # Shuffled, non-contiguous and negative labels, against the per-label scan.
    rng = np.random.default_rng(5)
    for _ in range(20):
        labels = rng.choice([-12, -1, 0, 4, 9, 250], size=int(rng.integers(1, 40))).tolist()
        path.write_text("x,y,intensity,group\n"
                        + "".join(f"{i}.0,0.0,0.5,{lab}\n" for i, lab in enumerate(labels)))
        _, groups = read_cloud_csv(path)
        assert groups == [set(np.nonzero(np.asarray(labels) == lab)[0].tolist())
                          for lab in sorted(set(labels))]


# A third row, node 2, that no cloud accepts after GOOD_ROWS: the row, the
# reason, and the node whose location it repeats.
GOOD_ROWS = "x,y,intensity\n0.0,0.0,0.5\n1.0,0.0,0.5\n"
INVALID_ROWS = [("nan,0.0,0.5", "non-finite location", None),
                ("2.0,inf,0.5", "non-finite location", None),
                ("-inf,1.0,", "non-finite location", None),
                ("2.0,-9007199254740994.0,", "location (2.0, -9007199254740994.0) has a "
                                             "coordinate beyond +-2**53", None),
                ("2.0,0.0,1.5", "intensity 1.5 outside [0, 1]", None),
                ("2.0,0.0,-0.25", "intensity -0.25 outside [0, 1]", None),
                ("2.0,0.0,nan", "intensity nan outside [0, 1]", None),
                ("1.0,0.0,0.25", "duplicate node location (1.0, 0.0)", 1),
                ("-0.0,0.0,0.5", "duplicate node location (-0.0, 0.0)", 0)]


def test_cloud_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,intensity\n0,0,0.5\n")
    with pytest.raises(InputError):
        read_cloud_csv(path)
    path.write_text("x,y\n0,0\n")
    with pytest.raises(InputError):
        read_cloud_csv(path)
    path.write_text("x,y,intensity\n0.0,0.0\n")  # row short one column
    with pytest.raises(InputError):
        read_cloud_csv(path)
    path.write_text("x,y,intensity\nq,0.0,0.5\n")
    with pytest.raises(InputError):
        read_cloud_csv(path)
    with pytest.raises(InputError):
        read_cloud_csv(tmp_path / "nope.csv")

    # Checks on the parsed values: the message names the file, the line and
    # the node (data line 4 holds node 2).
    for row, reason, first in INVALID_ROWS:
        path.write_text(GOOD_ROWS + row + "\n")
        with pytest.raises(InputError, match="duplicate" if first is not None else None) as err:
            read_cloud_csv(path)
        tail = "" if first is None else f" (first at line {first + 2})"
        assert str(err.value) == f"{path}:4: node 2: {reason}{tail}"
    path.write_text("x,y,z,intensity\n0,0,0,\n1,2,3,\n5,5,5,\n1,2,3,\n0,0,0,\n")
    with pytest.raises(InputError, match="duplicate") as err:
        read_cloud_csv(path)
    assert str(err.value) == f"{path}:5: node 3: duplicate node location (1.0, 2.0, 3.0) (first at line 3)"


@pytest.mark.parametrize("row, reason, first", INVALID_ROWS)
def test_both_cloud_constructors_give_the_reader_reasons(row, reason, first):
    # The same validator guards PointCloud(nodes, ...) and from_arrays, and
    # gives the reader's reasons; a cloud names the node repeated, not a line.
    x, y, cell = row.split(",")
    locs = [[0.0, 0.0], [1.0, 0.0], [float(x), float(y)]]
    intensity = float(cell) if cell else None
    tail = "" if first is None else f" (first at node {first})"
    with pytest.raises(InputError) as err:
        PointCloud([Node(k, np.array(loc), value) for k, (loc, value)
                    in enumerate(zip(locs, [0.5, 0.5, intensity]))], 2)
    assert str(err.value) == f"node 2: {reason}{tail}"
    intensities = [0.5, 0.5, np.nan if intensity is None else intensity]
    if cell == "nan":
        # In arrays, NaN is how a node says it has no intensity.
        assert np.isnan(PointCloud.from_arrays(locs, intensities).intensities()[2])
        return
    with pytest.raises(InputError) as err:
        PointCloud.from_arrays(locs, intensities)
    assert str(err.value) == f"node 2: {reason}{tail}"


def test_write_cloud_csv_requires_cover(tmp_path):
    nodes = [Node(0, np.array([0.0, 0.0])), Node(1, np.array([1.0, 0.0]))]
    cloud = PointCloud(nodes, 2)
    with pytest.raises(InputError):
        write_cloud_csv(tmp_path / "x.csv", cloud, [{0}])


def read_edge_list(path):
    """The ``(i, j, w)`` columns of an adjacency dump, after its header."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "i,j,w"
    fields = [line.split(",") for line in lines[1:]]
    return (np.array([int(f[0]) for f in fields], dtype=np.int64),
            np.array([int(f[1]) for f in fields], dtype=np.int64),
            np.array([float(f[2]) for f in fields]))


def test_adjacency_csv_exact(tmp_path):
    # One line per stored pair with i < j, in the order of graph.edges().
    spec = SynthSpec(dim=2, n_rods=3, seed=21)
    cloud, _ = generate_cloud(spec)
    graph = build_adjacency(cloud, GraphParams())
    path = tmp_path / "w.csv"
    write_adjacency_csv(path, graph)
    i, j, w = read_edge_list(path)
    rows, cols, vals = graph.edges()
    upper = rows < cols
    assert upper.sum() == len(rows) // 2 > 0
    assert np.array_equal(i, rows[upper]) and np.array_equal(j, cols[upper])
    assert w.tobytes() == vals[upper].tobytes()


def test_adjacency_csv_bytes(tmp_path):
    # The header, then "i,j,w" with the weight by repr, row-major; an empty
    # or single-node graph writes the header alone.
    rng = np.random.default_rng(8)
    for n in (0, 1, 2, 7):
        w = np.triu(rng.uniform(0.0, 1.0, size=(n, n)) ** 9, 1)
        w[rng.random((n, n)) < 0.3] = 0.0
        w = w + w.T
        path = tmp_path / f"w{n}.csv"
        write_adjacency_csv(path, SparseGraph(w))
        text = "i,j,w\n" + "".join(f"{i},{j},{float(w[i, j])!r}\n" for i in range(n)
                                   for j in range(i + 1, n) if w[i, j])
        assert path.read_bytes() == text.encode("utf-8")


def test_parse_kv(tmp_path):
    path = tmp_path / "f.cfg"
    path.write_text(
        "# leading comment\n"
        "alpha = 1\n"
        "\n"
        "beta= two words \n"
        "alpha =3\n"
    )
    assert parse_kv(path) == {"alpha": "3", "beta": "two words"}
    path.write_text("no equals sign here\n")
    with pytest.raises(InputError):
        parse_kv(path)


def test_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "hops = 6\n"
        "sigmaD = 12.5\n"
        "checkIntensity = false\n"
        "overlapFrac = 0.75\n"
    )
    cfg = Config.from_file(path)
    assert cfg.voting.hops == 6
    assert cfg.graph.sigma_d == 12.5
    assert cfg.limits.check_intensity is False
    assert cfg.overlap_frac == 0.75
    # untouched keys keep their defaults
    assert cfg.graph.r == 60.0
    assert cfg.limits.std_limit == 3.75


def test_config_echo_complete(tmp_path):
    echo = Config.default().echo()
    expected = {
        "hops", "hopRadius", "nRelBins", "r", "sigmaD", "sigmaT",
        "intensitySamplingStep", "sizeLimit", "eccLimit", "stdLimit",
        "minGroupSize", "checkIntensity", "checkEccentricity",
        "gaussianSigma", "backgroundRadius", "maximaWindow",
        "minSeparation", "minNeighborDist", "detectionFloor", "overlapFrac",
    }
    assert set(echo) == expected
    assert echo["nRelBins"] == 4  # resolved default, not None
    # every echoed value survives a write/parse cycle
    path = tmp_path / "echo.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in echo.items()))
    assert Config.from_file(path).echo() == echo


def test_config_echo_follows_each_key(tmp_path):
    # every key echoes its own non-default value, in the table's order
    pairs = [("hops", 5), ("hopRadius", 6.5), ("nRelBins", 3), ("r", 55.0),
             ("sigmaD", 9.0), ("sigmaT", 0.4), ("intensitySamplingStep", 0.25),
             ("sizeLimit", 70.0), ("eccLimit", 0.8), ("stdLimit", 3.0),
             ("minGroupSize", 3), ("checkIntensity", False), ("checkEccentricity", False),
             ("gaussianSigma", 1.25), ("backgroundRadius", 12.0), ("maximaWindow", 5),
             ("minSeparation", 2.5), ("minNeighborDist", 6.0), ("detectionFloor", 0.1),
             ("overlapFrac", 0.6)]
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in reversed(pairs)))
    echo = Config.from_file(path).echo()
    assert list(echo.items()) == pairs
    assert [type(v) for v in echo.values()] == [type(v) for _, v in pairs]


def test_config_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("warpFactor = 9\n")
    with pytest.raises(InputError):
        Config.from_file(path)
    path.write_text("hops = many\n")
    with pytest.raises(InputError):
        Config.from_file(path)
    path.write_text("checkIntensity = maybe\n")
    with pytest.raises(InputError):
        Config.from_file(path)
    path.write_text("hops = 0\n")  # fails the params' own validation
    with pytest.raises(InputError):
        Config.from_file(path)


def test_bool_words(tmp_path):
    path = tmp_path / "b.cfg"
    for word, value in [("true", True), ("Yes", True), ("1", True),
                        ("false", False), ("No", False), ("0", False)]:
        path.write_text(f"checkEccentricity = {word}\n")
        assert Config.from_file(path).limits.check_eccentricity is value
    path.write_text("checkEccentricity = on\n")
    with pytest.raises(InputError):
        Config.from_file(path)


def test_read_synth_spec(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text(
        "dim = 3\n"
        "nRods = 9\n"
        "lengthMin = 30\n"
        "lengthMax = 45\n"
        "orthoNoiseStd = 0.2\n"
        "seed = 11\n"
    )
    spec = read_synth_spec(path)
    assert spec.dim == 3
    assert spec.n_rods == 9
    assert spec.length_range == (30.0, 45.0)
    assert spec.ortho_noise_std == 0.2
    assert spec.seed == 11
    assert spec.crossings == 0
    path.write_text("rodFlavor = mint\n")
    with pytest.raises(InputError):
        read_synth_spec(path)
    path.write_text("lengthMin = 50\nlengthMax = 20\n")
    with pytest.raises(InputError):
        read_synth_spec(path)

