import numpy as np
import pytest

from lcuts import geometry
from lcuts.errors import DegenerateInputError, DimensionMismatchError, InputError
from lcuts.geometry import MAX_COORD, Node, PointCloud, fit_line, radius_pairs
from lcuts.raster import RasterImage
from oracles import pairwise_distance
from oracles import radius_pairs as tree_radius_pairs
from test_acceptance import fuzz_cloud


def svd_line(pts):
    # independent oracle: principal axis and orthogonal rms via SVD
    pts = np.asarray(pts, dtype=np.float64)
    centroid = pts.mean(axis=0)
    u, s, vt = np.linalg.svd(pts - centroid, full_matrices=False)
    axis = vt[0]
    resid = (pts - centroid) - np.outer((pts - centroid) @ axis, axis)
    return axis, float(np.sqrt((resid ** 2).sum() / len(pts)))


def test_fit_line_horizontal():
    fit = fit_line([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    assert np.allclose(fit.axis, [1.0, 0.0], atol=1e-12)
    assert fit.std == 0.0
    assert fit.extent == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(fit.centroid, [1.0, 0.0])


def test_fit_line_diagonal():
    fit = fit_line([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
    r = np.sqrt(2.0) / 2.0
    assert np.allclose(fit.axis, [r, r], atol=1e-12)
    assert fit.std == pytest.approx(0.0, abs=1e-12)


def test_fit_line_noisy_vs_svd_oracle():
    rng = np.random.default_rng(7)
    true_axis = np.array([2.0, 1.0]) / np.sqrt(5.0)
    perp = np.array([-true_axis[1], true_axis[0]])
    t = rng.uniform(0.0, 60.0, 100)
    pts = t[:, None] * true_axis[None, :] + rng.normal(0.0, 0.3, 100)[:, None] * perp[None, :]
    fit = fit_line(pts)
    assert 0.2 <= fit.std <= 0.4
    ang = np.degrees(np.arccos(min(1.0, abs(float(fit.axis @ true_axis)))))
    assert ang <= 3.0
    oracle_axis, oracle_std = svd_line(pts)
    assert abs(float(fit.axis @ oracle_axis)) >= 1.0 - 1e-12
    assert fit.std == pytest.approx(oracle_std, abs=1e-12)


def test_fit_line_3d():
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    pts = np.arange(6)[:, None] * axis[None, :]
    fit = fit_line(pts)
    assert abs(float(fit.axis @ axis)) >= 1.0 - 1e-12
    assert fit.std <= 1e-9
    assert fit.extent == pytest.approx(5.0, abs=1e-9)


def test_fit_line_order_independent():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 50.0, size=(40, 2))
    a = fit_line(pts)
    for _ in range(5):
        b = fit_line(rng.permutation(pts))
        # identical, bit for bit
        assert np.array_equal(a.axis, b.axis)
        assert a.std == b.std and a.extent == b.extent and a.eccentricity == b.eccentricity


def test_fit_line_presorted_equals_sorting_fit_bit_for_bit():
    rng = np.random.default_rng(6)
    for dim in (2, 3):
        pts = rng.uniform(0.0, 50.0, size=(40, dim))
        pts[::4, 0] = 7.0  # ties in the first coordinate
        ordered = pts[np.lexsort(pts.T[::-1])]
        a = fit_line(pts)
        b = fit_line(ordered, presorted=True)
        for name in ("centroid", "axis"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a.std == b.std and a.extent == b.extent and a.eccentricity == b.eccentricity


def test_fit_line_translation_invariant():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.0, 50.0, size=(25, 3))
    a = fit_line(pts)
    b = fit_line(pts + np.array([100.0, -40.0, 7.0]))
    assert abs(float(a.axis @ b.axis)) >= 1.0 - 1e-9
    assert a.std == pytest.approx(b.std, abs=1e-9)
    assert a.eccentricity == pytest.approx(b.eccentricity, abs=1e-9)


def test_fit_line_errors():
    with pytest.raises(DegenerateInputError):
        fit_line([(1.0, 1.0)])
    with pytest.raises(DegenerateInputError):
        fit_line([(2.0, 3.0), (2.0, 3.0), (2.0, 3.0)])
    with pytest.raises(DimensionMismatchError):
        fit_line(np.zeros((4, 5)))
    with pytest.raises(InputError):
        fit_line([(0.0, 0.0), (np.nan, 1.0)])


def test_eccentricity_square_and_line():
    square = fit_line([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    assert square.eccentricity == pytest.approx(0.0, abs=1e-12)
    line = fit_line([(0.0, 0.0), (5.0, 5.0), (9.0, 9.0)])
    assert line.eccentricity == pytest.approx(1.0, abs=1e-12)


def test_eccentricity_four_to_one_moments():
    # x-moment 2, y-moment 0.5: sqrt(1 - 1/4)
    pts = [(2.0, 0.0), (-2.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    assert fit_line(pts).eccentricity == pytest.approx(np.sqrt(0.75), abs=1e-12)


def test_eccentricity_scale_invariant():
    rng = np.random.default_rng(8)
    pts = rng.normal(0, 3.0, size=(30, 2))
    e = fit_line(pts).eccentricity
    assert fit_line(pts * 17.5).eccentricity == pytest.approx(e, abs=1e-9)
    assert 0.0 <= e <= 1.0


def test_pairwise_distance():
    assert pairwise_distance((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert pairwise_distance((1.0, 2.0, 2.0), (0.0, 0.0, 0.0)) == 3.0
    with pytest.raises(DimensionMismatchError):
        pairwise_distance((0.0, 0.0), (1.0, 1.0, 1.0))


def test_node_validation():
    # A record is checked only in the cloud built from it, by the cloud's
    # one validator, with the same errors a record once raised on its own.
    def cloud(**fields):
        return PointCloud([Node(id=0, **fields)], len(fields["loc"]))

    Node(id=0, loc=np.array([1.0, 2.0]), intensity=1.5)  # a plain record
    with pytest.raises(InputError, match=r"^node 0: intensity 1.5 outside \[0, 1\]$"):
        cloud(loc=np.array([1.0, 2.0]), intensity=1.5)
    with pytest.raises(InputError, match="^node 0: non-finite location$"):
        cloud(loc=np.array([np.inf, 0.0]))
    with pytest.raises(DimensionMismatchError, match="^node 0: dir/loc dimension mismatch$"):
        cloud(loc=np.array([1.0, 2.0]), dir=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(InputError, match="^node 0: dir is not unit length$"):
        cloud(loc=np.array([1.0, 2.0]), dir=np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatchError, match="^node 0: loc must be a 2- or 3-vector$"):
        PointCloud([Node(id=0, loc=np.zeros(4))], 3)
    # coordinates up to 2**53 in magnitude, and no further
    cloud(loc=np.array([MAX_COORD, -MAX_COORD, 0.0]))
    for far in (np.nextafter(MAX_COORD, np.inf), -np.nextafter(MAX_COORD, np.inf)):
        with pytest.raises(InputError, match=r"beyond \+-2\*\*53"):
            cloud(loc=np.array([0.0, far]))


def test_cloud_validation():
    nodes = [Node(id=0, loc=np.array([0.0, 0.0])), Node(id=1, loc=np.array([1.0, 1.0]))]
    cloud = PointCloud(nodes, 2)
    assert len(cloud) == 2
    assert cloud.locs().shape == (2, 2)
    assert cloud.locs() is cloud.locs() and not cloud.locs().flags.writeable
    assert PointCloud([], 3).locs().shape == (0, 3)
    with pytest.raises(InputError):
        PointCloud([Node(id=1, loc=np.array([0.0, 0.0]))], 2)  # ids must start at 0
    with pytest.raises(InputError):
        PointCloud([Node(id=0, loc=np.array([2.0, 2.0])),
                    Node(id=1, loc=np.array([2.0, 2.0]))], 2)  # duplicate location
    with pytest.raises(DimensionMismatchError):
        PointCloud(nodes, 3)


def test_cloud_from_arrays():
    locs = np.array([[0.0, 0.0], [3.0, 4.0], [5.0, 1.0]])
    intensities = np.array([0.5, np.nan, 1.0])
    cloud = PointCloud.from_arrays(locs, intensities)
    # Copies, read-only, and NaN where a node has no intensity or direction.
    locs[0, 0] = intensities[0] = 9.0
    assert cloud.locs().tolist() == [[0.0, 0.0], [3.0, 4.0], [5.0, 1.0]]
    assert all(not a.flags.writeable for a in (cloud.locs(), cloud.intensities(), cloud.dirs()))
    assert cloud.intensities()[0] == 0.5 and np.isnan(cloud.intensities()[1])
    assert cloud.dirs().shape == (3, 2) and np.isnan(cloud.dirs()).all()
    assert not cloud.has_all_intensities()
    assert [n.intensity for n in cloud.nodes] == [0.5, None, 1.0]
    assert all(n.dir is None for n in cloud.nodes)
    assert PointCloud.from_arrays(np.zeros((0, 3))).dim == 3
    with pytest.raises(DimensionMismatchError):
        PointCloud.from_arrays(np.zeros((2, 4)))
    with pytest.raises(DimensionMismatchError):
        PointCloud.from_arrays(np.zeros((2, 2)), intensities=[0.5])
    with pytest.raises(DimensionMismatchError):
        PointCloud.from_arrays([[0.0, 0.0, 0.0]], image=RasterImage(np.zeros((4, 4))))
    dirs = np.array([[1.0, 0.0], [np.nan, np.nan], [0.6, 0.8]])
    assert PointCloud.from_arrays(cloud.locs(), dirs=dirs).nodes[1].dir is None
    for bad in ([1.0, 1.0], [np.nan, 1.0], [np.inf, 0.0]):
        dirs[1] = bad
        with pytest.raises(InputError, match=r"^node 1: dir is not unit length$"):
            PointCloud.from_arrays(cloud.locs(), dirs=dirs)


def test_bound_image_covers_every_node():
    # x in [0, width - 1] and y in [0, height - 1], where bilinear sampling works.
    img = RasterImage(np.zeros((20, 30)))
    inside = np.array([[0.0, 0.0], [29.0, 19.0], [-0.0, 7.5]])
    assert PointCloud.from_arrays(inside, image=img).image is img
    for loc in ([29.5, 0.0], [0.0, 19.25], [-1e-9, 3.0], [3.0, -2.0]):
        with pytest.raises(InputError) as err:
            PointCloud.from_arrays(np.vstack([inside, loc]), image=img)
        assert str(err.value) == f"node 3: location {tuple(loc)} lies outside the 30 x 20 image"
        with pytest.raises(InputError):
            PointCloud.from_arrays(np.vstack([inside, loc])).with_image(img)


def test_cloud_from_its_nodes_gives_back_its_arrays():
    # Locations, intensities and directions, NaNs included, survive a trip
    # through Node records bit for bit.
    from lcuts.direction import VotingParams, assign_all_directions

    locs = np.array([[1.0, 1.0], [1.5, 1.0 / 3.0], [2.0, 5.0], [30.0, 30.0], [2.5, 1.0 / 7.0]])
    intensities = np.array([0.25, np.nan, 1.0 / 3.0, 0.0, np.nan])
    img = RasterImage(np.full((40, 40), 0.5))
    cloud = assign_all_directions(PointCloud.from_arrays(locs, intensities, image=img),
                                  VotingParams(hop_radius=6.0))
    undirected = np.isnan(cloud.dirs()).all(axis=1)
    assert undirected.any() and not undirected.all()
    back = PointCloud(cloud.nodes, cloud.dim, cloud.image)
    for name in ("locs", "intensities", "dirs"):
        assert getattr(back, name)().tobytes() == getattr(cloud, name)().tobytes()
    assert back.image is img


# ----------------------------------------------------------------------------
# radius_pairs against scipy's k-d tree


def kept_pairs(pairs, keep):
    """The pairs a caller's cutoff keeps, ordered by (i, j)."""
    ii, jj, d2 = pairs
    sel = keep(d2)
    order = np.lexsort((jj[sel], ii[sel]))
    return ii[sel][order], jj[sel][order], d2[sel][order]


def assert_pairs_match_tree(locs, radius):
    got = radius_pairs(locs, radius)
    ii, jj, d2 = got
    assert ii.dtype == jj.dtype == np.intp and d2.dtype == np.float64
    assert (ii < jj).all()
    assert len(set(zip(ii.tolist(), jj.tolist()))) == len(ii)  # each pair once
    want = tree_radius_pairs(locs, radius)
    # The callers' exact cutoffs: build_adjacency and prune_nodes keep
    # sqrt(d2) <= r, _hop_reach keeps d2 <= r * r.
    for keep in (lambda d2: np.sqrt(d2) <= radius, lambda d2: d2 <= radius * radius):
        for a, b in zip(kept_pairs(got, keep), kept_pairs(want, keep)):
            assert a.tobytes() == b.tobytes(), (len(locs), radius)


def lattice_cloud(rng, n, dim, scale):
    """Distinct points of a coarse integer lattice around the origin: many
    pairs sit exactly at integer radii and on cell borders."""
    return np.unique(rng.integers(-12, 13, size=(n, dim)), axis=0) * scale


def test_radius_pairs_matches_tree_on_fuzz_corpus():
    # Replays criterion 09's corpus draw for draw, at the callers' default
    # radii: minSeparation, hopRadius and minNeighborDist, and r.
    rng = np.random.default_rng(3)
    for t in range(500):
        cloud = fuzz_cloud(t, rng)
        if t % 10 == 0 and len(cloud) > 1:
            rng.permutation(len(cloud))
        for radius in (2.0, 5.0, 60.0):
            assert_pairs_match_tree(cloud.locs(), radius)


def test_radius_pairs_matches_tree_on_lattices():
    rng = np.random.default_rng(21)
    for t in range(120):
        dim = 2 + t % 2
        locs = lattice_cloud(rng, int(rng.integers(2, 400)), dim, float(rng.choice([0.5, 1.0, 3.0])))
        for radius in (1.0, 2.0, 2.5, 5.0, 13.0):
            assert_pairs_match_tree(locs, radius)


def test_radius_pairs_small_and_degenerate_clouds():
    for dim in (2, 3):
        for n in (0, 1, 2):
            locs = np.arange(n * dim, dtype=np.float64).reshape(n, dim)
            for radius in (0.0, 1.0, 1e6):
                assert_pairs_match_tree(locs, radius)
                assert_pairs_match_tree(np.ones((n, dim)), radius)  # coincident
        line = np.arange(-40.0, 41.0)
        for axis in range(dim):
            locs = np.zeros((len(line), dim))
            locs[:, axis] = line * 1.5
            for radius in (1.5, 3.0, 7.0):
                assert_pairs_match_tree(locs, radius)
    negative = -np.random.default_rng(22).uniform(100.0, 200.0, size=(300, 2))
    assert_pairs_match_tree(negative, 6.0)
    # a radius far beyond the span puts every point in one cell
    assert_pairs_match_tree(np.random.default_rng(23).uniform(0.0, 10.0, size=(60, 3)), 1e9)


def test_radius_pairs_far_beyond_the_cell_cap(monkeypatch):
    # The outliers stretch the span to 2**54 on every axis, past the 2**20
    # cells of the cap, so the cloud is split at its gaps before any grid is
    # made; candidates are checked in blocks, here of 64 pairs.
    monkeypatch.setattr(geometry, "_CANDIDATE_BLOCK", 64)
    rng = np.random.default_rng(24)
    for dim in (2, 3):
        outliers = np.array([[MAX_COORD] * dim, [-MAX_COORD] * dim, [MAX_COORD, 0.0, -MAX_COORD][:dim]])
        locs = np.concatenate([lattice_cloud(rng, 300, dim, 1.0), outliers])
        for radius in (0.0, 2.0, 5.0):
            assert_pairs_match_tree(locs, radius)
        assert_pairs_match_tree(lattice_cloud(rng, 200, dim, 0.5), 2.5)


# Most candidates radius_pairs may check per point plus pair found. A point's
# forward key ranges of cells of side reach / 2 cover about 2x the half disc
# of radius reach that holds its forward pairs in 2-D, and 4x the half ball
# in 3-D, so at uniform density the candidates stay near that multiple.
CANDIDATES_PER_PAIR = 8


def count_candidates(monkeypatch):
    """Wrap geometry._candidates; the list's one entry counts the candidate
    pairs it yields."""
    counted = [0]
    candidates = geometry._candidates

    def counting(start, counts):
        counted[0] += int(counts.sum())
        return candidates(start, counts)

    monkeypatch.setattr(geometry, "_candidates", counting)
    return counted


def test_far_outliers_keep_the_candidates_linear(monkeypatch):
    # Without the split at gaps, one point at 2**40 made the cells wider
    # than the square, and all 1,999,000 pairs were candidates.
    counted = count_candidates(monkeypatch)
    rng = np.random.default_rng(25)
    square = rng.uniform(0.0, 1000.0, size=(2000, 2))
    blobs = [np.concatenate([rng.uniform(-50.0, 50.0, size=(150, dim))
                             + rng.uniform(-2.0 ** 45, 2.0 ** 45, size=dim) for _ in range(4)])
             for dim in (2, 3)]
    clouds = [(np.concatenate([square, [[2.0 ** 40, 0.0]]]), 60.0),
              (np.concatenate([square, [[-MAX_COORD, MAX_COORD], [MAX_COORD, 0.0]]]), 60.0),
              (np.concatenate([rng.uniform(0.0, 300.0, size=(1500, 3)), [[0.0, 0.0, 2.0 ** 50]]]), 20.0),
              (blobs[0], 5.0), (blobs[1], 5.0)]
    for locs, radius in clouds:
        counted[0] = 0
        pairs = len(radius_pairs(locs, radius)[0])
        assert counted[0] <= CANDIDATES_PER_PAIR * (len(locs) + pairs), (len(locs), pairs, counted[0])
        assert_pairs_match_tree(locs, radius)


def test_chains_without_gaps_search_capped_cells(monkeypatch):
    # A cloud wider than the cap allows and without a gap wider than the
    # reach keeps the capped, coarse cells; with the cap lowered to 16 cells
    # a short chain is such a cloud.
    monkeypatch.setattr(geometry, "_MAX_CELLS", 16)
    rng = np.random.default_rng(26)
    for dim in (2, 3):
        chain = np.cumsum(rng.uniform(0.0, 1.0, size=(200, dim)), axis=0)
        gapped = np.concatenate([chain, chain[:50] + 500.0, [[1e6] * dim]])
        for locs in (chain, gapped):
            for radius in (1.0, 2.5, 6.0):
                assert_pairs_match_tree(locs, radius)
