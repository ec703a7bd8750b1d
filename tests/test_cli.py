import json
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from lcuts import cli
from lcuts.raster import RasterImage, write_pgm
from test_io import read_edge_list


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "lcuts", *map(str, args)],
                          capture_output=True, text=True)


def write_spec(path, **kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))


def csv_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], lines[1:]


def test_synth_outputs(tmp_path):
    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=4, seed=3)
    res = run_cli("synth", spec, tmp_path / "run")
    assert res.returncode == 0
    header, rows = csv_rows(tmp_path / "run.csv")
    assert header == "x,y,intensity,group"
    assert len(rows) > 0
    assert (tmp_path / "run.pgm").exists()

    write_spec(spec, dim=3, nRods=3, seed=1)
    res = run_cli("synth", spec, tmp_path / "vol")
    assert res.returncode == 0
    header, _ = csv_rows(tmp_path / "vol.csv")
    assert header == "x,y,z,intensity,group"
    assert not (tmp_path / "vol.pgm").exists()


@pytest.mark.parametrize("dim, extra, message", [
    (2, {}, "could not place rod 0 after 1 attempts"),
    (2, {"crossings": 1}, "could not place crossing pair 0 after 1 attempts"),
    (3, {"crossings": 1}, "could not place crossing pair 0 after 1 attempts"),
])
def test_synth_that_cannot_place_a_rod_exits_1(tmp_path, monkeypatch, capsys, dim, extra, message):
    from lcuts import synth

    monkeypatch.setattr(synth, "_MAX_ATTEMPTS", 1)
    monkeypatch.setattr(synth, "_in_bounds", lambda rod, side: False)
    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=dim, nRods=4, seed=3, **extra)
    assert cli.main(["--quiet", "synth", str(spec), str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {message}; lower nRods or minRodGap\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.cfg"]


def test_synth_deterministic_bytes(tmp_path):
    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=5, seed=17)
    assert run_cli("synth", spec, tmp_path / "a").returncode == 0
    assert run_cli("synth", spec, tmp_path / "b").returncode == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def test_extract_counts_nodes(tmp_path):
    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=4, seed=3, orthoNoiseStd=0.0)
    run_cli("synth", spec, tmp_path / "run")
    res = run_cli("--quiet", "extract", tmp_path / "run.pgm", tmp_path / "found.csv")
    assert res.returncode == 0
    header, found = csv_rows(tmp_path / "found.csv")
    assert header == "x,y,intensity"
    _, truth = csv_rows(tmp_path / "run.csv")
    assert 0.75 * len(truth) <= len(found) <= 1.25 * len(truth)


def test_cluster_single_rod(tmp_path):
    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=1, seed=5, orthoNoiseStd=0.0)
    run_cli("synth", spec, tmp_path / "rod")
    res = run_cli("--quiet", "cluster", tmp_path / "rod.csv", tmp_path / "out.json")
    assert res.returncode == 0
    text = (tmp_path / "out.json").read_text()
    # One line, as json.dumps writes it with its default separators.
    assert "\n" not in text and text == json.dumps(json.loads(text))
    doc = json.loads(text)
    assert set(doc) == {"params", "n", "dim", "groups", "outliers",
                        "perGroup", "forced", "nodes", "tree"}
    assert doc["dim"] == 2
    assert doc["outliers"] == []
    assert len(doc["groups"]) == 1
    assert sorted(doc["groups"][0]) == list(range(doc["n"]))
    assert doc["perGroup"][0]["std"] <= 1e-9
    assert len(doc["nodes"]) == doc["n"]


def test_cluster_config_echo(tmp_path):
    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=1, seed=5)
    run_cli("synth", spec, tmp_path / "rod")
    cfg = tmp_path / "run.cfg"
    write_spec(cfg, hops=6, stdLimit=2.5)
    res = run_cli("--config", cfg, "--quiet", "cluster",
                  tmp_path / "rod.csv", tmp_path / "out.json")
    assert res.returncode == 0
    params = json.loads((tmp_path / "out.json").read_text())["params"]
    assert params["hops"] == 6
    assert params["stdLimit"] == 2.5
    assert params["r"] == 60.0  # untouched default still echoed


def clustered_upper_triangle(cloud):
    """The pairs ``i < j`` of the matrix ``lcuts`` clustered, in caller ids
    and row-major order, with their weights: the dense scatter of its
    working graph, taken through ``rank``."""
    from lcuts.engine import lcuts

    res = lcuts(cloud)
    w = res.work_graph.weights[np.ix_(res.rank, res.rank)]
    i, j = np.nonzero(np.triu(w, 1))
    return i, j, w[i, j]


def test_cluster_dump_adjacency(tmp_path):
    from lcuts.geometry import read_cloud_csv

    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=2, seed=8)
    run_cli("synth", spec, tmp_path / "two")
    # Rows in a seeded shuffle, so the caller's ids are far from the
    # location-sorted working order.
    header, rows = csv_rows(tmp_path / "two.csv")
    shuffled = [rows[k] for k in np.random.default_rng(5).permutation(len(rows))]
    (tmp_path / "shuffled.csv").write_text("\n".join([header, *shuffled]) + "\n")
    res = run_cli("--quiet", "--dump-adjacency", tmp_path / "w.csv",
                  "cluster", tmp_path / "shuffled.csv", tmp_path / "out.json")
    assert res.returncode == 0
    i, j, w = read_edge_list(tmp_path / "w.csv")
    cloud, _ = read_cloud_csv(tmp_path / "shuffled.csv")
    want_i, want_j, want_w = clustered_upper_triangle(cloud)
    assert len(i) > 0 and np.array_equal(i, want_i) and np.array_equal(j, want_j)
    assert w.tobytes() == want_w.tobytes()
    assert j.max() < json.loads((tmp_path / "out.json").read_text())["n"]


def test_dump_adjacency_is_the_clustered_matrix(tmp_path):
    from lcuts.geometry import read_cloud_csv
    from lcuts.raster import read_image

    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=12, crossings=3, intensityValley=0.7, seed=4)
    run_cli("synth", spec, tmp_path / "img")
    assert run_cli("--quiet", "extract", tmp_path / "img.pgm", tmp_path / "found.csv").returncode == 0
    res = run_cli("--quiet", "--dump-adjacency", tmp_path / "w.csv", "cluster",
                  tmp_path / "found.csv", tmp_path / "out.json", "--image", tmp_path / "img.pgm")
    assert res.returncode == 0
    cloud, _ = read_cloud_csv(tmp_path / "found.csv")
    want_i, want_j, want_w = clustered_upper_triangle(cloud.with_image(read_image(tmp_path / "img.pgm")))
    i, j, w = read_edge_list(tmp_path / "w.csv")
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
    assert w.tobytes() == want_w.tobytes()


def test_cluster_refuses_an_oversized_block(tmp_path, monkeypatch, capsys):
    # A connected block whose Laplacian passes the limit is a computation
    # error (exit 1) that names the block, not an out-of-memory kill.
    from lcuts import spectral

    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=6, seed=3)
    assert cli.main(["--quiet", "synth", str(spec), str(tmp_path / "c")]) == 0
    monkeypatch.setattr(spectral, "MAX_LAPLACIAN_BYTES", 8 * 4 * 4)
    assert cli.main(["--quiet", "cluster", str(tmp_path / "c.csv"), str(tmp_path / "out.json")]) == 1
    assert re.search(r"error: a connected block of \d+ nodes needs a", capsys.readouterr().err)
    assert not (tmp_path / "out.json").exists()


def test_evaluate_perfect(tmp_path):
    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=3, seed=2)
    run_cli("synth", spec, tmp_path / "c")
    run_cli("--quiet", "cluster", tmp_path / "c.csv", tmp_path / "pred.json")
    res = run_cli("evaluate", tmp_path / "pred.json", tmp_path / "c.csv",
                  tmp_path / "m.json")
    assert res.returncode == 0
    assert "gacc=1.0 cacc=1.0" in res.stdout
    text = (tmp_path / "m.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2)
    report = json.loads(text)
    assert report["gacc"] == 1.0 and report["cacc"] == 1.0
    assert set(report) == {"gacc", "cacc", "node", "cluster", "matches", "overlapFrac"}


def test_evaluate_split_prediction(tmp_path):
    truth = tmp_path / "truth.csv"
    lines = ["x,y,intensity,group"]
    for i in range(10):
        lines.append(f"{float(i)},0.0,0.5,0")
    truth.write_text("\n".join(lines) + "\n")
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"groups": [[0, 1, 2, 3, 4, 5], [6, 7, 8, 9]],
                                "outliers": []}))
    res = run_cli("evaluate", pred, truth, tmp_path / "m.json")
    assert res.returncode == 0
    report = json.loads((tmp_path / "m.json").read_text())
    assert report["gacc"] == 0.6
    assert report["node"] == {"tp": 6, "fp": 4, "fn": 4}


def test_evaluate_counts_outliers_as_singletons(tmp_path):
    truth = tmp_path / "truth.csv"
    truth.write_text("x,y,intensity,group\n0.0,0.0,0.5,0\n4.0,0.0,0.5,0\n90.0,90.0,0.5,1\n")
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"groups": [[0, 1]], "outliers": [2]}))
    res = run_cli("evaluate", pred, truth, tmp_path / "m.json")
    assert res.returncode == 0
    assert json.loads((tmp_path / "m.json").read_text())["gacc"] == 1.0


def test_exit_codes(tmp_path):
    res = run_cli("cluster", tmp_path / "absent.csv", tmp_path / "o.json")
    assert res.returncode == 2
    assert "absent.csv" in res.stderr

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    truth = tmp_path / "t.csv"
    truth.write_text("x,y,intensity,group\n0.0,0.0,0.5,0\n1.0,0.0,0.5,0\n")
    assert run_cli("evaluate", bad, truth, tmp_path / "m.json").returncode == 2

    cfg = tmp_path / "c.cfg"
    cfg.write_text("volume = 11\n")
    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=1, seed=0)
    run_cli("synth", spec, tmp_path / "r")
    res = run_cli("--config", cfg, "cluster", tmp_path / "r.csv", tmp_path / "o.json")
    assert res.returncode == 2

    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"groups": [[0, 5]], "outliers": []}))
    res = run_cli("evaluate", pred, truth, tmp_path / "m.json")  # ids beyond truth
    assert res.returncode == 2
    assert "mismatch" in res.stderr


NODES = [{"id": 0, "loc": [0.0, 0.0]}, {"id": 1, "loc": [4.0, 0.0]}]


@pytest.mark.parametrize("command, doc, message", [
    ("evaluate", 5, "must be an object"),
    ("render", 5, "must be an object"),
    ("evaluate", {"groups": [[0, 1]], "outliers": ["x"]}, "'outliers' must be a list of integer ids"),
    ("render", {"groups": [[0, 2]], "outliers": [], "nodes": NODES}, "node id 2 is not in 0..1"),
    ("render", {"groups": [[0, 1]], "outliers": [], "nodes": [NODES[0], {"id": 1}]},
     "lacks node locations"),
    ("render", {"groups": [[0, 1]], "outliers": [],
                "nodes": [NODES[0], {"id": 1, "loc": [4.0, 0.0, 1.0]}]}, "all of one length"),
    ("render", {"groups": [[-1, 0]], "outliers": [1], "nodes": NODES}, "node id -1 is not in 0..1"),
], ids=["evaluate-not-object", "render-not-object", "evaluate-string-id", "render-id-out-of-range",
        "render-node-without-loc", "render-ragged-locs", "render-negative-id"])
def test_malformed_cluster_json_exits_2(tmp_path, capsys, command, doc, message):
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps(doc))
    truth = tmp_path / "t.csv"
    truth.write_text("x,y,intensity,group\n0.0,0.0,0.5,0\n4.0,0.0,0.5,0\n")
    rest = [truth, tmp_path / "m.json"] if command == "evaluate" else [tmp_path / "v.svg"]
    assert cli.main(["--quiet", command, *map(str, [pred, *rest])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


FIT = {"centroid": [2.0, 0.0], "axis": [1.0, 0.0], "std": 0.0, "eccentricity": 1.0, "extent": 4.0}


@pytest.mark.parametrize("fits", [
    [5],
    [{"centroid": [2.0, 0.0], "extent": 4.0}],
    [dict(FIT, axis=[1.0, 0.0, 0.0])],
    [dict(FIT, centroid=[2.0, float("nan")])],
    [dict(FIT, extent=None)],
    [dict(FIT, extent=float("inf"))],
    [FIT, None],
    {"0": FIT},
], ids=["int", "no-axis", "axis-of-3", "nan-centroid", "null-extent", "inf-extent",
        "one-too-many", "object"])
def test_render_rejects_malformed_per_group_fits(tmp_path, capsys, fits):
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"groups": [[0, 1]], "outliers": [], "nodes": NODES,
                                "perGroup": fits}))
    assert cli.main(["--quiet", "render", str(pred), str(tmp_path / "v.svg")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'perGroup' must hold one entry per group" in err
    assert not (tmp_path / "v.svg").exists()


def test_render_draws_valid_per_group_fits(tmp_path):
    pred = tmp_path / "pred.json"
    for fits, lines in (([FIT], 1), ([None], 0), (None, 0)):
        doc = {"groups": [[0, 1]], "outliers": [], "nodes": NODES}
        if fits is not None:
            doc["perGroup"] = fits
        pred.write_text(json.dumps(doc))
        assert cli.main(["--quiet", "render", str(pred), str(tmp_path / "v.svg")]) == 0
        assert (tmp_path / "v.svg").read_text().count("<line ") == lines


def test_cluster_image_samples_missing_intensities(tmp_path):
    # A node without an intensity takes the clipped bilinear sample of the
    # image at its location, as one scalar call per node gives it; the
    # others keep their own.
    from lcuts.raster import bilinear_sample, read_image

    write_pgm(tmp_path / "img.pgm", RasterImage(np.linspace(0.0, 1.0, 120).reshape(10, 12)))
    (tmp_path / "c.csv").write_text("x,y,intensity\n1.5,2.25,\n3.0,2.0,0.5\n5.75,2.5,\n")
    assert cli.main(["--quiet", "cluster", str(tmp_path / "c.csv"), str(tmp_path / "out.json"),
                     "--image", str(tmp_path / "img.pgm")]) == 0
    nodes = json.loads((tmp_path / "out.json").read_text())["nodes"]
    img = read_image(tmp_path / "img.pgm")
    want = [float(np.clip(bilinear_sample(img, x, y), 0.0, 1.0)) for x, y in ((1.5, 2.25), (5.75, 2.5))]
    assert [n["intensity"] for n in nodes] == [want[0], 0.5, want[1]]
    assert all(set(n) == {"id", "loc", "intensity"} for n in nodes)


@pytest.mark.parametrize("last, cells", [((25.0, 0.0), "0.5"), ((500.0, 500.0), "0.5"),
                                         ((25.0, 0.0), "")],
                         ids=["near-with-intensities", "isolated-with-intensities",
                              "near-without-intensities"])
def test_cluster_refuses_nodes_outside_the_image(tmp_path, capsys, last, cells):
    # The image must cover every node, whether a segment to it would be
    # sampled, it has no neighbour at all, or its own intensity is missing.
    write_pgm(tmp_path / "img.pgm", RasterImage(np.full((20, 20), 0.5)))
    rows = [(0.0, 0.0), (3.0, 0.0), (6.0, 0.0), last]
    cloud = tmp_path / "c.csv"
    cloud.write_text("x,y,intensity\n" + "".join(f"{x!r},{y!r},{cells}\n" for x, y in rows))
    out = tmp_path / "out.json"
    assert cli.main(["--quiet", "cluster", str(cloud), str(out), "--image", str(tmp_path / "img.pgm")]) == 2
    assert capsys.readouterr().err == f"error: node 3: location {last} lies outside the 20 x 20 image\n"
    assert not out.exists()


# A command that meets a path it cannot read or write, and that path; {d}
# is the test's folder, where folder.pgm and folder.csv are directories and
# the latin1 files hold a byte that is not UTF-8.
UNREADABLE = {
    "image-is-a-directory": (["cluster", "{d}/cloud.csv", "{d}/out.json", "--image", "{d}/folder.pgm"],
                             "{d}/folder.pgm"),
    "cluster-output-is-a-directory": (["cluster", "{d}/cloud.csv", "{d}/folder.pgm"], "{d}/folder.pgm"),
    "synth-output-is-a-directory": (["synth", "{d}/spec.cfg", "{d}/folder"], "{d}/folder.csv"),
    "cloud-not-utf8": (["cluster", "{d}/latin1.csv", "{d}/out.json"], "{d}/latin1.csv"),
    "config-not-utf8": (["--config", "{d}/latin1.cfg", "cluster", "{d}/cloud.csv", "{d}/out.json"],
                        "{d}/latin1.cfg"),
    "spec-not-utf8": (["synth", "{d}/latin1.cfg", "{d}/run"], "{d}/latin1.cfg"),
    "cluster-json-not-utf8": (["render", "{d}/latin1.json", "{d}/out.svg"], "{d}/latin1.json"),
}


@pytest.mark.parametrize("case", list(UNREADABLE))
def test_unreadable_paths_exit_2_naming_the_path(tmp_path, case):
    (tmp_path / "cloud.csv").write_text("x,y,intensity\n0.0,0.0,0.5\n3.0,0.0,0.5\n6.0,0.0,0.5\n")
    write_spec(tmp_path / "spec.cfg", dim=2, nRods=1, seed=0)
    (tmp_path / "folder.pgm").mkdir()
    (tmp_path / "folder.csv").mkdir()
    for suffix in (".csv", ".cfg", ".json"):
        (tmp_path / "latin1").with_suffix(suffix).write_bytes(b"caf\xe9 = 1\n")
    argv, path = UNREADABLE[case]
    res = run_cli(*(arg.format(d=tmp_path) for arg in argv))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and path.format(d=tmp_path) in res.stderr
    assert "Traceback" not in res.stderr


def test_commands_build_no_node_records(tmp_path, monkeypatch):
    # Every command runs on arrays: no Node record is made on the way.
    from lcuts.geometry import Node

    made = []
    check = Node.__post_init__

    def counted(node):
        made.append(node.id)
        check(node)

    monkeypatch.setattr(Node, "__post_init__", counted)
    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=4, seed=3, crossings=1, intensityValley=0.7)
    write_spec(tmp_path / "vol.cfg", dim=3, nRods=3, seed=1)

    def run(*argv):
        assert cli.main(["--quiet", *map(str, argv)]) == 0, argv

    run("synth", spec, tmp_path / "run")
    run("synth", tmp_path / "vol.cfg", tmp_path / "vol")
    run("extract", tmp_path / "run.pgm", tmp_path / "found.csv")
    run("cluster", tmp_path / "found.csv", tmp_path / "found.json", "--image", tmp_path / "run.pgm")
    for name in ("run", "vol"):
        run("cluster", tmp_path / f"{name}.csv", tmp_path / f"{name}.json")
        run("evaluate", tmp_path / f"{name}.json", tmp_path / f"{name}.csv", tmp_path / "m.json")
        run("render", tmp_path / f"{name}.json", tmp_path / "view.svg")
    assert made == []
    Node(7, np.zeros(2))
    assert made == [7]


def test_evaluate_requires_truth_groups(tmp_path):
    img = tmp_path / "plain.csv"
    img.write_text("x,y,intensity\n0.0,0.0,0.5\n4.0,0.0,0.5\n")
    pred = tmp_path / "pred.json"
    pred.write_text(json.dumps({"groups": [[0, 1]], "outliers": []}))
    res = run_cli("evaluate", pred, img, tmp_path / "m.json")
    assert res.returncode == 2
    assert "group" in res.stderr


def test_render_groups_get_distinct_colors(tmp_path):
    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=3, seed=2)
    run_cli("synth", spec, tmp_path / "c")
    run_cli("--quiet", "cluster", tmp_path / "c.csv", tmp_path / "pred.json")
    res = run_cli("--quiet", "render", tmp_path / "pred.json", tmp_path / "p.svg")
    assert res.returncode == 0
    svg = (tmp_path / "p.svg").read_text()
    n_groups = len(json.loads((tmp_path / "pred.json").read_text())["groups"])
    fills = set(re.findall(r'fill="(#[0-9a-fA-F]{6})"', svg))
    assert len(fills) == n_groups
    assert "<line" in svg  # per-group fitted axis overlay


def test_render_3d_panels(tmp_path):
    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=3, nRods=2, seed=4)
    run_cli("synth", spec, tmp_path / "v")
    res = run_cli("--quiet", "render", tmp_path / "v.csv", tmp_path / "v.svg")
    assert res.returncode == 0
    svg = (tmp_path / "v.svg").read_text()
    for label in ("xy", "xz", "yz"):
        assert f">{label}</text>" in svg


def test_render_plain_cloud(tmp_path):
    cloud = tmp_path / "c.csv"
    cloud.write_text("x,y,intensity\n0.0,0.0,0.5\n4.0,0.0,0.5\n8.0,0.0,0.5\n")
    res = run_cli("--quiet", "render", cloud, tmp_path / "c.svg")
    assert res.returncode == 0
    assert (tmp_path / "c.svg").read_text().count("<circle") == 3


def test_full_loop_deterministic(tmp_path):
    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=5, seed=29)
    artifacts = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        assert run_cli("synth", spec, d / "c").returncode == 0
        assert run_cli("--quiet", "cluster", d / "c.csv", d / "pred.json").returncode == 0
        assert run_cli("--quiet", "evaluate", d / "pred.json", d / "c.csv",
                       d / "m.json").returncode == 0
        assert run_cli("--quiet", "render", d / "pred.json", d / "p.svg").returncode == 0
        artifacts.append([(d / name).read_bytes()
                          for name in ("c.csv", "c.pgm", "pred.json", "m.json", "p.svg")])
    assert artifacts[0] == artifacts[1]


def assert_extract_rejects(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    write_spec(cfg, **{key: value})
    img = tmp_path / "img.csv"
    img.write_text("0.1,0.2,0.3\n0.4,0.5,0.6\n")
    assert cli.main(["--config", str(cfg), "--quiet", "extract",
                     str(img), str(tmp_path / "found.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (tmp_path / "found.csv").exists()


@pytest.mark.parametrize("key", ["gaussianSigma", "backgroundRadius", "minSeparation",
                                 "minNeighborDist", "detectionFloor", "sizeLimit",
                                 "stdLimit"])
def test_nan_parameter_is_an_input_error(tmp_path, capsys, key):
    assert_extract_rejects(tmp_path, capsys, key, "nan")


@pytest.mark.parametrize("key", ["gaussianSigma", "backgroundRadius", "minSeparation",
                                 "minNeighborDist", "detectionFloor"])
def test_infinite_pipeline_parameter_is_an_input_error(tmp_path, capsys, key):
    assert_extract_rejects(tmp_path, capsys, key, "inf")


@pytest.mark.parametrize("radius", ["3000", "1e7"])
def test_huge_background_radius_exits_2_at_once(tmp_path, capsys, radius):
    # At these radii the opening of a 699 px image would run for minutes or
    # ask for petabytes; the bound rejects them before any image work.
    img = tmp_path / "img.pgm"
    write_pgm(img, RasterImage(np.full((699, 699), 0.5)))
    cfg = tmp_path / "bad.cfg"
    write_spec(cfg, backgroundRadius=radius)
    t0 = time.perf_counter()
    code = cli.main(["--config", str(cfg), "--quiet", "extract", str(img),
                     str(tmp_path / "found.csv")])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "backgroundRadius must be <= 500" in err
    assert not (tmp_path / "found.csv").exists()


@pytest.mark.parametrize("sigma", ["1e3", "1e12"])
def test_huge_gaussian_sigma_exits_2_at_once(tmp_path, capsys, sigma):
    # At 1e12 the kernel alone would ask for 6e12 taps (43.7 TiB) and end in
    # a MemoryError; the bound rejects it before any image work.
    img = tmp_path / "img.pgm"
    write_pgm(img, RasterImage(np.full((699, 699), 0.5)))
    cfg = tmp_path / "bad.cfg"
    write_spec(cfg, gaussianSigma=sigma)
    t0 = time.perf_counter()
    code = cli.main(["--config", str(cfg), "--quiet", "extract", str(img),
                     str(tmp_path / "found.csv")])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gaussianSigma must be <= 100" in err
    assert not (tmp_path / "found.csv").exists()


@pytest.mark.parametrize("step", ["1e-12", "1e-300"])
def test_tiny_sampling_step_exits_2_at_once(tmp_path, capsys, step):
    # Without a floor, 1e-12 asked numpy for a 21.8 TiB sample array and
    # failed with a traceback, and 1e-300 overflowed the sample count and
    # sampled only the endpoints of each segment.
    write_pgm(tmp_path / "img.pgm", RasterImage(np.full((20, 20), 0.5)))
    cloud = tmp_path / "c.csv"
    cloud.write_text("x,y,intensity\n1.0,1.0,0.5\n4.0,1.0,0.5\n7.0,1.0,0.4\n10.0,1.0,0.5\n")
    cfg = tmp_path / "bad.cfg"
    write_spec(cfg, intensitySamplingStep=step)
    out = tmp_path / "out.json"
    assert cli.main(["--config", str(cfg), "--quiet", "cluster", str(cloud), str(out),
                     "--image", str(tmp_path / "img.pgm")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: intensitySamplingStep must be >= 0.01 px, got {float(step)!r}\n"
    assert not out.exists()


def test_coordinates_up_to_2_53_cluster_and_beyond_exit_2(tmp_path, capsys):
    # 2**53 is the largest accepted magnitude; the next float up is refused
    # with the line that holds it, before any pair search could overflow.
    top = 2.0 ** 53
    rows = ["x,y,intensity", "0.0,0.0,", "0.0,3.0,", "4.0,3.0,", f"{top!r},0.0,", f"0.0,{-top!r},"]
    cloud = tmp_path / "far.csv"
    cloud.write_text("\n".join(rows) + "\n")
    assert cli.main(["--quiet", "cluster", str(cloud), str(tmp_path / "far.json")]) == 0
    doc = json.loads((tmp_path / "far.json").read_text())
    assert doc["groups"] == [[0, 1, 2]] and doc["outliers"] == [3, 4]
    beyond = float(np.nextafter(top, np.inf))
    for k, row in ((4, f"{beyond!r},0.0,"), (5, f"0.0,{-beyond!r},")):
        cloud.write_text("\n".join(rows[:k] + [row] + rows[k + 1:]) + "\n")
        out = tmp_path / "out.json"
        assert cli.main(["--quiet", "cluster", str(cloud), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{cloud}:{k + 1}: node {k - 1}: " in err
        assert "beyond +-2**53" in err and not out.exists()


@pytest.mark.parametrize("key", ["r", "hopRadius"])
def test_infinite_reach_is_an_input_error(tmp_path, capsys, key):
    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=4, seed=3)
    assert cli.main(["--quiet", "synth", str(spec), str(tmp_path / "c")]) == 0
    cfg = tmp_path / "bad.cfg"
    write_spec(cfg, **{key: "inf"})
    assert cli.main(["--config", str(cfg), "--quiet", "cluster",
                     str(tmp_path / "c.csv"), str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key} must be finite and > 0" in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("key, value", [("spacingAlongRod", "nan"), ("minRodGap", "nan"),
                                        ("lengthMax", "inf"), ("spacingAlongRod", "1e-300")])
def test_synth_rejects_unusable_spec_values(tmp_path, capsys, key, value):
    # Each of these ended in a ValueError or OverflowError traceback.
    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=3, seed=0, **{key: value})
    assert cli.main(["--quiet", "synth", str(spec), str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert list(tmp_path.iterdir()) == [spec]


def test_synth_rejects_an_oversized_image(tmp_path, capsys):
    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=5, seed=0, minRodGap="1e5")
    assert cli.main(["--quiet", "synth", str(spec), str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "minRodGap" in err
    assert list(tmp_path.iterdir()) == [spec]


@pytest.mark.parametrize("value", ["2.0", "nan", "0"])
def test_bad_overlap_frac_fails_at_config_load(tmp_path, capsys, value):
    spec = tmp_path / "spec.cfg"
    write_spec(spec, dim=2, nRods=3, seed=0)
    assert cli.main(["--quiet", "synth", str(spec), str(tmp_path / "c")]) == 0
    assert cli.main(["--quiet", "cluster", str(tmp_path / "c.csv"),
                     str(tmp_path / "pred.json")]) == 0
    cfg = tmp_path / "bad.cfg"
    write_spec(cfg, overlapFrac=value)
    for argv in (["cluster", tmp_path / "c.csv", tmp_path / "out.json"],
                 ["evaluate", tmp_path / "pred.json", tmp_path / "c.csv", tmp_path / "m.json"]):
        assert cli.main(["--config", str(cfg), "--quiet", *map(str, argv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: overlapFrac must be in (0, 1]"), err
        assert not Path(argv[-1]).exists()


def test_cluster_json_round_trips_on_fuzz_corpus_results():
    # Replays criterion 09's corpus draw for draw. json.dumps raises TypeError
    # on a numpy integer, so none may reach the cluster JSON.
    from lcuts.config import Config
    from lcuts.engine import lcuts
    from test_acceptance import fuzz_cloud

    cfg = Config.default()
    rng = np.random.default_rng(3)
    for t in range(500):
        cloud = fuzz_cloud(t, rng)
        if t % 10 == 0 and len(cloud) > 1:
            rng.permutation(len(cloud))
        text = cli._result_json(lcuts(cloud), cloud, cfg)
        assert text == json.dumps(json.loads(text)), f"trial {t}"


LAZY_IMPORTS = textwrap.dedent("""
    import json, os, sys
    from pathlib import Path
    import lcuts.cli
    from lcuts.geometry import write_cloud_csv
    from lcuts.raster import write_pgm
    from lcuts.synth import SynthSpec, generate_cloud, generate_image

    os.chdir(sys.argv[1])
    spec = SynthSpec(dim=2, n_rods=5, seed=0)
    cloud, groups = generate_cloud(spec)
    write_cloud_csv("tiny.csv", cloud, groups)
    write_pgm("tiny.pgm", generate_image(spec)[0])
    Path("lumped.json").write_text(json.dumps({"groups": [list(range(len(cloud)))],
                                               "outliers": []}))
    loaded = {}
    for argv in (["cluster", "tiny.csv", "pred.json"],
                 ["evaluate", "pred.json", "tiny.csv", "metrics.json"],
                 ["render", "pred.json", "view.svg"],
                 ["extract", "tiny.pgm", "found.csv"],
                 ["evaluate", "lumped.json", "tiny.csv", "lumped_metrics.json"]):
        assert lcuts.cli.main(["--quiet", *argv]) == 0, argv
        loaded[argv[-1]] = [m for m in ("scipy.ndimage", "scipy.optimize", "scipy.spatial",
                                        "scipy.special") if m in sys.modules]
    print(json.dumps(loaded))
""")


def test_commands_load_ndimage_and_optimize_only_when_needed(tmp_path):
    # A fresh process, since this test session has loaded all four modules.
    proc = subprocess.run([sys.executable, "-c", LAZY_IMPORTS, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["gacc"] == metrics["cacc"] == 1.0
    # cluster, scoring an exact clustering and render load none of the four;
    # extract loads scipy.ndimage, which brings in scipy.special only
    assert loaded["pred.json"] == loaded["metrics.json"] == loaded["view.svg"] == []
    assert loaded["found.csv"] == ["scipy.ndimage", "scipy.special"]
    # one group over five rods overlaps ambiguously, so it needs the solver,
    # and importing scipy.optimize loads scipy.spatial
    assert loaded["lumped_metrics.json"] == ["scipy.ndimage", "scipy.optimize", "scipy.spatial",
                                             "scipy.special"]


NO_SCIPY = textwrap.dedent("""
    import json, os, sys
    from pathlib import Path


    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


    import lcuts.cli
    from lcuts.geometry import read_cloud_csv

    loaded = {"import": scipy_modules()}
    os.chdir(sys.argv[1])
    Path("spec.cfg").write_text("dim = 2\\nnRods = 5\\nseed = 0\\n")
    assert lcuts.cli.main(["--quiet", "synth", "spec.cfg", "tiny"]) == 0
    loaded["synth"] = scipy_modules()
    # The truth itself as the prediction overlaps one to one.
    cloud, truth = read_cloud_csv("tiny.csv")
    Path("pred.json").write_text(json.dumps({
        "groups": [sorted(g) for g in truth], "outliers": [],
        "nodes": [{"id": k, "loc": loc} for k, loc in enumerate(cloud.locs().tolist())]}))
    assert lcuts.cli.main(["--quiet", "evaluate", "pred.json", "tiny.csv", "metrics.json"]) == 0
    loaded["evaluate"] = scipy_modules()
    for source in ("tiny.csv", "pred.json"):
        assert lcuts.cli.main(["--quiet", "render", source, source + ".svg"]) == 0
    loaded["render"] = scipy_modules()
    print(json.dumps(loaded))
""")


def test_render_synth_and_one_to_one_evaluate_load_no_scipy(tmp_path):
    # A fresh process, since this test session has loaded scipy.
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["gacc"] == metrics["cacc"] == 1.0
    assert json.loads(proc.stdout) == {"import": [], "synth": [], "evaluate": [], "render": []}
