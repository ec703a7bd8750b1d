import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from lcuts import engine, spectral
from lcuts.direction import VotingParams, assign_all_directions
from lcuts.engine import Decision, StoppingLimits, check_stopping, lcuts
from lcuts.errors import InputError
from lcuts.geometry import Node, PointCloud, fit_line
from lcuts.graph import GraphParams, build_adjacency, intensity_threshold
from lcuts.metrics import evaluate
from lcuts.raster import RasterImage
from lcuts.spectral import WEAK_LINK, component_arrays, ncut_bipartition
from lcuts.synth import SynthSpec, generate_cloud, generate_image
import oracles
from test_acceptance import fuzz_cloud


def make_cloud(pts, dim=2, image=None, intensities=None):
    nodes = []
    for i, p in enumerate(pts):
        inten = None if intensities is None else intensities[i]
        nodes.append(Node(id=i, loc=np.asarray(p, dtype=np.float64), intensity=inten))
    return PointCloud(nodes, dim, image=image)


def test_check_stopping_accept_short_line():
    cloud = make_cloud([(10.0 * i, 2.0) for i in range(5)])
    check = check_stopping(cloud, list(range(5)), StoppingLimits())
    assert check.decision is Decision.ACCEPT and not check.forced


def test_check_stopping_recurse_long_line():
    cloud = make_cloud([(120.0 * i / 29, 0.0) for i in range(30)])
    check = check_stopping(cloud, list(range(30)), StoppingLimits())
    assert check.decision is Decision.RECURSE


def test_check_stopping_outlier_below_min_size():
    cloud = make_cloud([(0.0, 0.0), (50.0, 50.0)])
    assert check_stopping(cloud, [0], StoppingLimits()).decision is Decision.OUTLIER


def test_check_stopping_l_shape_recurses():
    # two 5-node arms, extent ~30 px: passes the size check, fails linearity
    pts = [(4.0 * i, 0.0) for i in range(1, 6)] + [(0.0, 4.5 * i) for i in range(1, 6)]
    cloud = make_cloud(pts)
    moments = np.cov(np.asarray(pts).T, bias=True)
    lam = np.sort(np.linalg.eigvalsh(moments))
    ecc = np.sqrt(1.0 - lam[0] / lam[1])  # oracle moments
    assert ecc < 0.95
    check = check_stopping(cloud, list(range(10)), StoppingLimits())
    assert check.decision is Decision.RECURSE


def test_check_stopping_eccentricity_branch():
    # corner-shared L: std passes under a loose limit, eccentricity does not
    pts = [(6.0 * i, 0.0) for i in range(5)] + [(0.0, 6.0 * i) for i in range(1, 5)]
    cloud = make_cloud(pts)
    loose = StoppingLimits(std_limit=10.0)
    assert check_stopping(cloud, list(range(9)), loose).decision is Decision.RECURSE
    no_ecc = StoppingLimits(std_limit=10.0, check_eccentricity=False)
    assert check_stopping(cloud, list(range(9)), no_ecc).decision is Decision.ACCEPT


def gap_image():
    px = np.full((11, 11), 0.8)
    px[:, 5] = 0.1
    return RasterImage(px)


def test_check_stopping_forced_pair_across_gap():
    img = gap_image()
    cloud = make_cloud([(2.0, 5.0), (8.0, 5.0)], image=img, intensities=[0.8, 0.8])
    check = check_stopping(cloud, [0, 1], StoppingLimits(), thresh=0.25)
    assert check.decision is Decision.ACCEPT and check.forced


def test_check_stopping_intensity_gap_recurses():
    img = gap_image()
    cloud = make_cloud([(2.0 + 2.0 * i, 5.0) for i in range(4)], image=img,
                       intensities=[0.8] * 4)
    check = check_stopping(cloud, [0, 1, 2, 3], StoppingLimits(), thresh=0.25)
    assert check.decision is Decision.RECURSE
    relaxed = StoppingLimits(check_intensity=False)
    assert check_stopping(cloud, [0, 1, 2, 3], relaxed, thresh=0.25).decision is Decision.ACCEPT


def test_check_stopping_matches_scalar_loop_on_image_groups():
    # one batched sampler call must decide exactly as the loop that samples
    # one segment at a time and stops at the first dark one
    rng = np.random.default_rng(23)
    loose = StoppingLimits(size_limit=1e9, std_limit=1e9, check_eccentricity=False)
    seen = set()
    for seed in (3, 4):
        spec = SynthSpec(dim=2, n_rods=8, crossings=3, intensity_valley=0.7, seed=seed)
        _, cloud, _ = generate_image(spec)
        locs = cloud.locs()
        base = intensity_threshold(cloud)
        for _ in range(120):
            size = int(rng.integers(2, 14))
            if rng.random() < 0.7:  # a nearby group, as the recursion meets them
                center = locs[rng.integers(len(cloud))]
                group = np.argsort(((locs - center) ** 2).sum(axis=1))[:size]
            else:
                group = rng.choice(len(cloud), size=size, replace=False)
            thresh = base if rng.random() < 0.5 else float(rng.uniform(0.0, 1.0))
            step = float(rng.choice([0.25, 0.5, 1.0]))
            for limits in (StoppingLimits(), loose):
                got = check_stopping(cloud, group.tolist(), limits, thresh, step)
                assert got == oracles.check_stopping(cloud, group.tolist(), limits, thresh, step)
                if limits is loose:
                    seen.add((got.decision, got.forced))
    # under the loose limits only the intensity test decides, both ways
    assert {(Decision.ACCEPT, False), (Decision.RECURSE, False)} <= seen


def test_lcuts_chain_single_group():
    cloud = make_cloud([(5.0 * i, 0.0) for i in range(8)])
    res = lcuts(cloud)
    assert res.groups == [[0, 1, 2, 3, 4, 5, 6, 7]]
    assert res.outliers == []
    assert res.forced == [False]
    assert res.tree is not None
    assert res.tree.decision == "accept" and res.tree.children == []
    assert res.per_group[0] is not None and res.per_group[0].extent == pytest.approx(35.0)


def test_lcuts_per_group_fits_equal_fresh_fits_bit_for_bit():
    # lcuts() reuses the stop check's fit, made in location-sorted working
    # order; it must equal a fit of the group in the caller's order.
    def bits(x):
        return np.asarray(x, dtype=np.float64).tobytes()

    for dim, n_rods, seed in ((2, 40, 31), (3, 25, 32)):
        cloud, _ = generate_cloud(SynthSpec(dim=dim, n_rods=n_rods, seed=seed))
        perm = np.random.default_rng(seed).permutation(len(cloud))
        locs = cloud.locs()[perm]
        shuffled = PointCloud([Node(i, p) for i, p in enumerate(locs)], dim)
        res = lcuts(shuffled)
        assert len(res.per_group) == len(res.groups) > n_rods // 2
        for g, fit in zip(res.groups, res.per_group):
            want = fit_line(locs[g])
            for name in ("centroid", "axis", "std", "eccentricity", "extent"):
                assert bits(getattr(fit, name)) == bits(getattr(want, name)), (dim, g, name)


def test_lcuts_splits_two_rods():
    pts = [(6.0 * i, 0.0) for i in range(8)] + [(6.0 * i, 30.0) for i in range(8)]
    res = lcuts(make_cloud(pts))
    assert sorted(sorted(g) for g in res.groups) == [list(range(8)), list(range(8, 16))]
    assert res.outliers == []


def test_lcuts_crossing_with_valley():
    spec = SynthSpec(dim=2, n_rods=2, length_range=(30.0, 50.0), crossings=1,
                     intensity_valley=0.6, seed=1)
    _, cloud, truth = generate_image(spec)
    res = lcuts(cloud, limits=StoppingLimits(check_intensity=False))
    assert len(res.groups) == 2
    pred = [set(g) for g in res.groups] + [{o} for o in res.outliers]
    report = evaluate(pred, truth)
    assert report.gacc == 1.0


def test_lcuts_empty_and_singleton():
    empty = PointCloud([], 2)
    res = lcuts(empty)
    assert res.groups == [] and res.outliers == [] and res.tree is None
    single = make_cloud([(3.0, 4.0)])
    res = lcuts(single)
    assert res.groups == [] and res.outliers == [0]


def test_lcuts_strips_node_with_only_weak_links():
    # node 8 lies 55 and 60 px from the chain's end: both weights are below
    # WEAK_LINK, so it is dead although its row is not zero
    cloud = make_cloud([(5.0 * i, 0.0) for i in range(8)] + [(90.0, 0.0)])
    res = lcuts(cloud)
    assert 0.0 < res.graph.weights[8].max() < WEAK_LINK
    assert res.groups == [list(range(8))]
    assert res.outliers == [8]
    assert res.tree.decision == "strip" and res.tree.stripped == [8]
    assert [c.ids for c in res.tree.children] == [list(range(8))]


def test_lcuts_splits_disconnected_group_into_all_components():
    # three chains 100 px apart link by no edge >= WEAK_LINK; the ids
    # interleave, so the chains' smallest members are 0, 1 and 2, in the
    # order of their locations
    sizes = (5, 3, 4)
    pts = [None] * sum(sizes)
    members = [[] for _ in sizes]
    k = 0
    for row in range(max(sizes)):
        for c, size in enumerate(sizes):
            if row < size:
                pts[k] = (100.0 * c, 5.0 * row)
                members[c].append(k)
                k += 1
    res = lcuts(make_cloud(pts))
    assert res.tree.decision == "recurse" and res.tree.ncut == 0.0
    assert [c.ids for c in res.tree.children] == members
    assert [c.decision for c in res.tree.children] == ["accept"] * 3
    assert res.groups == members and res.outliers == []


def test_lcuts_tree_independent_of_eigensolver(monkeypatch):
    # Blocks joined only by weak links split by components, so no Fiedler vector is drawn
    # from a near-null space, and the full solve of every eigenpair by numpy gives the
    # same tree as the default partial solve by LAPACK's evr driver. The last two clouds
    # are the 300-rod 2-D and 200-rod 3-D field layouts of the benchmark.
    clouds = [generate_cloud(SynthSpec(dim=2, n_rods=60, seed=1))[0],
              generate_cloud(SynthSpec(dim=3, n_rods=40, seed=1))[0],
              generate_cloud(SynthSpec(dim=2, n_rods=300, seed=1))[0],
              generate_cloud(SynthSpec(dim=3, n_rods=200, seed=1))[0]]
    base = [lcuts(cloud) for cloud in clouds]
    solves = []

    def full_eigh(m, k):
        solves.append(len(m))
        vals, vecs = np.linalg.eigh(m)
        return vals[:k], vecs[:, :k]

    monkeypatch.setattr(spectral, "smallest_eigenpairs", full_eigh)
    for cloud, want in zip(clouds, base):
        got = lcuts(cloud)
        assert got.tree.to_dict() == want.tree.to_dict()
        assert got.groups == want.groups
        assert got.outliers == want.outliers
    assert solves


# Peak resident memory allowed for clustering a 20,841-node 2-D field in a
# fresh process and scoring the result, imports included. Both together
# measured 119 MiB; a dense affinity matrix alone would take 8 * 20841^2
# bytes, 3.2 GiB, and scoring through a dense 2,000 x 2,000 overlap and
# scipy.optimize lifted the peak from 132 to 219 MiB.
FIELD_20K_RSS_MIB = 200

FIELD_20K = textwrap.dedent("""
    import json, resource, sys
    import numpy as np
    from lcuts.engine import lcuts
    from lcuts.geometry import Node, PointCloud
    from lcuts.metrics import evaluate

    # 2,000 rods of 7 to 14 nodes 4 px apart, one per 80 px cell of a
    # 45 x 45 grid, centred in the cell within 8 px; each rod is one group.
    rng = np.random.default_rng(5)
    rods = []
    for k in range(2000):
        center = (np.array([k % 45, k // 45]) + 0.5) * 80.0 + rng.uniform(-8.0, 8.0, 2)
        angle = rng.uniform(0.0, np.pi)
        axis = np.array([np.cos(angle), np.sin(angle)])
        normal = np.array([-axis[1], axis[0]])
        half = rng.uniform(12.5, 27.5)
        t = np.arange(-half, half + 1e-9, 4.0)
        rods.append(center + t[:, None] * axis + rng.normal(0.0, 0.5, (len(t), 1)) * normal)
    cloud = PointCloud([Node(i, p) for i, p in enumerate(np.concatenate(rods))], 2)
    res = lcuts(cloud)
    rod = np.repeat(np.arange(len(rods)), [len(r) for r in rods])
    starts = np.cumsum([0] + [len(r) for r in rods])
    truth = [set(range(a, b)) for a, b in zip(starts[:-1].tolist(), starts[1:].tolist())]
    report = evaluate([set(g) for g in res.groups] + [{o} for o in res.outliers], truth)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"n": len(cloud), "peak_mib": peak_mib, "outliers": len(res.outliers),
                      "groups": len(res.groups),
                      "pure": all(len(set(rod[g].tolist())) == 1 for g in res.groups),
                      "gacc": report.gacc, "cacc": report.cacc,
                      "optimize": "scipy.optimize" in sys.modules}))
""")


def test_lcuts_clusters_a_20k_node_field_in_bounded_memory():
    env = dict(os.environ, PYTHONPATH=str(Path(spectral.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", FIELD_20K], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["n"] > 20000
    assert got["groups"] == 2000 and got["outliers"] == 0 and got["pure"]
    assert got["gacc"] == got["cacc"] == 1.0
    assert not got["optimize"]
    assert got["peak_mib"] < FIELD_20K_RSS_MIB, got


def test_lcuts_partition_property():
    spec = SynthSpec(dim=2, n_rods=8, seed=5)
    cloud, _ = generate_cloud(spec)
    res = lcuts(cloud)
    seen = sorted([i for g in res.groups for i in g] + list(res.outliers))
    assert seen == list(range(len(cloud)))
    assert len(res.forced) == len(res.groups) == len(res.per_group)


def test_lcuts_tree_children_partition_parent():
    spec = SynthSpec(dim=2, n_rods=6, seed=2)
    cloud, _ = generate_cloud(spec)
    res = lcuts(cloud)
    assert sorted(res.tree.ids) == list(range(len(cloud)))
    stack = [res.tree]
    while stack:
        node = stack.pop()
        if node.children:
            merged = sorted(i for ch in node.children for i in ch.ids) + sorted(node.stripped)
            assert sorted(merged) == sorted(node.ids)
        stack.extend(node.children)


def test_lcuts_id_permutation_equivariance():
    rng = np.random.default_rng(17)
    spec = SynthSpec(dim=2, n_rods=7, seed=23)
    cloud, _ = generate_cloud(spec)
    base = lcuts(cloud)
    ids = rng.permutation(len(cloud))
    perm = PointCloud([Node(id=k, loc=cloud.nodes[i].loc) for k, i in enumerate(ids.tolist())], 2)
    res = lcuts(perm)
    back = sorted(tuple(sorted(ids[np.array(g)].tolist())) for g in res.groups)
    assert back == sorted(tuple(g) for g in base.groups)
    assert sorted(ids[np.array(res.outliers, dtype=int)].tolist()) == base.outliers


def test_stopping_limits_validation():
    with pytest.raises(InputError):
        StoppingLimits(size_limit=0.0)
    with pytest.raises(InputError):
        StoppingLimits(ecc_limit=1.2)
    with pytest.raises(InputError):
        StoppingLimits(std_limit=-1.0)
    with pytest.raises(InputError):
        StoppingLimits(min_group_size=0)
    for name in ("size_limit", "std_limit", "ecc_limit"):
        with pytest.raises(InputError):
            StoppingLimits(**{name: float("nan")})


def reference_lcuts(cloud):
    """The restrict-and-split recursion written plainly, on default parameters:
    restrict the dense matrix to the group, strip its zero rows, check the
    stop rules, then split a disconnected group into its components (scipy's
    graph search) or bipartition a connected one. Returns (tree dict, groups,
    outliers, forced, matrix), all in the caller's node ids."""
    gparams, limits = GraphParams(), StoppingLimits()
    back = np.lexsort(cloud.locs().T[::-1]).tolist()
    work = PointCloud([Node(id=k, loc=cloud.nodes[i].loc, intensity=cloud.nodes[i].intensity)
                       for k, i in enumerate(back)], cloud.dim, image=cloud.image)
    work = assign_all_directions(work, VotingParams())
    thresh = None
    if work.image is not None and work.has_all_intensities():
        thresh = intensity_threshold(work)
    w = build_adjacency(work, gparams, thresh=thresh).weights
    groups, outliers = [], []

    def caller(ids):
        return sorted(back[k] for k in ids)

    def record(ids, decision, ncut=None, forced=False, stripped=(), children=()):
        return {"ids": caller(ids), "decision": decision, "ncut": ncut, "forced": forced,
                "stripped": caller(stripped), "children": list(children)}

    def visit(ids):
        sub = w[np.ix_(ids, ids)]
        if len(ids) > 1:
            dead = [ids[k] for k in np.nonzero(~(sub >= WEAK_LINK).any(axis=1))[0]]
            if dead:
                outliers.extend(dead)
                rest = [i for i in ids if i not in dead]
                return record(ids, "strip", stripped=dead, children=[visit(rest)] if rest else [])
        chk = check_stopping(work, ids, limits, thresh=thresh,
                             sampling_step=gparams.intensity_sampling_step)
        if chk.decision is Decision.ACCEPT:
            groups.append((caller(ids), chk.forced))
            return record(ids, "accept", forced=chk.forced)
        if chk.decision is Decision.OUTLIER:
            outliers.extend(ids)
            return record(ids, "outlier")
        comps = oracles.components(sub)
        if len(comps) > 1:
            return record(ids, "recurse", ncut=0.0, children=[visit([ids[k] for k in c]) for c in comps])
        part = ncut_bipartition(sub)
        kids = [visit(sorted(ids[k] for k in side)) for side in (part.group_a, part.group_b)]
        return record(ids, "recurse", ncut=part.ncut, children=kids)

    tree = visit(list(range(len(work))))
    groups.sort()
    rank = np.argsort(back)
    return (tree, [g for g, _ in groups], caller(outliers), [f for _, f in groups],
            w[np.ix_(rank, rank)])


def assert_matches_reference(cloud):
    tree, groups, outliers, forced, w = reference_lcuts(cloud)
    res = lcuts(cloud)
    assert res.tree.to_dict() == tree
    assert res.groups == groups
    assert res.outliers == outliers
    assert res.forced == forced
    assert np.array_equal(res.graph.weights, w)


def test_recursion_matches_reference_on_fuzz_corpus():
    # Replays criterion 09's corpus draw for draw and checks one cloud in
    # five, rotating through the five kinds of cloud.
    rng = np.random.default_rng(3)
    for t in range(500):
        cloud = fuzz_cloud(t, rng)
        if t % 10 == 0 and len(cloud) > 1:
            rng.permutation(len(cloud))
        if t % 5 == (t // 5) % 5 and len(cloud):
            assert_matches_reference(cloud)


def test_recursion_matches_reference_on_fields():
    cloud2, _ = generate_cloud(SynthSpec(dim=2, n_rods=25, crossings=4, seed=4))
    ids = np.random.default_rng(8).permutation(len(cloud2))
    permuted = PointCloud([Node(id=k, loc=cloud2.nodes[i].loc) for k, i in enumerate(ids.tolist())], 2)
    cloud3, _ = generate_cloud(SynthSpec(dim=3, n_rods=15, seed=6))
    _, imaged, _ = generate_image(SynthSpec(dim=2, n_rods=12, crossings=4, intensity_valley=0.7, seed=2))
    # isolated nodes make the root strip; this scatter strips below a Fiedler split
    lone = [Node(id=len(cloud2) + k, loc=np.array([-500.0, 100.0 * k])) for k in range(3)]
    with_lone = PointCloud(cloud2.nodes + lone, 2)
    locs = np.random.default_rng(6).uniform(0.0, 150.0, size=(60, 3))
    scattered = PointCloud([Node(id=i, loc=p) for i, p in enumerate(locs)], 3)
    for cloud in (cloud2, permuted, with_lone, scattered, cloud3, imaged):
        assert_matches_reference(cloud)


def test_fiedler_blocks_are_connected(monkeypatch):
    # ncut_bipartition does not search for components: lcuts() must hand it
    # only blocks that edges >= WEAK_LINK connect.
    blocks = []

    def connected_only(w):
        assert len(component_arrays(w)) == 1
        blocks.append(len(w))
        return ncut_bipartition(w)

    monkeypatch.setattr(engine, "ncut_bipartition", connected_only)
    # Replays criterion 09's corpus draw for draw.
    rng = np.random.default_rng(3)
    for t in range(500):
        cloud = fuzz_cloud(t, rng)
        if t % 10 == 0 and len(cloud) > 1:
            rng.permutation(len(cloud))
        lcuts(cloud)
    # The rod layouts of the field2d and field3d benchmark workloads.
    for spec in (SynthSpec(dim=2, n_rods=300, seed=1), SynthSpec(dim=3, n_rods=200, seed=1)):
        lcuts(generate_cloud(spec)[0])
    assert blocks  # the wrapper was reached
