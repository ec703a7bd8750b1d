"""End-to-end acceptance checks.

Each test exercises one release criterion and prints a single PASS/FAIL line
with the measured numbers, so a bare ``pytest -v`` run doubles as the
acceptance report.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np

from lcuts.direction import VotingParams, assign_all_directions
from lcuts.engine import StoppingLimits, lcuts
from lcuts.geometry import Node, PointCloud, fit_line
from lcuts.graph import GraphParams, build_adjacency
from lcuts.metrics import (counting_accuracy, dice, evaluate, grouping_accuracy,
                           match_clusters)
from lcuts.pipeline import PipelineParams, extract_nodes, gaussian_filter, gaussian_kernel
from lcuts.raster import RasterImage
from lcuts.spectral import ncut_bipartition, smallest_eigenpairs
from lcuts.synth import SynthSpec, _place_rods, generate_cloud, generate_image, segment_distance


def report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def as_prediction(result):
    return result.group_sets() + [{o} for o in result.outliers]


# ---------------------------------------------------------------------------


def brute_min_ncut(w):
    """Exhaustive minimum normalized cut; node n-1 is pinned to side B."""
    n = w.shape[0]
    deg = w.sum(axis=1)
    masks = np.arange(1, 1 << (n - 1))
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    assoc_a = bits @ deg
    assoc_b = deg.sum() - assoc_a
    within = np.einsum("mi,ij,mj->m", bits, w, bits)
    cut = assoc_a - within
    ncuts = cut / assoc_a + cut / assoc_b
    k = int(np.argmin(ncuts))
    side = frozenset(np.nonzero(bits[k])[0].tolist())
    return float(ncuts[k]), side, frozenset(range(n)) - side


def test_criterion_01_planted_partition_cuts():
    rng = np.random.default_rng(91)
    t0 = time.perf_counter()
    exact = 0
    near = 0
    trials = 200
    for _ in range(trials):
        n = int(rng.integers(4, 13))
        a = int(rng.integers(2, n - 1))
        w = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                same = (i < a) == (j < a)
                w[i, j] = rng.uniform(0.5, 1.0) if same else rng.uniform(0.001, 0.01)
        w = w + w.T
        best, side_a, side_b = brute_min_ncut(w)
        # The nonzero entries in row-major order, as SparseGraph.edges lists them.
        rows, cols = np.nonzero(w)
        part = ncut_bipartition(n, rows, cols, w[rows, cols])
        if {part.group_a, part.group_b} == {side_a, side_b}:
            exact += 1
        if part.ncut <= 1.05 * best + 1e-15:
            near += 1
    dt = time.perf_counter() - t0
    ok = exact >= 195 and near == trials and dt < 10.0
    report(1, "planted partition cuts", ok,
           f"exact {exact}/{trials}, within 5% {near}/{trials}, {dt:.2f}s")


def test_criterion_02_eigensolver_contract():
    rng = np.random.default_rng(17)
    worst_resid = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        m = rng.normal(size=(n, n))
        m = (m + m.T) / 2.0
        k = int(rng.integers(1, min(6, n) + 1))
        vals, vecs = smallest_eigenpairs(m, k)
        fro = np.linalg.norm(m)
        for i in range(k):
            r = np.linalg.norm(m @ vecs[:, i] - vals[i] * vecs[:, i]) / fro
            worst_resid = max(worst_resid, r)

    lo = 0.0
    hi = 2.0
    first = 0.0
    for _ in range(25):
        n = int(rng.integers(3, 40))
        w = rng.uniform(0.0, 1.0, size=(n, n))
        w = (w + w.T) / 2.0
        w[w < 0.4] = 0.0
        for i in range(n - 1):
            w[i, i + 1] = max(w[i, i + 1], 0.5)  # a path keeps it connected
            w[i + 1, i] = w[i, i + 1]
        np.fill_diagonal(w, 0.0)
        deg = w.sum(axis=1)
        dinv = 1.0 / np.sqrt(deg)
        lap = np.eye(n) - w * np.multiply.outer(dinv, dinv)
        vals, _ = smallest_eigenpairs(lap, n)
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
        first = max(first, abs(float(vals[0])))
    ok = worst_resid <= 1e-8 and lo >= -1e-8 and hi <= 2.0 + 1e-8 and first <= 1e-8
    report(2, "eigensolver contract", ok,
           f"max residual {worst_resid:.2e}, spectrum [{lo:.2e}, {hi:.6f}], lambda0 {first:.2e}")


def test_criterion_03_separated_rods_2d():
    t0 = time.perf_counter()
    worst_gacc = 1.0
    worst_cacc = 1.0
    for seed in range(50):
        spec = SynthSpec(dim=2, n_rods=5 + seed % 26, length_range=(25.0, 55.0),
                         spacing_along_rod=4.0, ortho_noise_std=0.5,
                         min_rod_gap=15.0, seed=seed)
        cloud, truth = generate_cloud(spec)
        rep = evaluate(as_prediction(lcuts(cloud)), truth)
        worst_gacc = min(worst_gacc, rep.gacc)
        worst_cacc = min(worst_cacc, rep.cacc)
    dt = time.perf_counter() - t0
    ok = worst_gacc == 1.0 and worst_cacc == 1.0 and dt < 60.0
    report(3, "separated 2-D rods", ok,
           f"worst gacc {worst_gacc}, worst cacc {worst_cacc} over 50 seeds, {dt:.1f}s")


def test_criterion_04_crossing_rods():
    caccs = []
    limits = StoppingLimits(check_intensity=False)
    for seed in range(25):
        spec = SynthSpec(dim=2, n_rods=2, length_range=(30.0, 50.0), crossings=1,
                         intensity_valley=0.6, seed=seed)
        _, cloud, truth = generate_image(spec)
        rep = evaluate(as_prediction(lcuts(cloud, limits=limits)), truth)
        caccs.append(rep.cacc)
    mean = float(np.mean(caccs))
    ok = mean >= 0.95
    report(4, "crossing rods", ok, f"mean cacc {mean:.4f} over 25 seeds")


def test_criterion_05_rods_3d():
    caccs = []
    gaccs = []
    for seed in range(25):
        spec = SynthSpec(dim=3, n_rods=20 + (seed * 7) % 41,
                         length_range=(25.0, 55.0), seed=seed)
        cloud, truth = generate_cloud(spec)
        rep = evaluate(as_prediction(lcuts(cloud)), truth)
        caccs.append(rep.cacc)
        gaccs.append(rep.gacc)
    mc = float(np.mean(caccs))
    mg = float(np.mean(gaccs))
    ok = mc >= 0.97 and mg >= 0.90
    report(5, "3-D rod fields", ok, f"mean cacc {mc:.4f}, mean gacc {mg:.4f} over 25 seeds")


def angle_to(axis, d):
    return float(np.arccos(min(1.0, abs(float(d @ axis)))))


def test_criterion_06_direction_accuracy():
    worst = 0.0
    for dim in (2, 3):
        for seed in range(5):
            spec = SynthSpec(dim=dim, n_rods=10, length_range=(60.0, 100.0),
                             spacing_along_rod=6.0, ortho_noise_std=0.0, seed=seed)
            cloud, truth = generate_cloud(spec)
            cloud = assign_all_directions(cloud, VotingParams(hops=4, hop_radius=7.0))
            locs = cloud.locs()
            for members in truth:
                axis = fit_line(locs[sorted(members)]).axis
                for i in members:
                    d = cloud.nodes[i].dir
                    worst = max(worst, np.pi / 2 if d is None else angle_to(axis, d))
    clean_ok = worst <= 1e-6

    hits = 0
    total = 0
    vparams = VotingParams(hops=4, hop_radius=13.0)
    for seed in range(10):
        spec = SynthSpec(dim=2, n_rods=12, length_range=(100.0, 140.0),
                         spacing_along_rod=12.0, ortho_noise_std=1.0,
                         min_rod_gap=15.0, seed=seed)
        cloud, truth = generate_cloud(spec)
        cloud = assign_all_directions(cloud, vparams)
        locs = cloud.locs()
        for members in truth:
            axis = fit_line(locs[sorted(members)]).axis
            for i in members:
                d = cloud.nodes[i].dir
                total += 1
                if d is not None and angle_to(axis, d) <= np.deg2rad(5.0):
                    hits += 1
    frac = hits / total
    ok = clean_ok and frac >= 0.95
    report(6, "direction voting accuracy", ok,
           f"noiseless worst {worst:.2e} rad, noisy within 5 deg {100 * frac:.2f}%")


def brute_blur(pix, sigma):
    k = gaussian_kernel(sigma)
    r = len(k) // 2
    pad = np.pad(pix, r, mode="reflect")
    kk = np.outer(k, k)
    out = np.zeros_like(pix)
    for i in range(pix.shape[0]):
        for j in range(pix.shape[1]):
            out[i, j] = (pad[i:i + 2 * r + 1, j:j + 2 * r + 1] * kk).sum()
    return out


def test_criterion_07_image_pipeline():
    rng = np.random.default_rng(5)
    blur_err = 0.0
    for _ in range(3):
        pix = rng.uniform(0.0, 1.0, size=(16, 12))
        got = gaussian_filter(RasterImage(pix), 1.5).pixels
        blur_err = max(blur_err, float(np.abs(got - brute_blur(pix, 1.5)).max()))

    dists = []
    for seed in range(3):
        spec = SynthSpec(dim=2, n_rods=6, length_range=(30.0, 55.0),
                         ortho_noise_std=0.0, seed=seed)
        raster, _, _ = generate_image(spec)
        cloud = extract_nodes(raster, PipelineParams())
        rods, _ = _place_rods(spec, np.random.default_rng(spec.seed))
        for node in cloud.nodes:
            p = node.loc
            dists.append(min(segment_distance(p, p, p0, p1) for p0, p1 in rods))
    dists = np.array(dists)
    frac1 = float((dists <= 1.0).mean())
    worst = float(dists.max())
    ok = blur_err <= 1e-9 and frac1 >= 0.95 and worst <= 3.0
    report(7, "image pipeline", ok,
           f"blur err {blur_err:.2e}, {100 * frac1:.1f}% of {len(dists)} nodes within 1px, worst {worst:.2f}px")


def test_criterion_08_metric_identities():
    hand_ok = (
        dice(12, 0, 0) == 1.0
        and dice(1, 2, 1) == 0.4
        and grouping_accuracy([{i for i in range(6)}, {i for i in range(6, 10)}],
                              [set(range(10))]) == (0.6, 6, 4, 4)
        and counting_accuracy([set(range(5)), set(range(5, 10))] +
                              [{10 + i} for i in range(19)],
                              [set(range(10))] + [{10 + i} for i in range(19)])
        == (40.0 / 41.0, 20, 1, 0)
    )

    rng = np.random.default_rng(23)
    oracle_ok = True
    for _ in range(100):
        labels_p = rng.integers(0, 5, size=12)
        labels_t = rng.integers(0, 5, size=12)
        labels_p[:5] = np.arange(5)  # keep all five groups non-empty
        labels_t[:5] = np.arange(5)
        pred = [set(np.nonzero(labels_p == g)[0].tolist()) for g in range(5)]
        truth = [set(np.nonzero(labels_t == g)[0].tolist()) for g in range(5)]
        overlap = np.array([[len(p & t) for t in truth] for p in pred])
        best = max(sum(overlap[i, pi] for i, pi in enumerate(perm))
                   for perm in itertools.permutations(range(5)))
        matches = match_clusters(pred, truth)
        total = sum(ov for _, _, ov in matches)
        one_to_one = (len({i for i, _, _ in matches}) == len(matches)
                      and len({j for _, j, _ in matches}) == len(matches))
        if total != best or not one_to_one or any(ov <= 0 for _, _, ov in matches):
            oracle_ok = False
            break
    ok = hand_ok and oracle_ok
    report(8, "metric identities", ok,
           f"hand examples {'exact' if hand_ok else 'WRONG'}, "
           f"assignment matches 120-permutation oracle on 100 matrices: {oracle_ok}")


def fuzz_cloud(t, rng):
    kind = t % 5
    if kind == 0:
        spec = SynthSpec(dim=2, n_rods=1 + (t // 5) % 8, seed=1000 + t)
        cloud, _ = generate_cloud(spec)
        return cloud
    if kind == 1:
        n = (t // 5) % 5
        locs = rng.uniform(0.0, 50.0, size=(n, 2))
        return PointCloud([Node(i, locs[i]) for i in range(n)], 2)
    if kind == 2:
        n = 5 + (t // 5) % 30
        locs = rng.uniform(0.0, 80.0, size=(n, 3))
        return PointCloud([Node(i, locs[i]) for i in range(n)], 3)
    if kind == 3:
        # exactly collinear chains, some sharing one infinite line
        nodes = []
        n_chains = 1 + t % 3
        for c in range(n_chains):
            m = 5 + (t // 3) % 9
            start = np.array([c * 100.0, c * 3.0])
            step = np.array([3.0 + (t % 4), 0.0])
            for k in range(m):
                nodes.append(Node(len(nodes), start + k * step))
        return PointCloud(nodes, 2)
    n_rods = 1 + (t // 5) % 5
    spec = SynthSpec(dim=2, n_rods=n_rods,
                     crossings=1 if n_rods >= 2 and t % 2 else 0,
                     intensity_valley=0.7 if t % 3 == 0 else None,
                     seed=2000 + t)
    _, cloud, _ = generate_image(spec)
    return cloud


def check_result(cloud, result, limits):
    seen = sorted(i for g in result.groups for i in g) + sorted(result.outliers)
    if sorted(seen) != list(range(len(cloud))):
        return "groups and outliers do not partition the ids"
    for g, fit, forced in zip(result.groups, result.per_group, result.forced):
        if fit is None:
            continue
        if fit.extent > limits.size_limit + 1e-9:
            return f"accepted group spans {fit.extent:.2f}"
        if not forced and fit.std > limits.std_limit + 1e-9:
            return f"accepted group std {fit.std:.2f}"
        if (not forced and limits.check_eccentricity and len(g) > 3
                and fit.eccentricity < limits.ecc_limit - 1e-9):
            return f"accepted group eccentricity {fit.eccentricity:.3f}"
    return None


def test_criterion_09_fuzzed_invariants():
    rng = np.random.default_rng(3)
    limits = StoppingLimits()
    t0 = time.perf_counter()
    for t in range(500):
        cloud = fuzz_cloud(t, rng)
        result = lcuts(cloud)
        why = check_result(cloud, result, limits)
        assert why is None, f"trial {t}: {why}"

        again = lcuts(cloud)
        assert again.groups == result.groups, f"trial {t}: groups not deterministic"
        assert again.outliers == result.outliers, f"trial {t}: outliers not deterministic"
        assert again.forced == result.forced, f"trial {t}: flags not deterministic"

        if t % 10 == 0 and len(cloud) > 1:
            ids = rng.permutation(len(cloud))
            nodes = [Node(k, cloud.nodes[i].loc, intensity=cloud.nodes[i].intensity)
                     for k, i in enumerate(ids)]
            shuffled = PointCloud(nodes, cloud.dim, image=cloud.image)
            r2 = lcuts(shuffled)
            mapped = sorted(sorted(int(ids[i]) for i in g) for g in r2.groups)
            assert mapped == sorted(result.groups), f"trial {t}: not permutation-equivariant"
            assert sorted(int(ids[o]) for o in r2.outliers) == result.outliers, \
                f"trial {t}: outliers not permutation-equivariant"
    dt = time.perf_counter() - t0
    report(9, "fuzzed structural invariants", True,
           f"500 clouds: partition, size/std/eccentricity bounds, determinism, "
           f"relabeling equivariance, {dt:.1f}s")


def test_criterion_10_end_to_end_determinism(tmp_path):
    spec_path = tmp_path / "spec.cfg"
    spec_path.write_text("dim = 2\nnRods = 60\nseed = 7\n")
    runs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        for argv in (["synth", spec_path, d / "c"],
                     ["cluster", d / "c.csv", d / "pred.json"],
                     ["evaluate", d / "pred.json", d / "c.csv", d / "m.json"],
                     ["render", d / "pred.json", d / "p.svg"]):
            proc = subprocess.run([sys.executable, "-m", "lcuts", "--quiet",
                                   *map(str, argv)], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        runs.append([(d / name).read_bytes()
                     for name in ("c.csv", "c.pgm", "pred.json", "m.json", "p.svg")])
    identical = runs[0] == runs[1]

    spec = SynthSpec(dim=2, n_rods=60, seed=7)
    cloud, _ = generate_cloud(spec)
    big_enough = len(cloud) >= 600
    t0 = time.perf_counter()
    lcuts(cloud)
    dt = time.perf_counter() - t0
    ok = identical and big_enough and dt < 5.0
    report(10, "end-to-end determinism and speed", ok,
           f"artifacts byte-identical: {identical}, {len(cloud)} nodes clustered in {dt:.2f}s")
