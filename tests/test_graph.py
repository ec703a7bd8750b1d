import math
import tracemalloc

import numpy as np
import pytest

from lcuts.direction import VotingParams, assign_all_directions
from lcuts.errors import InputError, MissingDataError
from lcuts.geometry import Node, PointCloud
from lcuts.graph import (MIN_SAMPLING_STEP, SAMPLE_BLOCK, GraphParams, SparseGraph, build_adjacency,
                         intensity_threshold, segment_min_intensity)
from lcuts.raster import RasterImage, bilinear_sample
from lcuts.spectral import component_arrays
from lcuts.synth import SynthSpec, generate_cloud, generate_image
from oracles import (adjacency, block_edges, canonical_csr, hop_neighborhood, pairwise_distance,
                     segment_min_by_count, segment_min_scalar, sparse_graph, weight_direction,
                     weight_distance, weight_intensity)
from test_acceptance import fuzz_cloud

PARAMS = GraphParams()


def test_weight_distance_values():
    assert weight_distance(0.0, PARAMS) == 1.0
    assert weight_distance(61.0, PARAMS) == 0.0  # beyond the hard cutoff r=60
    assert weight_distance(10.0, PARAMS) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert weight_distance(60.0, PARAMS) > 0.0


def test_weight_distance_monotone_and_vectorized():
    d = np.linspace(0.0, 60.0, 200)
    w = weight_distance(d, PARAMS)
    assert np.all(np.diff(w) < 0.0)
    assert np.all((w >= 0.0) & (w <= 1.0))
    with pytest.raises(InputError):
        weight_distance(-0.5, PARAMS)


def test_weight_direction_values():
    ex = np.array([1.0, 0.0])
    ey = np.array([0.0, 1.0])
    assert weight_direction(ex, ex, PARAMS) == 1.0
    assert weight_direction(ex, -ex, PARAMS) == 1.0  # antiparallel is still aligned
    assert weight_direction(ex, ey, PARAMS) == pytest.approx(math.exp(-4.0), abs=1e-12)
    with pytest.raises(InputError):
        weight_direction(np.array([2.0, 0.0]), ex, PARAMS)


def test_weight_direction_monotone_in_angle():
    ex = np.array([1.0, 0.0])
    prev = 2.0
    for ang in np.linspace(0.0, np.pi / 2, 50):
        w = weight_direction(ex, np.array([np.cos(ang), np.sin(ang)]), PARAMS)
        assert w < prev or ang == 0.0
        prev = w


def intensity_cloud(vals):
    nodes = [Node(id=i, loc=np.array([float(i), 0.0]), intensity=v) for i, v in enumerate(vals)]
    return PointCloud(nodes, 2)


def test_intensity_threshold_values():
    assert intensity_threshold(intensity_cloud([0.6, 0.6, 0.6])) == pytest.approx(0.6, abs=1e-12)
    # midrange 0.5 minus population variance 0.25
    assert intensity_threshold(intensity_cloud([0.0, 1.0])) == pytest.approx(0.25, abs=1e-12)
    rng = np.random.default_rng(2)
    vals = rng.uniform(0.4, 1.0, 500)
    # midrange -> 0.7, variance -> 0.36/12 = 0.03
    assert intensity_threshold(intensity_cloud(vals)) == pytest.approx(0.67, abs=0.02)
    with pytest.raises(MissingDataError):
        intensity_threshold(intensity_cloud([0.5, None, 0.5]))


def gap_image():
    # bright field with a dark one-pixel column at x=5
    px = np.full((11, 11), 0.8)
    px[:, 5] = 0.1
    return RasterImage(px)


def test_weight_intensity_dark_valley():
    img = gap_image()
    cloud = PointCloud([Node(id=0, loc=np.array([2.0, 5.0]), intensity=0.8),
                        Node(id=1, loc=np.array([8.0, 5.0]), intensity=0.8)], 2, image=img)
    # oracle: dense sampling at 0.01 px along the same segment
    ts = np.linspace(0.0, 1.0, int(np.ceil(6.0 / 0.01)) + 1)
    xs = 2.0 + 6.0 * ts
    oracle_min = float(bilinear_sample(img, xs, np.full_like(xs, 5.0)).min())
    assert oracle_min == pytest.approx(0.1, abs=1e-12)
    assert weight_intensity(cloud, 0, 1, 0.25, PARAMS) == pytest.approx(oracle_min, abs=1e-12)
    # above the threshold the factor collapses to 1
    bright = RasterImage(np.full((11, 11), 0.8))
    cloud2 = cloud.with_image(bright)
    assert weight_intensity(cloud2, 0, 1, 0.25, PARAMS) == 1.0
    assert weight_intensity(cloud2, 1, 0, 0.25, PARAMS) == 1.0


def test_weight_intensity_requires_image():
    cloud = intensity_cloud([0.5, 0.5])
    with pytest.raises(MissingDataError):
        weight_intensity(cloud, 0, 1, 0.25, PARAMS)


def test_segment_min_intensity_endpoints_included():
    img = gap_image()
    # the second is a two-sample degenerate segment
    got = segment_min_intensity(img, np.array([[5.0, 2.0], [1.0, 1.0]]),
                                np.array([[5.0, 8.0], [1.0, 1.2]]), 0.5)
    assert got.shape == (2,)
    assert got == pytest.approx([0.1, 0.8], abs=1e-12)


def test_segment_min_intensity_matches_scalar_oracle():
    # the batched sampler must reproduce the one-segment oracle bit for bit
    rng = np.random.default_rng(17)
    h, w = 23, 31
    px = rng.uniform(0.0, 1.0, size=(h, w))
    px[-1, -1] = 0.0  # the darkest pixel: a segment ending there has its minimum at t = 1
    img = RasterImage(px)
    hi = np.array([w - 1.0, h - 1.0])
    p = rng.uniform(0.0, hi, size=(400, 2))
    q = rng.uniform(0.0, hi, size=(400, 2))
    q[:40, 0] = w - 1.0                   # ends on the last column
    q[40:80, 1] = h - 1.0                 # ends on the last row
    q[80:90] = hi                         # ends on the far corner
    p[90:100] = hi                        # starts there
    q[100:130] = p[100:130]               # zero length
    # integer starts and offsets of (3k, 4k) / 2, 5k / 2 px long: exact
    # multiples of a 0.5 or 0.25 px step
    k = rng.integers(1, 4, size=(60, 1))
    p[130:190] = rng.integers(0, 12, size=(60, 2))
    q[130:190] = p[130:190] + k * np.array([1.5, 2.0])
    q[190:200] = p[190:200] + k[:10] * np.array([0.5, 0.0])
    p[200:400:2], q[200:400:2] = q[200:400:2].copy(), p[200:400:2].copy()
    # a run of 40 equal 30 px segments: 3,001 samples each at a step of
    # 0.01 px, which spans several sample blocks
    run = np.column_stack([np.zeros(40), rng.integers(0, h, size=40)])
    # from near the origin to the dark far corner: the last sample lands
    # on it only at t = 1 exactly, not at (count - 1) * (1 / (count - 1))
    near = rng.uniform(0.0, 1.0, size=(20, 2))
    p = np.concatenate([p, run, near])
    q = np.concatenate([q, run + np.array([30.0, 0.0]), np.broadcast_to(hi, near.shape)])
    assert (p >= 0).all() and (q >= 0).all() and (p <= hi).all() and (q <= hi).all()
    assert 40 * 3001 > 5 * SAMPLE_BLOCK
    for step in (0.5, 0.25, 0.3, 1.0, 7.0, 0.01):
        got = segment_min_intensity(img, p, q, step)
        expected = [segment_min_scalar(img, a, b, step) for a, b in zip(p, q)]
        assert got.shape == (len(p),)
        assert (got == np.array(expected)).all(), step
        assert (got == segment_min_by_count(img, p, q, step)).all(), step
    assert segment_min_intensity(img, np.zeros((0, 2)), np.zeros((0, 2)), 0.5).shape == (0,)


def test_segment_min_intensity_memory_is_bounded():
    # 400 segments of 60 px from integer pixels, as extracted nodes give:
    # 6,001 samples each at the smallest step, 2.4 million in all. Sampling
    # them all at once takes about 330 MiB; the blocked pass stays under
    # a few MiB.
    rng = np.random.default_rng(23)
    img = RasterImage(rng.uniform(0.0, 1.0, size=(40, 80)))
    p = np.column_stack([np.arange(400) % 10, np.arange(400) // 10]).astype(np.float64)
    q = p + np.array([60.0, 0.0])
    tracemalloc.start()
    try:
        got = segment_min_intensity(img, p, q, MIN_SAMPLING_STEP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    assert (got[:20] == segment_min_by_count(img, p[:20], q[:20], MIN_SAMPLING_STEP)).all()


def test_build_adjacency_zero_beyond_cutoff():
    cloud = PointCloud([Node(id=0, loc=np.array([0.0, 0.0])),
                        Node(id=1, loc=np.array([61.0, 0.0]))], 2)
    w = build_adjacency(cloud, PARAMS).weights
    assert w[0, 1] == 0.0


def test_build_adjacency_collinear_pair_at_sigma():
    d = np.array([1.0, 0.0])
    cloud = PointCloud([Node(id=0, loc=np.array([0.0, 0.0]), dir=d),
                        Node(id=1, loc=np.array([10.0, 0.0]), dir=d)], 2)
    w = build_adjacency(cloud, PARAMS).weights
    assert w[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_build_adjacency_missing_direction_factor_is_one():
    cloud = PointCloud([Node(id=0, loc=np.array([0.0, 0.0])),
                        Node(id=1, loc=np.array([10.0, 0.0]))], 2)
    w = build_adjacency(cloud, PARAMS).weights
    assert w[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_build_adjacency_factor_product_oracle():
    # every entry must equal the product of the three scalar factors, exactly
    spec = SynthSpec(dim=2, n_rods=6, length_range=(25.0, 55.0), seed=11)
    _, cloud, _ = generate_image(spec)
    cloud = assign_all_directions(cloud, VotingParams())
    thresh = intensity_threshold(cloud)
    got = build_adjacency(cloud, PARAMS, thresh=thresh).weights
    n = len(cloud)
    expected = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            wd = weight_distance(pairwise_distance(cloud.nodes[i].loc, cloud.nodes[j].loc), PARAMS)
            di, dj = cloud.nodes[i].dir, cloud.nodes[j].dir
            wt = weight_direction(di, dj, PARAMS) if di is not None and dj is not None else 1.0
            wi = weight_intensity(cloud, i, j, thresh, PARAMS) if wd > 0.0 else 1.0
            expected[i, j] = wd * wt * wi
    assert np.abs(expected - got).max() == 0.0


def test_build_adjacency_intensity_factor_only_with_a_threshold():
    # The factor applies exactly when a threshold is passed, whatever the
    # cloud carries; a threshold without a bound image is refused.
    spec = SynthSpec(dim=2, n_rods=6, crossings=2, intensity_valley=0.7, seed=11)
    _, cloud, _ = generate_image(spec)
    cloud = assign_all_directions(cloud, VotingParams())
    plain = PointCloud.from_arrays(cloud.locs(), cloud.intensities(), cloud.dirs())
    for got, want in zip(build_adjacency(cloud, PARAMS).edges(), build_adjacency(plain, PARAMS).edges()):
        assert got.tobytes() == want.tobytes()
    w = build_adjacency(cloud, PARAMS).weights
    dimmed = build_adjacency(cloud, PARAMS, thresh=intensity_threshold(cloud)).weights
    assert (dimmed <= w).all() and (dimmed < w).any()
    with pytest.raises(MissingDataError, match="needs an image"):
        build_adjacency(plain, PARAMS, thresh=0.5)


def test_cutoffs_keep_pairs_at_exactly_the_radius():
    # integer offsets of integer length: the distance equals the radius exactly
    for offset, length in (((3.0, 4.0), 5.0), ((5.0, 12.0), 13.0), ((6.0, 8.0), 10.0),
                           ((2.0, 3.0, 6.0), 7.0)):
        dim = len(offset)
        cloud = PointCloud([Node(id=0, loc=np.zeros(dim)), Node(id=1, loc=np.array(offset))], dim)
        for radius, kept in ((length, True), (np.nextafter(length, 0.0), False)):
            w = build_adjacency(cloud, GraphParams(r=radius)).weights
            assert bool(w[0, 1] > 0.0) is kept, (offset, radius)
            nb = hop_neighborhood(cloud, 0, VotingParams(hops=1, hop_radius=radius))
            assert (nb.members == {1}) is kept, (offset, radius)


def test_cutoffs_on_integer_grids_vs_brute_force():
    # grids hold many pairs tied exactly at the radius
    grids = [(np.stack(np.meshgrid(np.arange(13.0), np.arange(13.0)), -1).reshape(-1, 2), 5.0),
             (np.stack(np.meshgrid(*[np.arange(7.0)] * 3), -1).reshape(-1, 3), 3.0)]
    for locs, radius in grids:
        n, dim = locs.shape
        cloud = PointCloud([Node(id=i, loc=p) for i, p in enumerate(locs)], dim)
        diff = locs[:, None, :] - locs[None, :, :]
        d2 = (diff * diff).sum(axis=-1)
        off_diag = ~np.eye(n, dtype=bool)
        w = build_adjacency(cloud, GraphParams(r=radius, sigma_d=radius)).weights
        assert np.array_equal(w > 0.0, (np.sqrt(d2) <= radius) & off_diag)
        params = VotingParams(hops=1, hop_radius=radius)
        for center in range(0, n, 7):
            expected = np.nonzero((d2[center] <= radius * radius) & off_diag[center])[0]
            assert hop_neighborhood(cloud, center, params).members == frozenset(expected.tolist())


def test_build_adjacency_exactly_symmetric():
    rng = np.random.default_rng(9)
    pts = rng.uniform(0.0, 80.0, size=(40, 3))
    cloud = assign_all_directions(
        PointCloud([Node(id=i, loc=p) for i, p in enumerate(pts)], 3), VotingParams(hop_radius=12.0))
    w = build_adjacency(cloud, PARAMS).weights
    assert np.array_equal(w, w.T)
    assert np.all(np.diagonal(w) == 0.0)
    assert w.min() >= 0.0 and w.max() <= 1.0


def assert_csr_triplets(n, edges, csr):
    """``edges`` lists the entries of the CSR arrays ``csr`` in order, bit
    for bit."""
    rows, cols, vals = edges
    indptr, indices, data = csr
    assert rows.tolist() == np.repeat(np.arange(n), np.diff(indptr)).tolist()
    assert cols.tolist() == indices.tolist() and vals.tobytes() == data.tobytes()


def assert_canonical(graph):
    """The edge list is int64, int64 and float64, read-only, row-major with
    no repeated position, off the diagonal, and has no zero entry; it is its
    own transpose."""
    n, (rows, cols, vals) = graph.n, graph.edges()
    assert rows.dtype == cols.dtype == np.int64 and vals.dtype == np.float64
    assert not (rows.flags.writeable or cols.flags.writeable or vals.flags.writeable)
    assert (np.diff(rows * n + cols) > 0).all()
    assert (rows != cols).all()
    assert_csr_triplets(n, graph.edges(), canonical_csr(n, rows, cols, vals))
    assert_csr_triplets(n, graph.edges(), canonical_csr(n, cols, rows, vals))


def assert_sparse_equals_dense(graph, w):
    """Every read of ``graph`` equals the same read of its dense matrix ``w``
    as bytes, and the components of its edges are those of the nonzero
    entries of the dense matrix."""
    n = len(w)
    assert graph.n == n and graph.weights.tobytes() == w.tobytes()
    rows, cols = np.nonzero(w)
    assert ([c.tolist() for c, *_ in component_arrays(n, *graph.edges())]
            == [c.tolist() for c, *_ in component_arrays(n, rows, cols, w[rows, cols])])


def test_sparse_graph_equals_dense_on_fuzz_corpus():
    # Replays criterion 09's corpus draw for draw; the dense matrix is built
    # here by scattering the edges, as build_adjacency used to.
    rng = np.random.default_rng(3)
    for t in range(500):
        cloud = fuzz_cloud(t, rng)
        if t % 10 == 0 and len(cloud) > 1:
            rng.permutation(len(cloud))
        if len(cloud) == 0:
            continue
        graph = adjacency(assign_all_directions(cloud, VotingParams()))
        assert_canonical(graph)
        rows, cols, vals = graph.edges()
        w = np.zeros((len(cloud), len(cloud)))
        w[rows, cols] = vals
        assert_sparse_equals_dense(graph, w)


def assert_edges_are_nonzero_entries(graph, w, rng):
    """``edges()`` lists the nonzero entries of ``w`` in row-major order,
    and the reference gather ``oracles.block_edges(graph, ids)`` those of
    ``w[np.ix_(ids, ids)]``."""
    n = len(w)
    want = np.nonzero(w)
    rows, cols, vals = graph.edges()
    assert rows.tolist() == want[0].tolist() and cols.tolist() == want[1].tolist()
    assert vals.tobytes() == w[want].tobytes()
    chosen = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
    for ids in ([], list(range(n)), [int(rng.integers(n))], rng.permutation(n), chosen,
                np.sort(chosen), np.sort(chosen).tolist()):
        block = w[np.ix_(ids, ids)]
        want = np.nonzero(block)
        rows, cols, vals = block_edges(graph, ids)
        assert rows.tolist() == want[0].tolist() and cols.tolist() == want[1].tolist()
        assert vals.tobytes() == block[want].tobytes()


def test_edges_are_nonzero_block_entries_on_fuzz_corpus():
    # Replays criterion 09's corpus draw for draw.
    rng = np.random.default_rng(3)
    pick = np.random.default_rng(13)
    for t in range(500):
        cloud = fuzz_cloud(t, rng)
        if t % 10 == 0 and len(cloud) > 1:
            rng.permutation(len(cloud))
        if len(cloud) == 0:
            continue
        graph = adjacency(assign_all_directions(cloud, VotingParams()))
        assert_edges_are_nonzero_entries(graph, graph.weights, pick)


def test_sparse_graph_equals_dense_on_random_matrices():
    rng = np.random.default_rng(12)
    for n in (0, 1, 2, 5, 40):
        w = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
        w[w < 0.6] = 0.0
        w = w + w.T
        graph = sparse_graph(w)
        assert_canonical(graph)
        assert_sparse_equals_dense(graph, w)


def assert_one_key_order(n, rows, cols, vals):
    """The constructor's edge list equals the CSR arrays of the (row,
    column) lexsort."""
    assert_csr_triplets(n, SparseGraph(n, rows, cols, vals).edges(), canonical_csr(n, rows, cols, vals))


def test_canonical_one_key_sort_equals_lexsort_on_fuzz_corpus():
    rng = np.random.default_rng(3)
    shuffle = np.random.default_rng(13)
    for t in range(500):
        cloud = fuzz_cloud(t, rng)
        if t % 10 == 0 and len(cloud) > 1:
            rng.permutation(len(cloud))
        rows, cols, vals = adjacency(assign_all_directions(cloud, VotingParams())).edges()
        order = shuffle.permutation(len(rows))
        assert_one_key_order(len(cloud), rows[order], cols[order], vals[order])


def test_canonical_one_key_sort_equals_lexsort_on_random_patterns():
    rng = np.random.default_rng(14)
    for n in (0, 1, 2, 3, 5, 40, 300):
        for density in (0.05, 0.5, 1.0):
            upper = np.triu(rng.uniform(size=(n, n)) < density, 1)
            rows, cols = np.nonzero(upper | upper.T)
            vals = rng.uniform(size=len(rows))
            vals[rng.uniform(size=len(rows)) < 0.2] = 0.0  # dropped by both
            order = rng.permutation(len(rows))
            assert_one_key_order(n, rows[order], cols[order], vals[order])
    # int32 ids whose row * n + column overflows 32 bits
    n = 100_000
    rows = np.array([n - 1, 70_000, 5, n - 2], dtype=np.int32)
    cols = np.array([n - 2, 5, 70_000, n - 1], dtype=np.int32)
    assert_one_key_order(n, rows, cols, np.array([0.25, 0.5, 0.5, 0.25]))


def test_sparse_graph_holds_copies_without_zeros():
    empty = np.zeros(0, dtype=np.int64)
    assert SparseGraph(0, empty, empty, np.zeros(0)).n == 0
    # The caller's arrays are copied, not held, and the zeros dropped.
    rows, cols, vals = np.array([1, 0, 0, 1]), np.array([0, 1, 1, 0]), np.array([0.5, 0.5, 0.0, 0.0])
    graph = SparseGraph(2, rows, cols, vals)
    vals[:] = 0.25
    assert [a.tolist() for a in graph.edges()] == [[0, 1], [1, 0], [0.5, 0.5]]
    assert_canonical(graph)


def test_build_adjacency_on_a_field_equals_dense_scatter():
    cloud, _ = generate_cloud(SynthSpec(dim=2, n_rods=60, seed=1))
    cloud = assign_all_directions(cloud, VotingParams())
    graph = build_adjacency(cloud, PARAMS)
    assert_canonical(graph)
    rows, cols, vals = graph.edges()
    w = np.zeros((len(cloud), len(cloud)))
    w[rows, cols] = vals
    assert_sparse_equals_dense(graph, w)


def test_graph_params_validation():
    with pytest.raises(InputError):
        GraphParams(r=0.0)
    with pytest.raises(InputError):
        GraphParams(r=float("inf"))
    with pytest.raises(InputError):
        GraphParams(sigma_d=-1.0)
    for step in (0.0, 1e-12, 1e-300, float("nan")):
        with pytest.raises(InputError, match="intensitySamplingStep must be >= 0.01 px"):
            GraphParams(intensity_sampling_step=step)
    assert GraphParams(intensity_sampling_step=MIN_SAMPLING_STEP).intensity_sampling_step == 0.01
