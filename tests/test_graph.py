import math

import numpy as np
import pytest

from lcuts.direction import VotingParams, assign_all_directions
from lcuts.errors import InputError, MissingDataError
from lcuts.geometry import Node, PointCloud
from lcuts.graph import (GraphParams, SparseGraph, build_adjacency,
                         intensity_threshold, segment_min_intensity)
from lcuts.raster import RasterImage, bilinear_sample
from lcuts.spectral import component_arrays
from lcuts.synth import SynthSpec, generate_cloud, generate_image
from oracles import (hop_neighborhood, pairwise_distance, segment_min_scalar,
                     weight_direction, weight_distance, weight_intensity)
from scipy import sparse
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
    img = RasterImage(rng.uniform(0.0, 1.0, size=(h, w)))
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
    assert (p >= 0).all() and (q >= 0).all() and (p <= hi).all() and (q <= hi).all()
    for step in (0.5, 0.25, 0.3, 1.0, 7.0):
        got = segment_min_intensity(img, p, q, step)
        expected = [segment_min_scalar(img, a, b, step) for a, b in zip(p, q)]
        assert got.shape == (len(p),)
        assert (got == np.array(expected)).all(), step
    assert segment_min_intensity(img, np.zeros((0, 2)), np.zeros((0, 2)), 0.5).shape == (0,)


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


def assert_canonical(graph):
    csr = graph.csr
    assert csr.has_sorted_indices and csr.has_canonical_format
    assert (csr.data != 0.0).all()
    assert not csr.diagonal().any()
    assert (csr != csr.T).nnz == 0


def assert_sparse_equals_dense(graph, w, rng):
    """Every read of ``graph`` equals the same read of its dense matrix ``w``
    as bytes, and its components are those of the dense matrix."""
    n = len(w)
    assert graph.n == n and graph.weights.tobytes() == w.tobytes()
    subsets = [[], list(range(n)), rng.permutation(n)]
    if n:
        subsets += [[int(rng.integers(n))],
                    rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)]
    for ids in subsets:
        # A list of ids or an array of them, as given.
        sub = graph.restrict(ids)
        ids = np.asarray(ids, dtype=np.int64)
        assert type(sub) is np.ndarray and sub.dtype == np.float64
        assert sub.shape == (len(ids), len(ids))
        assert sub.tobytes() == w[np.ix_(ids, ids)].tobytes()
    perm = rng.permutation(n)
    rank = np.argsort(perm)
    moved = graph.permuted(perm)
    assert_canonical(moved)
    assert moved.weights.tobytes() == w[np.ix_(rank, rank)].tobytes()
    assert b"".join(row.tobytes() for row in graph.rows()) == w.tobytes()
    assert ([c.tolist() for c in component_arrays(graph.csr)]
            == [c.tolist() for c in component_arrays(w)])


def test_sparse_graph_equals_dense_on_fuzz_corpus():
    # Replays criterion 09's corpus draw for draw; the dense matrix is built
    # here by scattering the CSR entries, as build_adjacency used to.
    rng = np.random.default_rng(3)
    pick = np.random.default_rng(11)
    for t in range(500):
        cloud = fuzz_cloud(t, rng)
        if t % 10 == 0 and len(cloud) > 1:
            rng.permutation(len(cloud))
        if len(cloud) == 0:
            continue
        graph = build_adjacency(assign_all_directions(cloud, VotingParams()), GraphParams())
        assert_canonical(graph)
        coo = graph.csr.tocoo()
        w = np.zeros((len(cloud), len(cloud)))
        w[coo.row, coo.col] = coo.data
        assert_sparse_equals_dense(graph, w, pick)


def test_sparse_graph_equals_dense_on_random_matrices():
    rng = np.random.default_rng(12)
    for n in (0, 1, 2, 5, 40):
        w = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
        w[w < 0.6] = 0.0
        w = w + w.T
        graph = SparseGraph(w)
        assert_canonical(graph)
        assert_sparse_equals_dense(graph, w, rng)
        assert_sparse_equals_dense(SparseGraph(sparse.coo_array(w)), w, rng)


def test_sparse_graph_validation():
    with pytest.raises(InputError):
        SparseGraph(np.array([[0.0, 0.5], [0.4, 0.0]]))  # asymmetric
    with pytest.raises(InputError):
        SparseGraph(np.array([[0.1, 0.5], [0.5, 0.0]]))  # nonzero diagonal
    with pytest.raises(InputError):
        SparseGraph(np.array([[0.0, 1.5], [1.5, 0.0]]))  # out of range
    with pytest.raises(InputError):
        SparseGraph(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    with pytest.raises(InputError):
        SparseGraph(np.zeros((2, 3)))
    assert SparseGraph(np.zeros((0, 0))).n == 0
    # An explicit zero and an unsorted row are put in canonical form on a
    # copy; the caller's matrix is left as it was.
    given = sparse.csr_array((np.array([0.5, 0.0, 0.5]), np.array([2, 1, 0]),
                              np.array([0, 2, 2, 3])), shape=(3, 3))
    graph = SparseGraph(given)
    assert_canonical(graph)
    assert graph.csr.nnz == 2 and given.nnz == 3 and given.indices.tolist() == [2, 1, 0]
    assert np.array_equal(graph.weights, given.toarray())


def test_build_adjacency_on_a_field_equals_dense_scatter():
    cloud, _ = generate_cloud(SynthSpec(dim=2, n_rods=60, seed=1))
    cloud = assign_all_directions(cloud, VotingParams())
    graph = build_adjacency(cloud, PARAMS)
    assert_canonical(graph)
    coo = graph.csr.tocoo()
    w = np.zeros((len(cloud), len(cloud)))
    w[coo.row, coo.col] = coo.data
    assert_sparse_equals_dense(graph, w, np.random.default_rng(4))


def test_graph_params_validation():
    with pytest.raises(InputError):
        GraphParams(r=0.0)
    with pytest.raises(InputError):
        GraphParams(r=float("inf"))
    with pytest.raises(InputError):
        GraphParams(sigma_d=-1.0)
    with pytest.raises(InputError):
        GraphParams(intensity_sampling_step=0.0)
