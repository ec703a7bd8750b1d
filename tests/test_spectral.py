import itertools

import numpy as np
import pytest
from scipy import sparse

from lcuts.direction import VotingParams, assign_all_directions
from lcuts.errors import DegenerateInputError, InputError
from lcuts.graph import GraphParams, build_adjacency
from lcuts.spectral import WEAK_LINK, component_arrays, ncut_bipartition, ncut_value, smallest_eigenpairs
import oracles
from test_acceptance import fuzz_cloud


def components(w):
    return [c.tolist() for c in component_arrays(w)]


def graph_from(w):
    return np.asarray(w, dtype=np.float64)


def two_cliques(n_a, n_b, intra=0.9, inter=0.0, rng=None):
    n = n_a + n_b
    w = np.zeros((n, n))
    for i, j in itertools.combinations(range(n_a), 2):
        w[i, j] = w[j, i] = intra
    for i, j in itertools.combinations(range(n_a, n), 2):
        w[i, j] = w[j, i] = intra
    if inter > 0.0:
        w[0, n_a] = w[n_a, 0] = inter
    return graph_from(w)


def brute_force_ncut(w):
    # exhaustive scan over all bipartitions containing node 0 on side A
    n = w.shape[0]
    deg = w.sum(axis=1)
    total = deg.sum()
    best_val, best_side = np.inf, None
    for bits in range(1, 2 ** (n - 1)):
        side = [0] + [i for i in range(1, n) if bits & (1 << (i - 1))]
        if len(side) == n:
            continue
        mask = np.zeros(n, dtype=bool)
        mask[side] = True
        cut = w[np.ix_(mask, ~mask)].sum()
        assoc_a = deg[mask].sum()
        assoc_b = total - assoc_a
        if assoc_a == 0.0 or assoc_b == 0.0:
            continue
        val = cut / assoc_a + cut / assoc_b
        if val < best_val:
            best_val, best_side = val, frozenset(side)
    return best_val, best_side


def test_ncut_value_disconnected_is_zero():
    g = two_cliques(2, 2)
    assert ncut_value(g, {0, 1}, {2, 3}) == 0.0


def test_ncut_value_k4():
    w = np.ones((4, 4)) - np.eye(4)
    g = graph_from(w)
    # cut = 4, each side's association = 6
    assert ncut_value(g, {0, 1}, {2, 3}) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_ncut_value_errors():
    g = two_cliques(2, 2)
    with pytest.raises(DegenerateInputError):
        ncut_value(g, set(), {0, 1, 2, 3})
    with pytest.raises(InputError):
        ncut_value(g, {0, 1}, {1, 2, 3})  # overlap
    with pytest.raises(InputError):
        ncut_value(g, {0}, {2, 3})  # not a partition
    w = np.zeros((3, 3))
    w[1, 2] = w[2, 1] = 0.5
    with pytest.raises(DegenerateInputError):
        ncut_value(graph_from(w), {0}, {1, 2})  # isolated side has zero assoc


def test_smallest_eigenpairs_identity():
    vals, vecs = smallest_eigenpairs(np.eye(3), 2)
    assert np.allclose(vals, [1.0, 1.0], atol=1e-12)
    assert np.allclose(vecs.T @ vecs, np.eye(2), atol=1e-12)


def test_smallest_eigenpairs_diagonal():
    vals, vecs = smallest_eigenpairs(np.diag([3.0, 1.0, 2.0]), 1)
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(vecs[1, 0]) == pytest.approx(1.0, abs=1e-12)


def test_smallest_eigenpairs_vs_power_iteration():
    # oracle: shift to make the smallest eigenvalues the largest of (cI - M),
    # then deflated power iteration
    rng = np.random.default_rng(31)
    a = rng.normal(size=(12, 12))
    m = (a + a.T) / 2.0
    c = float(np.abs(m).sum(axis=1).max()) + 1.0
    shifted = c * np.eye(12) - m
    oracle_vals, oracle_vecs = [], []
    work = shifted.copy()
    for _ in range(3):
        v = rng.normal(size=12)
        for _ in range(20000):
            v = work @ v
            v /= np.linalg.norm(v)
        lam = float(v @ work @ v)
        oracle_vals.append(c - lam)
        oracle_vecs.append(v)
        work = work - lam * np.outer(v, v)
    vals, vecs = smallest_eigenpairs(m, 3)
    assert np.allclose(vals, oracle_vals, atol=1e-8)
    for k in range(3):
        assert min(np.linalg.norm(vecs[:, k] - oracle_vecs[k]),
                   np.linalg.norm(vecs[:, k] + oracle_vecs[k])) <= 1e-6


def test_smallest_eigenpairs_errors():
    with pytest.raises(InputError):
        smallest_eigenpairs(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)  # not symmetric
    with pytest.raises(InputError):
        smallest_eigenpairs(np.eye(3), 4)
    with pytest.raises(InputError):
        smallest_eigenpairs(np.eye(3), 0)
    with pytest.raises(InputError):
        smallest_eigenpairs(np.zeros((2, 3)), 1)


def test_smallest_eigenpairs_rejects_non_finite():
    for bad in (np.nan, np.inf):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(InputError, match="finite"):
            smallest_eigenpairs(m, 2)


def test_smallest_eigenpairs_match_full_solve():
    # The partial solve gives the smallest pairs of the full one, on
    # normalized Laplacians of random graphs, up to each vector's sign.
    rng = np.random.default_rng(5)
    for n in (2, 3, 10, 60):
        w = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
        w = w + w.T
        dinv = 1.0 / np.sqrt(w.sum(axis=1))
        lap = np.eye(n) - w * np.multiply.outer(dinv, dinv)
        vals, vecs = smallest_eigenpairs(lap, 2)
        want_vals, want_vecs = np.linalg.eigh(lap)
        assert np.allclose(vals, want_vals[:2], atol=1e-12)
        for k in range(2):
            assert abs(abs(vecs[:, k] @ want_vecs[:, k]) - 1.0) <= 1e-9


def test_bipartition_needs_two_nodes():
    with pytest.raises(DegenerateInputError):
        ncut_bipartition(graph_from(np.zeros((1, 1))))


def test_bipartition_raises_on_isolated_node():
    # Node 0 has no edge, so its degree is 0 and its row of D^(-1/2) would
    # be infinite; the split stops at the degrees.
    w = np.zeros((3, 3))
    w[1, 2] = w[2, 1] = 0.5
    with pytest.raises(DegenerateInputError):
        ncut_bipartition(graph_from(w))


def test_components_sorted_by_smallest_member():
    w = np.zeros((6, 6))
    for i, j in ((0, 4), (1, 2), (2, 5)):
        w[i, j] = w[j, i] = 0.5
    assert components(w) == [[0, 4], [1, 2, 5], [3]]


def test_components_link_at_weak_link_and_above():
    for weight, comps in ((1e-13, [[0], [1]]), (WEAK_LINK, [[0, 1]])):
        w = np.array([[0.0, weight], [weight, 0.0]])
        assert components(w) == comps
        assert components(sparse.csr_matrix(w)) == comps


def assert_components_match_oracle(w):
    want = oracles.components(w)
    assert components(w) == want
    assert components(sparse.csr_matrix(w)) == want


def test_components_match_oracle_on_fuzz_corpus():
    # Replays criterion 09's corpus draw for draw.
    rng = np.random.default_rng(3)
    for t in range(500):
        cloud = fuzz_cloud(t, rng)
        if t % 10 == 0 and len(cloud) > 1:
            rng.permutation(len(cloud))
        if len(cloud) == 0:
            continue
        cloud = assign_all_directions(cloud, VotingParams())
        assert_components_match_oracle(build_adjacency(cloud, GraphParams()).weights)


def test_components_match_oracle_across_weak_link():
    rng = np.random.default_rng(17)
    below, at, above = np.nextafter(WEAK_LINK, 0.0), WEAK_LINK, np.nextafter(WEAK_LINK, 1.0)
    for t in range(400):
        n = int(rng.integers(1, 80))
        density = rng.uniform(0.0, 4.0 / n)
        w = np.where(rng.random((n, n)) < density,
                     rng.choice([1e-13, below, at, above, 0.5], size=(n, n)), 0.0)
        np.fill_diagonal(w, 0.0)
        if t % 2:
            w = np.maximum(w, w.T)
        # an asymmetric matrix links i and j through either direction
        assert_components_match_oracle(w)


def test_components_isolated_and_tiny_graphs():
    for n in (1, 2, 5):
        assert_components_match_oracle(np.zeros((n, n)))
    assert components(np.zeros((0, 0))) == []
    assert components(np.zeros((1, 1))) == [[0]]
    assert components(np.array([[0.0, 0.5], [0.5, 0.0]])) == [[0, 1]]
    w = np.zeros((6, 6))
    w[1, 4] = w[4, 1] = 0.5
    assert components(w) == [[0], [1, 4], [2], [3], [5]]
    assert_components_match_oracle(w)
    w[2, 2] = w[5, 5] = 0.5  # a self-loop links a node to nothing else
    assert components(w) == [[0], [1, 4], [2], [3], [5]]
    assert_components_match_oracle(w)


def test_components_adversarial_id_orders():
    n = 10_000
    path = np.random.default_rng(5).permutation(n)
    w = sparse.coo_matrix((np.full(n - 1, 0.5), (path[:-1], path[1:])), shape=(n, n)).tocsr()
    assert components(w) == [list(range(n))]
    assert components(w.T) == [list(range(n))]
    w = w + w.T
    assert components(w) == [list(range(n))]
    # two permuted paths, interleaved ids
    half = w.tolil()
    half[path[n // 2 - 1], path[n // 2]] = half[path[n // 2], path[n // 2 - 1]] = 0.0
    assert_components_match_oracle(half.tocsr())
    # a star whose centre has the largest id, plus one isolated node
    m = 2_000
    star = np.zeros((m + 1, m + 1))
    star[m - 1, : m - 1] = star[: m - 1, m - 1] = 0.5
    assert components(star) == [list(range(m)), [m]]
    assert_components_match_oracle(star)


def test_bipartition_path_cuts_weak_edge():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[1, 2] = w[2, 1] = 0.1
    part = ncut_bipartition(graph_from(w))
    assert part.group_a == frozenset({0, 1})
    assert part.group_b == frozenset({2})


def test_bipartition_matches_brute_force():
    rng = np.random.default_rng(77)
    for _ in range(30):
        n_a = int(rng.integers(2, 7))
        n_b = int(rng.integers(2, 7))
        n = n_a + n_b
        w = np.zeros((n, n))
        for i, j in itertools.combinations(range(n), 2):
            same = (i < n_a) == (j < n_a)
            w[i, j] = w[j, i] = rng.uniform(0.5, 1.0) if same else rng.uniform(0.0, 0.01)
        w[0, n_a] = w[n_a, 0] = max(w[0, n_a], 0.005)  # keep it connected
        g = graph_from(w)
        part = ncut_bipartition(g)
        best_val, best_side = brute_force_ncut(w)
        got_side = part.group_a if 0 in part.group_a else part.group_b
        assert got_side == best_side
        assert part.ncut == pytest.approx(best_val, abs=1e-9)


def test_bipartition_scale_invariant_and_deterministic():
    rng = np.random.default_rng(13)
    a = rng.uniform(0.0, 1.0, size=(14, 14))
    w = np.triu(a, 1)
    w[w < 0.35] = 0.0
    w = w + w.T
    for i in range(13):
        w[i, i + 1] = max(w[i, i + 1], 0.2)
        w[i + 1, i] = w[i, i + 1]
    g1 = graph_from(w)
    g2 = graph_from(0.5 * w)
    p1 = ncut_bipartition(g1)
    p2 = ncut_bipartition(g2)
    assert p1.group_a == p2.group_a and p1.group_b == p2.group_b
    assert p1.ncut == pytest.approx(p2.ncut, abs=1e-12)
    again = ncut_bipartition(g1)
    assert again.group_a == p1.group_a and again.ncut == p1.ncut


def test_bipartition_ncut_matches_ncut_value():
    rng = np.random.default_rng(55)
    w = np.triu(rng.uniform(0.1, 1.0, size=(10, 10)), 1)
    w = w + w.T
    g = graph_from(w)
    part = ncut_bipartition(g)
    assert part.ncut == ncut_value(g, part.group_a, part.group_b)


def test_normalized_laplacian_spectrum_bounds():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        w = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
        w[w < 0.3] = 0.0
        w = w + w.T
        for i in range(n - 1):
            w[i, i + 1] = max(w[i, i + 1], 0.1)  # connected backbone
            w[i + 1, i] = w[i, i + 1]
        deg = w.sum(axis=1)
        dinv = 1.0 / np.sqrt(deg)
        lap = np.eye(n) - w * np.outer(dinv, dinv)
        vals, _ = smallest_eigenpairs(lap, n)
        assert vals.min() >= -1e-8
        assert vals.max() <= 2.0 + 1e-8
        assert abs(vals[0]) <= 1e-8  # connected graph: lambda_0 = 0
