import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from lcuts import spectral
from lcuts.direction import VotingParams, assign_all_directions
from lcuts.errors import DegenerateInputError, InputError, LcutsError
from lcuts.graph import GraphParams, build_adjacency
from lcuts.spectral import WEAK_LINK, component_arrays, ncut_bipartition, smallest_eigenpairs
import oracles
from oracles import ncut_value
from test_acceptance import fuzz_cloud


def components(w):
    """The components of a dense or sparse matrix, labelled from its stored
    entries as edges. Each component must come with the stored entries that
    have both ends in it, in their given order, numbered by position in it."""
    coo = sparse.coo_array(w)
    blocks = component_arrays(coo.shape[0], coo.row, coo.col, coo.data)
    for ids, rows, cols, vals in blocks:
        inside = np.isin(coo.row, ids) & np.isin(coo.col, ids)
        assert ids[rows].tolist() == coo.row[inside].tolist()
        assert ids[cols].tolist() == coo.col[inside].tolist()
        assert vals.tobytes() == coo.data[inside].tobytes()
    return [ids.tolist() for ids, *_ in blocks]


def graph_from(w):
    return np.asarray(w, dtype=np.float64)


def split(w):
    """``ncut_bipartition`` on the nonzero entries of the dense matrix ``w``,
    listed in row-major order as ``SparseGraph.edges()`` lists them."""
    rows, cols = np.nonzero(w)
    return ncut_bipartition(len(w), rows, cols, w[rows, cols])


# Relative bound on the difference between the sweep's ncut, summed from the
# edges, and the dense reference's, summed from the rows of the matrix. The
# largest difference measured on the benchmark inputs is 8.2e-16.
NCUT_REL = 1e-15


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
        split(graph_from(np.zeros((1, 1))))


def test_bipartition_raises_on_isolated_node():
    # Node 0 has no edge, so its degree is 0 and its row of D^(-1/2) would
    # be infinite; the split stops at the degrees.
    w = np.zeros((3, 3))
    w[1, 2] = w[2, 1] = 0.5
    with pytest.raises(DegenerateInputError):
        split(graph_from(w))


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
    part = split(graph_from(w))
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
        part = split(g)
        best_val, best_side = brute_force_ncut(w)
        got_side = part.group_a if 0 in part.group_a else part.group_b
        assert got_side == best_side
        assert part.ncut == pytest.approx(best_val, abs=1e-9)


def test_bipartition_breaks_sweep_ties_by_balance_then_ids(monkeypatch):
    # Unit weights make cuts and associations exact integers, so complete
    # graphs and cycles tie many thresholds exactly. The chosen threshold is
    # the most balanced, then the one with the lowest sorted id list on the
    # side of node 0, then the lowest; the sweep order is read back from the
    # eigenvector the solver returned.
    solved = []
    solve = spectral._lowest_eigenpairs

    def recording(matrix, k):
        solved.append(solve(matrix, k))
        return solved[-1]

    monkeypatch.setattr(spectral, "_lowest_eigenpairs", recording)
    rng = np.random.default_rng(31)
    broken = 0
    for n in range(3, 11):
        cycle = np.zeros((n, n))
        cycle[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        for w in (1.0 - np.eye(n), cycle + cycle.T):
            perm = rng.permutation(n)
            w = w[np.ix_(perm, perm)]
            part = split(w)
            deg = w.sum(axis=1)
            order = np.argsort(1.0 / np.sqrt(deg) * solved[-1][1][:, 1], kind="stable")
            ncuts = [ncut_value(w, order[: k + 1], order[k + 1 :]) for k in range(n - 1)]
            tied = [k for k in range(n - 1) if ncuts[k] == min(ncuts)]

            def side_of_zero(k):
                side = sorted(order[: k + 1].tolist())
                return side if 0 in side else sorted(order[k + 1 :].tolist())

            k = min(tied, key=lambda k: (-min(k + 1, n - k - 1), side_of_zero(k), k))
            assert {part.group_a, part.group_b} == {frozenset(order[: k + 1].tolist()),
                                                    frozenset(order[k + 1 :].tolist())}
            broken += len({(min(t + 1, n - t - 1), tuple(side_of_zero(t))) for t in tied}) > 1
    assert broken  # some ties were broken by the rule, not by the sweep


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
    p1 = split(g1)
    p2 = split(g2)
    assert p1.group_a == p2.group_a and p1.group_b == p2.group_b
    assert p1.ncut == pytest.approx(p2.ncut, abs=1e-12)
    again = split(g1)
    assert again.group_a == p1.group_a and again.ncut == p1.ncut


def test_bipartition_ncut_matches_ncut_value():
    # The ncut sums the crossing edges and the degrees of the edge list;
    # the dense reference sums rows of the matrix, in another order.
    rng = np.random.default_rng(55)
    w = np.triu(rng.uniform(0.1, 1.0, size=(10, 10)), 1)
    w = w + w.T
    g = graph_from(w)
    part = split(g)
    want = ncut_value(g, part.group_a, part.group_b)
    assert abs(part.ncut - want) <= NCUT_REL * want


def assert_equals_dense_reference(w):
    """The split of ``w`` equals the dense reference's split, and its ncut
    agrees within NCUT_REL."""
    got, want = split(w), oracles.ncut_bipartition(w)
    assert {got.group_a, got.group_b} == {want.group_a, want.group_b}
    assert abs(got.ncut - want.ncut) <= NCUT_REL * want.ncut


def test_bipartition_equals_dense_reference():
    # Random connected graphs of several densities and weight spreads, and
    # the complete graphs and cycles of the tie test.
    rng = np.random.default_rng(23)
    for t in range(300):
        n = int(rng.integers(2, 60))
        w = rng.uniform(0.0, 1.0, size=(n, n)) ** int(rng.integers(1, 12))
        w[rng.random((n, n)) < rng.uniform(0.0, 0.9)] = 0.0
        path = rng.permutation(n)
        w[path[:-1], path[1:]] = rng.uniform(1e-3, 1.0, n - 1)  # a path keeps it connected
        w = np.maximum(w, w.T)
        np.fill_diagonal(w, 0.0)
        assert_equals_dense_reference(w)
    for n in range(3, 11):
        cycle = np.zeros((n, n))
        cycle[np.arange(n), (np.arange(n) + 1) % n] = 1.0
        for w in (1.0 - np.eye(n), cycle + cycle.T):
            perm = rng.permutation(n)
            assert_equals_dense_reference(w[np.ix_(perm, perm)])


def test_bipartition_refuses_an_oversized_block(monkeypatch):
    # A block whose Laplacian would pass the limit raises before anything
    # is built; one at the limit is split.
    w = two_cliques(3, 3, inter=0.1)
    monkeypatch.setattr(spectral, "MAX_LAPLACIAN_BYTES", 8 * 6 * 6 - 1)
    with pytest.raises(LcutsError, match="block of 6 nodes"):
        split(w)
    monkeypatch.setattr(spectral, "MAX_LAPLACIAN_BYTES", 8 * 6 * 6)
    assert split(w).group_a == frozenset(range(3))


def test_bipartition_memory_is_one_laplacian():
    # The normalized Laplacian, solved in place, is the only n x n array.
    n = 1500
    rng = np.random.default_rng(4)
    rows, cols = np.nonzero(np.triu(rng.random((n, n)) < 0.01, 1))
    path = rng.permutation(n)
    rows, cols = np.concatenate((rows, path[:-1])), np.concatenate((cols, path[1:]))
    key = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    rows, cols = key // n, key % n
    vals = rng.uniform(0.1, 1.0, rows.size)
    rows, cols, vals = np.concatenate((rows, cols)), np.concatenate((cols, rows)), np.tile(vals, 2)
    ncut_bipartition(n, rows, cols, vals)  # loads the LAPACK routine outside the trace
    tracemalloc.start()
    try:
        ncut_bipartition(n, rows, cols, vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


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
