"""Normalized-cut bipartition of a weighted graph.

The relaxation follows the classic recipe: eigenvector of the second-smallest
eigenvalue of the symmetric normalized Laplacian, mapped back through
D^(-1/2), then an exhaustive sweep over the n-1 thresholds between
consecutive sorted entries picks the split with the smallest true Ncut.
``ncut_bipartition`` splits a connected graph, given as an edge list,
``(rows, cols, weights)`` arrays with every edge listed both ways, such as
``SparseGraph.edges()`` and ``component_arrays`` give: the edges of weight
at least ``WEAK_LINK`` must join every node. It does not search for
components to check that; ``engine.lcuts`` meets it by construction. A
graph with several such components has an Ncut of 0 between any union of
components and the rest, so it needs no bipartition; the recursion in
``engine`` splits it into all of its components at once, and hands the
sweep one connected component at a time.

The degrees, the sweep and the Ncut of the chosen split read only the
edges. The one n x n array is the normalized Laplacian, scattered from the
edges and solved in place by a dense solver: the blocks are small
(hundreds to a few thousand nodes) and dense eigensolvers need no
convergence tuning. The sweep reads only the Fiedler vector, so LAPACK is
asked for the two smallest eigenpairs alone, not for all n. A block whose
Laplacian would exceed ``MAX_LAPLACIAN_BYTES`` is refused before anything
is allocated.

Two nodes count as linked only through an edge of weight at least
``WEAK_LINK`` (1e-12). Lighter edges keep their weight in every degree, cut
and Ncut, but they do not connect. With the default ``sigmaD = 10`` every
edge longer than 52.6 px is that light, since its distance factor alone is
below 1e-12. A block held together only by such edges has a cluster of
normalized-Laplacian eigenvalues at rounding level, below what a dense
eigensolver resolves. Its "Fiedler vector" would be an arbitrary vector of
that near-null space, and the split would depend on the LAPACK routine.
``engine`` splits such a block by its components instead, with no matrix
work and the same result on every LAPACK build; the split records ncut 0.0
(its exact Ncut on the field layouts is about 1e-15).

``component_arrays`` finds the components of a graph given as an edge
list, ``(rows, cols, weights)`` arrays such as ``SparseGraph.edges()`` gives,
with whole-array numpy steps in the hook-and-jump style of Shiloach and
Vishkin. It reads only the edges, so a block costs no dense scan and no
sparse-matrix set-up. Every node holds a pointer, first to itself. A round
hooks each root to the smallest root linked to it by an edge, in either
direction, when that root is smaller, then jumps every pointer to its root
and drops the edges inside one tree. Pointers only ever go to smaller ids,
so they form a forest, and a tree only grows along edges, so it lies inside
one component. While an edge joins two trees, the next round hooks the
larger root of the two. At the fixpoint no edge joins two trees, so each
component is one tree, and its root is at most every member's id while
being a member, that is, the smallest id. A stable sort by that label
lists each component in ascending order, and the components by their
smallest member. A second stable sort, of the edges inside one component
by its label, hands each component its own edges in the given order,
renumbered by position in the component, so a caller never gathers them
again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InputError, LcutsError

# Smallest edge weight that links two nodes; see the module docstring.
WEAK_LINK = 1e-12

# Largest normalized Laplacian the Fiedler sweep builds, in bytes: 8 n^2 for
# an n-node block, so at most 11,585 nodes. The Laplacian is the sweep's one
# n x n array, so this bounds the memory a split adds to the process. The
# dense solve is cubic in n: the 2,900-node block of the most crowded field
# layout (64 MiB) takes about 10 s on one core, so a block at this limit
# takes about 64 times as long, some ten minutes. A bigger block raises
# LcutsError, where it would otherwise run for hours or be killed for
# memory.
MAX_LAPLACIAN_BYTES = 2 ** 30


@dataclass(frozen=True)
class Bipartition:
    """An unordered two-way split; group_a holds the smallest node id."""

    group_a: frozenset[int]
    group_b: frozenset[int]
    ncut: float


def _lowest_eigenpairs(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenpairs of the finite symmetric float64 matrix
    ``m`` by LAPACK's relatively robust representations driver (``evr``),
    which reads its lower triangle and overwrites it. A Fortran-ordered
    ``m`` is solved in place, with no copy."""
    # Imported here, so that a command that solves nothing does not load it.
    from scipy import linalg
    return linalg.eigh(m, subset_by_index=[0, k - 1], driver="evr", check_finite=False,
                       overwrite_a=True)


def smallest_eigenpairs(matrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenvalues (ascending) and orthonormal eigenvectors of
    a symmetric matrix, and only those: ``evr`` solves for the k wanted
    pairs, where a full solve computes all n. Symmetry is required within
    1e-9, and the entries must be finite. The matrix is left unchanged."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("matrix must be square")
    n = m.shape[0]
    if not 1 <= k <= n:
        raise InputError(f"k must be in 1..{n}, got {k}")
    if not np.isfinite(m).all():
        raise InputError("matrix entries must be finite")
    if n and float(np.abs(m - m.T).max()) > 1e-9:
        raise InputError("matrix is not symmetric within 1e-9")
    return _lowest_eigenpairs(np.array(m, order="F"), k)


def component_arrays(n: int, rows: np.ndarray, cols: np.ndarray,
                     weights: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Connected components of the graph on nodes ``0..n-1`` with an edge of
    weight ``weights[k]`` between ``rows[k]`` and ``cols[k]``, linking two
    nodes only by an edge of weight >= ``WEAK_LINK``, found by the
    hook-and-jump labeller of the module docstring. An edge links its ends
    whichever way it is listed.

    Each component comes with its own edges, as ``(ids, rows, cols,
    weights)``: ``ids`` is its sorted int64 array of nodes, and the edges
    are the given edges with both ends in it, of any weight, numbered by
    position in ``ids`` and kept in the given order, so a row-major list
    gives row-major lists. The components are ordered by their smallest
    member; an edge between two of them, lighter than ``WEAK_LINK``, is
    dropped."""
    linked = weights >= WEAK_LINK
    ii, jj = rows[linked], cols[linked]
    label = np.arange(n)
    # Every label is a root at the top of a round.
    while ii.size:
        # Hook each root to its smallest linked root, if that is smaller.
        li, lj = label[ii], label[jj]
        np.minimum.at(label, li, lj)
        np.minimum.at(label, lj, li)
        # Jump every pointer to its root.
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
        # An edge inside one tree never hooks again.
        cross = label[ii] != label[jj]
        ii, jj = ii[cross], jj[cross]
    # Each label is now its component's smallest id.
    members = np.argsort(label, kind="stable")
    sizes = np.bincount(label, minlength=n)
    # Each node's place in its component: its slot in members less the
    # slot where its component starts.
    pos = np.empty(n, dtype=np.int64)
    pos[members] = np.arange(n) - (np.cumsum(sizes) - sizes)[label[members]]
    # The edges inside one component, grouped by it in the given order.
    inside = np.flatnonzero(label[rows] == label[cols])
    owner = label[rows[inside]]
    inside = inside[np.argsort(owner, kind="stable")]
    rows, cols, weights = pos[rows[inside]], pos[cols[inside]], weights[inside]
    # Each component takes the next run of members and the next run of edges.
    ends = np.cumsum(sizes[sizes > 0]).tolist()
    edge_ends = np.cumsum(np.bincount(owner, minlength=n)[sizes > 0]).tolist()
    return [(members[a:b], rows[e:f], cols[e:f], weights[e:f])
            for a, b, e, f in zip([0, *ends], ends, [0, *edge_ends], edge_ends)]


def ncut_bipartition(n: int, rows: np.ndarray, cols: np.ndarray,
                     weights: np.ndarray) -> Bipartition:
    """Fiedler split of the graph on nodes ``0..n-1`` with an edge of weight
    ``weights[k]`` from ``rows[k]`` to ``cols[k]``. The positions must be
    distinct and off the diagonal, and every edge listed both ways with the
    same weight, as ``component_arrays`` gives them; the Laplacian is then
    symmetric by construction and is not checked.

    Precondition, not checked: the edges of weight >= ``WEAK_LINK``
    connect the graph. Every union of the components of a disconnected
    graph has Ncut 0, so ``engine.lcuts`` splits such a group into all of
    them and passes only connected blocks here. Outside the precondition
    the split is still a valid bipartition, but of a near-null eigenvector.
    Fewer than 2 nodes, or a node without any edge, raise
    DegenerateInputError; a block whose Laplacian would take more than
    ``MAX_LAPLACIAN_BYTES`` raises LcutsError.

    The sweep takes the threshold of smallest Ncut, with ties resolved
    toward the more balanced split and then the lexicographically lower id
    set. The returned ncut is recomputed exactly from the chosen groups.
    """
    if n < 2:
        raise DegenerateInputError("need at least 2 nodes to bipartition")
    if 8 * n * n > MAX_LAPLACIAN_BYTES:
        raise LcutsError(f"a connected block of {n} nodes needs a {8 * n * n / 2 ** 20:.0f} MiB "
                         f"Laplacian, above the {MAX_LAPLACIAN_BYTES / 2 ** 20:.0f} MiB limit "
                         f"of the Fiedler sweep")
    deg = np.bincount(rows, weights, minlength=n)
    if not deg.all():
        raise DegenerateInputError("a node has no edge; the graph is not connected")
    dinv = 1.0 / np.sqrt(deg)
    lap = np.zeros((n, n))
    lap[rows, cols] = -(weights * (dinv[rows] * dinv[cols]))
    np.fill_diagonal(lap, 1.0)
    # The transpose is the same matrix, in Fortran order, so evr solves it in place.
    _, vecs = _lowest_eigenpairs(lap.T, 2)
    x = dinv * vecs[:, 1]

    order = np.argsort(x, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    cum_deg = np.cumsum(deg[order])
    total = cum_deg[-1]
    # within[k]: total weight (both directions) among the first k+1 sorted
    # nodes. An edge joins them from the later sorted position of its ends.
    within = np.cumsum(np.bincount(np.maximum(pos[rows], pos[cols]), weights, minlength=n))
    assoc_a = cum_deg[:-1]
    assoc_b = total - assoc_a
    cut = np.maximum(assoc_a - within[:-1], 0.0)
    ncuts = cut / assoc_a + cut / assoc_b

    tied = np.flatnonzero(ncuts == ncuts.min()).tolist()
    if len(tied) > 1:
        # Threshold k puts the first k + 1 sorted nodes on one side. Ties go
        # to the more balanced split, then to the lower id list on the side
        # of node 0 (at sorted position ``zero``), then, as the sort is
        # stable, to the lower threshold.
        zero = int(pos[0])
        tied.sort(key=lambda k: (-min(k + 1, n - k - 1),
                                 sorted((order[: k + 1] if zero <= k else order[k + 1 :]).tolist())))
    k = tied[0]

    # The side of node 0 is group_a.
    in_a = (pos <= k) == (pos[0] <= k)
    cut_ab = float(weights[in_a[rows] & ~in_a[cols]].sum())
    ncut = cut_ab / float(deg[in_a].sum()) + cut_ab / float(deg[~in_a].sum())
    return Bipartition(frozenset(np.flatnonzero(in_a).tolist()),
                       frozenset(np.flatnonzero(~in_a).tolist()), ncut)
