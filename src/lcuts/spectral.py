"""Normalized-cut bipartition of a weighted graph.

The relaxation follows the classic recipe: eigenvector of the second-smallest
eigenvalue of the symmetric normalized Laplacian, mapped back through
D^(-1/2), then an exhaustive sweep over the n-1 thresholds between
consecutive sorted entries picks the split with the smallest true Ncut.
``ncut_bipartition`` splits a connected graph, given as its dense affinity
matrix, a plain symmetric float64 ``ndarray``: the edges of weight at least
``WEAK_LINK`` must join every node. It does not search for components to
check that; ``engine.lcuts`` meets it by construction. A graph with several
such components has an Ncut of 0 between any union of components and the
rest, so it needs no bipartition; the recursion in ``engine`` splits it
into all of its components at once, and hands the sweep one connected
component at a time. The sweep uses a dense solver: those blocks are small
(hundreds to a few thousand nodes) and dense eigensolvers need no
convergence tuning. The sweep reads only the Fiedler vector, so
``smallest_eigenpairs`` asks LAPACK for the two smallest eigenpairs alone,
not for all n.

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

``component_arrays`` finds the components with whole-array numpy steps, in
the hook-and-jump style of Shiloach and Vishkin, so a small block costs no
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
smallest member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse

from .errors import DegenerateInputError, InputError

# Smallest edge weight that links two nodes; see the module docstring.
WEAK_LINK = 1e-12


@dataclass(frozen=True)
class Bipartition:
    """An unordered two-way split; group_a holds the smallest node id."""

    group_a: frozenset[int]
    group_b: frozenset[int]
    ncut: float


def ncut_value(w: np.ndarray, a, b) -> float:
    """Ncut(A, B) = cut(A,B)/assoc(A,V) + cut(A,B)/assoc(B,V) on the
    symmetric affinity matrix ``w``."""
    a_idx = np.asarray(sorted(a), dtype=np.int64)
    b_idx = np.asarray(sorted(b), dtype=np.int64)
    n = w.shape[0]
    if a_idx.size == 0 or b_idx.size == 0:
        raise DegenerateInputError("both sides of a bipartition must be non-empty")
    marks = np.zeros(n, dtype=np.int64)
    marks[a_idx] += 1
    marks[b_idx] += 1
    if a_idx.size + b_idx.size != n or np.any(marks != 1):
        raise InputError("A and B must partition the node set exactly")
    cut = float(w[np.ix_(a_idx, b_idx)].sum())
    assoc_a = float(w[a_idx, :].sum())
    assoc_b = float(w[b_idx, :].sum())
    if assoc_a == 0.0 or assoc_b == 0.0:
        raise DegenerateInputError("a side has zero association; ncut undefined")
    return cut / assoc_a + cut / assoc_b


def smallest_eigenpairs(matrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenvalues (ascending) and orthonormal eigenvectors of
    a symmetric matrix, and only those: LAPACK's relatively robust
    representations driver (``evr``) solves for the k wanted pairs, where a
    full solve computes all n. Symmetry is required within 1e-9, and the
    entries must be finite."""
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
    return linalg.eigh(m, subset_by_index=[0, k - 1], driver="evr", check_finite=False)


def component_arrays(w) -> list[np.ndarray]:
    """Connected components of a dense or sparse weight matrix, linking two
    nodes only by an edge of weight >= ``WEAK_LINK``, found by the
    hook-and-jump labeller of the module docstring. Each component is a
    sorted int64 array, and they are ordered by their smallest member."""
    if sparse.issparse(w):
        coo = w.tocoo()
        linked = coo.data >= WEAK_LINK
        ii, jj = coo.row[linked].astype(np.int64), coo.col[linked].astype(np.int64)
    else:
        # Blocks of about 2**20 entries: the mask of a block takes 1 MiB,
        # where one of the whole matrix would take N^2 bytes. A 1-D
        # flatnonzero is several times faster than a 2-D nonzero.
        w = np.asarray(w)
        n = w.shape[0]
        rows = 1 + 2**20 // max(n, 1)
        flat = [np.flatnonzero(w[r:r + rows] >= WEAK_LINK) + r * n for r in range(0, n, rows)]
        ii, jj = np.divmod(np.concatenate([np.zeros(0, dtype=np.int64), *flat]), n)
    label = np.arange(w.shape[0])
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
    sizes = np.bincount(label)
    # The split after the last member leaves one empty array to drop.
    return np.split(members, np.cumsum(sizes[sizes > 0]))[:-1]


def ncut_bipartition(w: np.ndarray) -> Bipartition:
    """Fiedler split of the graph with the symmetric affinity matrix ``w``.

    Precondition, not checked: the edges of weight >= ``WEAK_LINK``
    connect the graph. Every union of the components of a disconnected
    graph has Ncut 0, so ``engine.lcuts`` splits such a group into all of
    them and passes only connected blocks here. Outside the precondition
    the split is still a valid bipartition, but of a near-null eigenvector.
    Fewer than 2 nodes, or a node without any edge, raise
    DegenerateInputError.

    The sweep takes the threshold of smallest Ncut, with ties resolved
    toward the more balanced split and then the lexicographically lower id
    set. The returned ncut is recomputed exactly from the chosen groups.
    """
    n = w.shape[0]
    if n < 2:
        raise DegenerateInputError("need at least 2 nodes to bipartition")
    deg = w.sum(axis=1)
    if not deg.all():
        raise DegenerateInputError("a node has no edge; the graph is not connected")
    dinv = 1.0 / np.sqrt(deg)
    norm_w = w * np.multiply.outer(dinv, dinv)
    lap = np.eye(n) - norm_w
    _, vecs = smallest_eigenpairs(lap, 2)
    x = dinv * vecs[:, 1]

    order = np.argsort(x, kind="stable")
    ws = w[order][:, order]
    deg_s = deg[order]
    cum_deg = np.cumsum(deg_s)
    total = cum_deg[-1]
    # within[k]: total weight (both directions) among the first k+1 sorted nodes.
    row_in = np.tril(ws, -1).sum(axis=1)
    within = 2.0 * np.cumsum(row_in)
    assoc_a = cum_deg[:-1]
    assoc_b = total - assoc_a
    cut = np.maximum(assoc_a - within[:-1], 0.0)
    ncuts = cut / assoc_a + cut / assoc_b

    best = ncuts.min()
    tied = np.nonzero(ncuts == best)[0]
    if tied.size == 1:
        k = int(tied[0])
    else:
        ranked = []
        for cand in tied.tolist():
            size_a = cand + 1
            balance = min(size_a, n - size_a)
            side = sorted(order[: cand + 1].tolist())
            if 0 not in side:
                side = sorted(order[cand + 1 :].tolist())
            ranked.append((-balance, tuple(side), cand))
        ranked.sort()
        k = ranked[0][2]

    a, b = frozenset(order[: k + 1].tolist()), frozenset(order[k + 1 :].tolist())
    if min(b) < min(a):
        a, b = b, a
    return Bipartition(a, b, ncut_value(w, a, b))
