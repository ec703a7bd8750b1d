"""Scalar reference implementations that the tests compare the library against.

The library computes each concept once, batched over all pairs or nodes.
The functions here compute the same values one pair or one node at a time,
in the same arithmetic order, so the tests can demand exact equality. They
are not part of the ``lcuts`` package, which never imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from lcuts.direction import VotingParams, _hop_reach
from lcuts.engine import Decision, StopCheck, StoppingLimits
from lcuts.errors import DegenerateInputError, DimensionMismatchError, InputError, MissingDataError
from lcuts.geometry import PointCloud, fit_line
from lcuts.graph import GraphParams, SparseGraph, build_adjacency, intensity_threshold
from lcuts.raster import RasterImage, bilinear_sample
from lcuts.spectral import WEAK_LINK, Bipartition, smallest_eigenpairs
from lcuts.synth import segment_distance


# ----------------------------------------------------------------------------
# Affinity factors


def weight_distance(d, params: GraphParams):
    """Distance factor; accepts scalars or arrays of nonnegative distances."""
    d = np.asarray(d, dtype=np.float64)
    if d.size and d.min() < 0:
        raise InputError("distances must be nonnegative")
    w = np.exp(-(d ** 2) / params.sigma_d ** 2)
    out = np.where(d <= params.r, w, 0.0)
    return float(out) if out.ndim == 0 else out


def weight_direction(dir_i, dir_j, params: GraphParams) -> float:
    """Alignment factor from the absolute cosine between two unit axes."""
    di = np.asarray(dir_i, dtype=np.float64)
    dj = np.asarray(dir_j, dtype=np.float64)
    for d in (di, dj):
        if abs(float(np.linalg.norm(d)) - 1.0) > 1e-9:
            raise InputError("direction vectors must be unit length")
    dot = 0.0
    for k in range(di.shape[0]):  # same accumulation order as the batched matrix
        dot += float(di[k]) * float(dj[k])
    c = min(abs(dot), 1.0)
    return float(np.exp(-((c - 1.0) ** 2) / params.sigma_t ** 2))


def segment_min_scalar(image: RasterImage, p, q, step: float) -> float:
    """Minimum bilinear sample along the one straight segment p -> q.

    Samples are evenly spaced, at most ``step`` apart, endpoints included.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    seg = q - p
    length = float(np.sqrt((seg * seg).sum()))
    count = max(2, int(np.ceil(length / step)) + 1)
    ts = np.linspace(0.0, 1.0, count)
    pts = p[None, :] + ts[:, None] * (q - p)[None, :]
    return float(bilinear_sample(image, pts[:, 0], pts[:, 1]).min())


def segment_min_by_count(image: RasterImage, p: np.ndarray, q: np.ndarray,
                         step: float) -> np.ndarray:
    """``lcuts.graph.segment_min_intensity`` as a loop over the distinct
    sample counts, sampling all segments of one count at once."""
    seg = q - p
    length = np.sqrt((seg * seg).sum(axis=-1))
    counts = np.maximum(2, np.ceil(length / step).astype(np.int64) + 1)
    mins = np.empty(len(counts))
    for count in np.unique(counts):
        sel = np.nonzero(counts == count)[0]
        ts = np.linspace(0.0, 1.0, int(count))
        pts = p[sel, None, :] + ts[None, :, None] * seg[sel, None, :]
        vals = bilinear_sample(image, pts[..., 0].ravel(), pts[..., 1].ravel())
        mins[sel] = vals.reshape(len(sel), int(count)).min(axis=1)
    return mins


def weight_intensity(cloud: PointCloud, i: int, j: int, thresh: float,
                     params: GraphParams) -> float:
    """Intensity factor for the node pair (i, j) against the bound image.

    The segment always runs from the lower to the higher id, which keeps the
    sampled set, and therefore the factor, exactly symmetric.
    """
    if cloud.image is None:
        raise MissingDataError("weight_intensity needs a bound image")
    lo, hi = (i, j) if i <= j else (j, i)
    m = segment_min_scalar(cloud.image, cloud.nodes[lo].loc, cloud.nodes[hi].loc,
                           params.intensity_sampling_step)
    return m if m <= thresh else 1.0


def pairwise_distance(a, b) -> float:
    """Euclidean distance between two locations of equal dimension."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise DimensionMismatchError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    diff = av - bv
    # coordinate-ordered sum, not BLAS norm: keeps the scalar route bit-equal
    # to the batched distances
    return float(np.sqrt((diff * diff).sum()))


# ----------------------------------------------------------------------------
# Direction voting, one node at a time


def _members(reach, center: int) -> list[int]:
    row = reach.indices[reach.indptr[center]:reach.indptr[center + 1]]
    return row[row != center].tolist()


def _vote(locs: np.ndarray, center: int, members: list[int], n_bins: int) -> np.ndarray | None:
    offsets = locs[members] - locs[center]
    norms = np.linalg.norm(offsets, axis=1)
    keepable = norms > 0
    if not keepable.all():
        offsets, norms = offsets[keepable], norms[keepable]
    if len(offsets) == 0:
        return None
    return _vote_candidates(offsets / norms[:, None], n_bins)


def _vote_candidates(cand: np.ndarray, n_bins: int) -> np.ndarray:
    """The axis voted by one node's (m, dim) candidates in location order."""
    cos = np.clip(np.abs(cand @ cand.T), 0.0, 1.0)
    phi = np.arccos(cos)
    bin_width = (np.pi / 2) / n_bins
    # Count, per candidate, how many others fall in the first angular bin.
    first = phi < bin_width
    counts = first.sum(axis=1) - 1  # the diagonal always votes for itself
    kept = cand[counts == counts.max()]
    ref = kept[0]
    signs = np.where(kept @ ref < 0.0, -1.0, 1.0)
    mean = (signs[:, None] * kept).sum(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        # Perfectly antagonistic survivors; fall back to the reference candidate.
        mean, norm = ref.copy(), 1.0
    axis = mean / norm
    # An axis has no inherent sign; fix it the same way fit_line does.
    pivot = int(np.argmax(np.abs(axis)))
    if axis[pivot] < 0:
        axis = -axis
    return axis


def _location_order(locs: np.ndarray, members: list[int]) -> list[int]:
    # order votes by coordinates, not ids, so relabeling cannot change the sum
    pts = locs[members]
    return [members[k] for k in np.lexsort(pts.T[::-1])]


def assign_directions(cloud: PointCloud, params: VotingParams) -> list[np.ndarray | None]:
    """``lcuts.direction.assign_all_directions`` as a loop that votes one node
    at a time; returns each node's axis, or None for an empty neighborhood."""
    locs = cloud.locs()
    reach = _hop_reach(locs, params) if len(cloud) else None
    out = []
    for center in range(len(cloud)):
        members = _location_order(locs, _members(reach, center))
        out.append(_vote(locs, center, members, params.rel_bins) if members else None)
    return out


@dataclass(frozen=True)
class Neighborhood:
    center: int
    members: frozenset[int]


def hop_neighborhood(cloud: PointCloud, center: int, params: VotingParams) -> Neighborhood:
    """Nodes reachable from ``center`` in at most ``hops`` steps of length
    <= ``hop_radius`` each; the center itself is excluded."""
    if not 0 <= center < len(cloud):
        raise InputError(f"center id {center} out of range")
    return Neighborhood(center, frozenset(_members(_hop_reach(cloud.locs(), params), center)))


def estimate_direction(cloud: PointCloud, center: int, nbhd: Neighborhood,
                       params: VotingParams) -> np.ndarray | None:
    """Majority-vote axis estimate for one node; None when the neighborhood is empty."""
    if nbhd.center != center:
        raise InputError("neighborhood was built for a different center")
    if not nbhd.members:
        return None
    locs = cloud.locs()
    members = _location_order(locs, sorted(nbhd.members))
    return _vote(locs, center, members, params.rel_bins)


# ----------------------------------------------------------------------------
# Windowed maxima with the plateau rule tested one candidate at a time


def local_maxima_by_candidate(img: RasterImage, window: int, floor: float) -> list[np.ndarray]:
    """``lcuts.pipeline.find_local_maxima`` with the plateau rule written as
    a loop over the candidates: each finds the ties in its window and is
    kept when it is the first of them in row-major order."""
    if window < 1 or window % 2 == 0:
        raise InputError(f"window must be odd and >= 1, got {window}")
    from scipy import ndimage
    arr = img.pixels
    h, w = arr.shape
    # cvals outside the valid range so borders compare only against real pixels
    neighborhood_max = ndimage.maximum_filter(arr, size=window, mode="constant", cval=-1.0)
    neighborhood_min = ndimage.minimum_filter(arr, size=window, mode="constant", cval=2.0)
    # a crest must rise above something nearby; constant regions are not maxima
    cand = np.argwhere((arr >= neighborhood_max) & (arr > neighborhood_min) & (arr > floor))
    half = window // 2
    points: list[np.ndarray] = []
    for iy, ix in cand:
        val = arr[iy, ix]
        y0, y1 = max(iy - half, 0), min(iy + half + 1, h)
        x0, x1 = max(ix - half, 0), min(ix + half + 1, w)
        tie_rows, tie_cols = np.nonzero(arr[y0:y1, x0:x1] == val)
        first = (int(tie_rows[0]) + y0, int(tie_cols[0]) + x0)
        if first == (int(iy), int(ix)):
            points.append(np.array([float(ix), float(iy)]))
    return points


# ----------------------------------------------------------------------------
# Stop test with one segment sampled at a time


def check_stopping(cloud: PointCloud, group, limits: StoppingLimits,
                   thresh: float | None = None, sampling_step: float = 0.5) -> StopCheck:
    """``lcuts.engine.check_stopping`` with the intensity test written as a
    loop over consecutive nodes that stops at the first dark segment."""
    ids = sorted(group)
    if len(ids) < limits.min_group_size:
        return StopCheck(Decision.OUTLIER)
    if len(ids) == 1:
        return StopCheck(Decision.ACCEPT)

    locs = cloud.locs()
    fit = fit_line(locs[ids])
    if fit.extent > limits.size_limit:
        return StopCheck(Decision.RECURSE)

    linear = fit.std <= limits.std_limit
    if linear and limits.check_eccentricity and len(ids) > 3:
        linear = fit.eccentricity >= limits.ecc_limit
    if linear and limits.check_intensity and cloud.image is not None and thresh is not None:
        proj = (locs[ids] - fit.centroid) @ fit.axis
        along = [ids[k] for k in np.lexsort((ids, proj))]
        for u, v in zip(along, along[1:]):
            if segment_min_scalar(cloud.image, locs[u], locs[v], sampling_step) <= thresh:
                linear = False
                break

    if linear:
        return StopCheck(Decision.ACCEPT)
    if len(ids) <= 2:
        return StopCheck(Decision.ACCEPT, forced=True)
    return StopCheck(Decision.RECURSE)


# ----------------------------------------------------------------------------
# Connected components through scipy's graph search


def components(w) -> list[list[int]]:
    """The ids of the components of ``lcuts.spectral.component_arrays`` as
    lists, through ``connected_components`` on a sparse copy of the matrix
    with the edges below ``WEAK_LINK`` removed."""
    linked = sparse.csr_matrix(w, copy=True)
    linked.data[linked.data < WEAK_LINK] = 0.0
    linked.eliminate_zeros()
    _, labels = connected_components(linked, directed=False)
    members = np.argsort(labels, kind="stable")
    comps = [c.tolist() for c in np.split(members, np.cumsum(np.bincount(labels))[:-1])]
    comps.sort(key=lambda c: c[0])
    return comps


# ----------------------------------------------------------------------------
# Normalized cuts on a dense affinity matrix


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


def ncut_bipartition(w: np.ndarray) -> Bipartition:
    """Fiedler split of the connected graph with the dense symmetric
    affinity matrix ``w``: the normalized Laplacian from dense products, the
    sweep's cuts from the reordered lower triangle, and the ncut from
    ``ncut_value``. Ties are broken as in ``lcuts.spectral``."""
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

    tied = np.flatnonzero(ncuts == ncuts.min()).tolist()
    if len(tied) > 1:
        zero = int(np.argmin(order))
        tied.sort(key=lambda k: (-min(k + 1, n - k - 1),
                                 sorted((order[: k + 1] if zero <= k else order[k + 1 :]).tolist())))
    k = tied[0]

    a, b = frozenset(order[: k + 1].tolist()), frozenset(order[k + 1 :].tolist())
    if min(b) < min(a):
        a, b = b, a
    return Bipartition(a, b, ncut_value(w, a, b))


# ----------------------------------------------------------------------------
# Matching and synthesis


def match_dense(pred: list[set[int]], truth: list[set[int]]) -> list[tuple[int, int, int]]:
    """``lcuts.metrics._match`` through the dense P x T overlap matrix and one
    global ``linear_sum_assignment``, whatever the overlap's structure."""
    if set().union(*pred) != set().union(*truth):
        raise InputError("pred and truth must cover the same node ids")
    if not pred or not truth:
        return []
    pred_of = {v: i for i, g in enumerate(pred) for v in g}
    overlap = np.zeros((len(pred), len(truth)), dtype=np.int64)
    np.add.at(overlap, ([pred_of[v] for g in truth for v in g],
                        np.repeat(np.arange(len(truth)), [len(g) for g in truth])), 1)
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    matches = [
        (int(i), int(j), int(overlap[i, j]))
        for i, j in zip(rows, cols)
        if overlap[i, j] > 0
    ]
    matches.sort()
    return matches


def keeps_gap(rod, rods, gap: float) -> bool:
    """``lcuts.synth._keeps_gap`` with one exact segment distance per placed rod."""
    p0, p1 = rod
    for q0, q1 in rods:
        if segment_distance(p0, p1, q0, q1) < gap:
            return False
    return True


def block_edges(graph, ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of ``graph`` among the distinct node ids ``ids`` as
    ``(rows, cols, weights)``, numbered by position in ``ids`` and in
    row-major order: the nonzero entries of ``weights[np.ix_(ids, ids)]``,
    gathered from the CSR rows of the whole graph's edge list. This is the
    gather that ``SparseGraph.edges(ids)`` ran before each Fiedler split."""
    ids = np.asarray(ids, dtype=np.int64)
    all_rows, indices, data = graph.edges()
    indptr = np.concatenate(([0], np.cumsum(np.bincount(all_rows, minlength=graph.n))))
    pos = np.full(graph.n, -1, dtype=np.int64)
    pos[ids] = np.arange(len(ids))
    starts, counts = indptr[ids], indptr[ids + 1] - indptr[ids]
    # Each stored entry of the chosen rows: its block row and its slot.
    rows = np.repeat(np.arange(len(ids)), counts)
    slots = np.arange(rows.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    cols = pos[indices[slots]]
    keep = np.flatnonzero(cols >= 0)
    # A row lists its entries by node id; ids out of order need a sort.
    if (np.diff(ids) < 0).any():
        keep = keep[np.argsort(rows[keep] * len(ids) + cols[keep])]
    return rows[keep], cols[keep], data[slots[keep]]


def sparse_graph(w: np.ndarray) -> SparseGraph:
    """The ``SparseGraph`` of a dense symmetric matrix with a zero diagonal
    and entries in [0, 1], from its nonzero entries in row-major order."""
    rows, cols = np.nonzero(w)
    return SparseGraph(len(w), rows, cols, w[rows, cols])


def adjacency(cloud: PointCloud, params: GraphParams = GraphParams()) -> SparseGraph:
    """``build_adjacency`` with the intensity factor exactly where
    ``lcuts()`` applies it: an image bound and an intensity on every node."""
    use = cloud.image is not None and cloud.has_all_intensities()
    return build_adjacency(cloud, params, thresh=intensity_threshold(cloud) if use else None)


def canonical_csr(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """The (indptr, indices, data) of the CSR matrix with the nonzero
    ``vals[k]`` at the distinct positions ``(rows[k], cols[k])``, ordered
    by ``np.lexsort`` on (row, column)."""
    nonzero = vals != 0.0
    rows, cols, vals = rows[nonzero], cols[nonzero], vals[nonzero]
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return indptr, cols[order], vals[order]


# ----------------------------------------------------------------------------
# Neighbour search


def radius_pairs(locs: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs ``i < j`` within ``radius`` padded by 1e-9 relative, and their
    squared distances, from scipy's k-d tree."""
    from scipy.spatial import cKDTree

    pairs = cKDTree(locs).query_pairs(radius * (1.0 + 1e-9), output_type="ndarray")
    ii, jj = pairs[:, 0], pairs[:, 1]
    diff = locs[ii] - locs[jj]
    return ii, jj, (diff * diff).sum(axis=-1)
