"""Per-node axis estimation by multi-hop neighborhood voting.

Each node gets a unit direction estimated from the nodes reachable within a
few short hops: every member contributes the normalized offset from the
center as a candidate axis, candidates vote for each other when their mutual
angle falls into the first quantization bin, and the winners are averaged
after sign alignment. Majority voting keeps junction nodes from blending the
axes of two chains into a diagonal.

All nodes vote in one batched pass. The members of every neighborhood come
from one sparse hop-reach matrix, and one ``np.lexsort`` keyed on (center,
coordinates) puts each neighborhood in location order, so relabeling the
nodes cannot change a sum. Nodes with the same number of candidates then
vote together on ``(B, m, dim)`` arrays: Gram matrix, ``|cos|``, ``arccos``
against the first bin, counts, survivors, sign alignment, mean, norm and
pivot sign.

Exactness rule: each value comes from the numpy operation, on the same
per-node shapes and in the same order, that a vote over one node at a time
uses (``tests/oracles.py`` keeps that vote, and the tests demand bit
equality with it). The Gram matrix and the sign test are batched matmuls,
which run the same BLAS kernel per node; the survivors are summed in
location order; and the mean's norm is a batched vector product, that is
the BLAS dot of ``np.linalg.norm``, because ``sqrt((m * m).sum())`` differs
from it in the last bit for about one node in twelve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import PointCloud, radius_pairs

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class VotingParams:
    """Neighborhood and vote quantization settings.

    ``hop_radius`` is the per-hop reach in pixels; ``n_rel_bins`` quantizes
    relative angles over [0, 90] degrees and defaults to ``hops``.
    """

    hops: int = 4
    hop_radius: float = 5.0
    n_rel_bins: int | None = None

    def __post_init__(self) -> None:
        if self.hops < 1:
            raise InputError(f"hops must be >= 1, got {self.hops}")
        # An infinite reach asks radius_pairs for every pair.
        if not 0 < self.hop_radius < np.inf:
            raise InputError(f"hopRadius must be finite and > 0, got {self.hop_radius}")
        if self.n_rel_bins is not None and self.n_rel_bins < 1:
            raise InputError(f"nRelBins must be >= 1, got {self.n_rel_bins}")

    @property
    def rel_bins(self) -> int:
        return self.n_rel_bins if self.n_rel_bins is not None else self.hops


def _hop_reach(locs: np.ndarray, params: VotingParams):
    """Boolean CSR matrix whose row i marks every node reachable from node i
    in at most ``hops`` steps of length <= ``hop_radius``, node i itself
    included."""
    # Imported here, so that a command that votes nothing does not load it.
    from scipy import sparse
    n = len(locs)
    ii, jj, d2 = radius_pairs(locs, params.hop_radius)
    near = d2 <= params.hop_radius * params.hop_radius
    adj = sparse.coo_matrix((near[near], (ii[near], jj[near])), shape=(n, n))
    reach = step = (adj + adj.T + sparse.identity(n, dtype=bool)).tocsr()
    for _ in range(params.hops - 1):
        grown = reach @ step
        if grown.nnz == reach.nnz:
            break
        reach = grown
    return reach


# Bound on the elements of one batch's (B, m, m) arrays, so that nodes with
# large neighborhoods vote in chunks instead of all at once.
_BATCH_ELEMENTS = 1 << 20


def _vote_batch(cand: np.ndarray, n_bins: int) -> np.ndarray:
    """Unit axes voted by B nodes from their (B, m, dim) unit candidates,
    each node's candidates in location order."""
    rows = np.arange(len(cand))
    cos = np.clip(np.abs(cand @ cand.transpose(0, 2, 1)), 0.0, 1.0)
    phi = np.arccos(cos)
    bin_width = (np.pi / 2) / n_bins
    # Count, per candidate, how many others fall in the first angular bin.
    counts = (phi < bin_width).sum(axis=2) - 1  # the diagonal always votes for itself
    kept = counts == counts.max(axis=1, keepdims=True)
    ref = cand[rows, kept.argmax(axis=1)]
    signs = np.where((cand @ ref[:, :, None])[:, :, 0] < 0.0, -1.0, 1.0)
    # Non-survivors add 0.0, which leaves a sum that starts at 0.0 unchanged:
    # this is the survivors' sum in location order.
    mean = np.where(kept[:, :, None], signs[:, :, None] * cand, 0.0).sum(axis=1)
    norm = np.sqrt((mean[:, None, :] @ mean[:, :, None])[:, 0, 0])
    # A vanishing mean falls back to the reference candidate. Sign-aligned
    # survivors sum to at least the reference, so only zero candidates, which
    # no cloud yields, get here; the fallback keeps the per-node semantics.
    flat = norm < 1e-12
    mean[flat], norm[flat] = ref[flat], 1.0
    axis = mean / norm[:, None]
    # An axis has no inherent sign; fix it the same way fit_line does.
    neg = axis[rows, np.abs(axis).argmax(axis=1)] < 0
    axis[neg] = -axis[neg]
    return axis


def _vote_all(locs: np.ndarray, reach, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Voted unit axes of all nodes as an (N, dim) array, and the mask of the
    nodes that have one, from the CSR hop-reach matrix ``reach``."""
    n = len(locs)
    centers = np.repeat(np.arange(n), np.diff(reach.indptr))
    members = reach.indices
    offsets = locs[members] - locs[centers]
    norms = np.linalg.norm(offsets, axis=1)
    # The center itself offers no candidate, and neither does a member so
    # close that its squared offset underflows to zero.
    keep = norms > 0
    centers, members = centers[keep], members[keep]
    cand = offsets[keep] / norms[keep][:, None]
    order = np.lexsort((*locs[members].T[::-1], centers))
    cand = cand[order]
    sizes = np.bincount(centers, minlength=n)
    starts = np.cumsum(sizes) - sizes
    axes = np.zeros_like(locs)
    for m in np.unique(sizes[sizes > 0]).tolist():
        who = np.flatnonzero(sizes == m)
        step = max(1, _BATCH_ELEMENTS // (m * m))
        for lo in range(0, len(who), step):
            part = who[lo:lo + step]
            axes[part] = _vote_batch(cand[starts[part][:, None] + np.arange(m)], n_bins)
    return axes, sizes > 0


def assign_all_directions(cloud: PointCloud, params: VotingParams) -> PointCloud:
    """Estimate a direction for every node, returning a new cloud.

    Nodes with empty neighborhoods get a NaN row in ``dirs()``; their count
    is logged.
    """
    if not len(cloud):
        return cloud
    locs = cloud.locs()
    axes, voted = _vote_all(locs, _hop_reach(locs, params), params.rel_bins)
    unassigned = len(cloud) - int(voted.sum())
    if unassigned:
        log.warning("%d of %d nodes have empty neighborhoods and no direction", unassigned, len(cloud))
    dirs = np.where(voted[:, None], axes, np.nan)
    return PointCloud.from_arrays(locs, cloud.intensities(), dirs, cloud.image)
