"""Per-node axis estimation by multi-hop neighborhood voting.

Each node gets a unit direction estimated from the nodes reachable within a
few short hops: every member contributes the normalized offset from the
center as a candidate axis, candidates vote for each other when their mutual
angle falls into the first quantization bin, and the winners are averaged
after sign alignment. Majority voting keeps junction nodes from blending the
axes of two chains into a diagonal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import InputError
from .geometry import Node, PointCloud, radius_pairs

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


def _hop_reach(locs: np.ndarray, params: VotingParams) -> sparse.csr_matrix:
    """Boolean matrix whose row i marks every node reachable from node i in at
    most ``hops`` steps of length <= ``hop_radius``, node i itself included."""
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


def _members(reach: sparse.csr_matrix, center: int) -> list[int]:
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
    cand = offsets / norms[:, None]
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


def assign_all_directions(cloud: PointCloud, params: VotingParams) -> PointCloud:
    """Estimate a direction for every node, returning a new cloud.

    Nodes with empty neighborhoods keep ``dir=None``; their count is logged.
    """
    if not cloud.nodes:
        return cloud
    locs = cloud.locs()
    reach = _hop_reach(locs, params)
    nodes: list[Node] = []
    unassigned = 0
    for node in cloud.nodes:
        members = _location_order(locs, _members(reach, node.id))
        direction = _vote(locs, node.id, members, params.rel_bins) if members else None
        if direction is None:
            unassigned += 1
        nodes.append(Node(id=node.id, loc=node.loc, intensity=node.intensity, dir=direction))
    if unassigned:
        log.warning("%d of %d nodes have empty neighborhoods and no direction", unassigned, len(cloud))
    return cloud.with_nodes(nodes)
