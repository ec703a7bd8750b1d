"""Recursive clustering: split by normalized cuts until groups look like lines.

Each candidate group is either accepted, declared outlier noise, or
bipartitioned and recursed into. Acceptance requires a small orthogonal
residual, a high eccentricity (skipped for tiny groups), and, when an image
is bound, no intensity valley between consecutive nodes along the axis.
Groups that are too long to be a single object are always split first.

The affinity is zero beyond ``r``, so it is held sparse, as the edge list
of a ``graph.SparseGraph``, and the graph falls apart into connected
components. They are found by the numpy labeller of
``spectral.component_arrays``, which reads edge lists and hands each
component its own edges: once for the cloud, on every edge, and once per
spectral split, on the edges of the split group that stay on one side, so
both sides at once with the cut edges dropped. No N x N array is made, and
no edge is looked up in the whole graph after the first labelling.
Connectivity counts only edges of weight >= ``spectral.WEAK_LINK``
(1e-12): a lighter edge, such as any edge longer than 52.6 px under the
default ``sigmaD = 10``, is below what the dense eigensolver resolves, so a
block joined only by such edges would get an arbitrary Fiedler split. Dead
nodes are the singleton components, that is nodes with no link >= 1e-12
inside their group. Every union of whole components has Ncut 0, so a group
of several components that fails its stop test splits into all of them in
one record (ncut 0.0, one child per component, by smallest member); only a
connected group, one component, goes to the Fiedler sweep, with the edges
it carries, and the sweep builds no array but the block's normalized
Laplacian. Connectivity is the precondition of
``spectral.ncut_bipartition``, met here by construction, so the sweep does
not search the block for components.

The recursion carries each node's ids as a sorted int64 array of working
(location-sorted) ids and translates the record back to the caller's ids
once, with one array take and sort per record. An accepted group keeps the
line fit of its stop check: ``fit_line`` orders its points canonically, so
that fit equals a fit of the group in the caller's order bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .direction import VotingParams, assign_all_directions
from .errors import InputError
from .geometry import LineFit, PointCloud, fit_line
from .graph import GraphParams, SparseGraph, build_adjacency, intensity_threshold, segment_min_intensity
from .spectral import component_arrays, ncut_bipartition


@dataclass(frozen=True)
class StoppingLimits:
    size_limit: float = 60.0        # max projection span of an accepted group, pixels
    ecc_limit: float = 0.9          # min eccentricity of an accepted group
    std_limit: float = 3.75         # max RMS orthogonal residual, pixels
    min_group_size: int = 2         # smaller components become outliers
    check_intensity: bool = True    # test along-axis intensity continuity (needs an image)
    check_eccentricity: bool = True

    def __post_init__(self) -> None:
        # Written as "not x > 0" so that NaN fails too.
        if not self.size_limit > 0:
            raise InputError(f"sizeLimit must be > 0, got {self.size_limit}")
        if not self.std_limit >= 0:
            raise InputError(f"stdLimit must be >= 0, got {self.std_limit}")
        if not 0.0 <= self.ecc_limit <= 1.0:
            raise InputError(f"eccLimit must be in [0, 1], got {self.ecc_limit}")
        if self.min_group_size < 1:
            raise InputError(f"minGroupSize must be >= 1, got {self.min_group_size}")


class Decision(str, Enum):
    ACCEPT = "accept"
    RECURSE = "recurse"
    OUTLIER = "outlier"


@dataclass(frozen=True)
class StopCheck:
    decision: Decision
    forced: bool = False  # accepted despite failing linearity (unsplittable group)
    fit: LineFit | None = field(default=None, compare=False)  # the group's line, once fitted


@dataclass
class TreeNode:
    """One node of the recursion record."""

    ids: list[int]                     # sorted; an int64 array while lcuts() recurses
    decision: str = ""
    ncut: float | None = None
    forced: bool = False
    stripped: list[int] = field(default_factory=list)
    children: list["TreeNode"] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "ids": self.ids,
            "decision": self.decision,
            "ncut": self.ncut,
            "forced": self.forced,
            "stripped": self.stripped,
            "children": [c.to_dict() for c in self.children],
        }


@dataclass
class ClusterResult:
    groups: list[list[int]]            # sorted ids, groups ordered by smallest member
    outliers: list[int]                # sorted ids
    per_group: list[LineFit | None]    # aligned with groups; None for 1-node groups
    forced: list[bool]                 # aligned with groups: accepted with a warning
    tree: TreeNode | None
    work_graph: SparseGraph            # the affinity matrix the clustering used, working order
    rank: np.ndarray                   # caller id -> row of work_graph

    @property
    def graph(self) -> SparseGraph:
        """The affinity matrix the clustering used, in the caller's node
        order. Each read builds a new permuted sparse copy."""
        return self.work_graph.permuted(np.argsort(self.rank))

    def group_sets(self) -> list[set[int]]:
        return [set(g) for g in self.groups]


def check_stopping(cloud: PointCloud, group, limits: StoppingLimits,
                   thresh: float | None = None, sampling_step: float = 0.5,
                   presorted: bool = False) -> StopCheck:
    """Classify one candidate group: accept it, recurse into it, or drop it.

    ``thresh`` is the global intensity threshold; pass None to skip the
    intensity test (no image, or intensities unavailable). ``presorted``
    says the cloud's nodes are in lexicographic location order, as in the
    working cloud of ``lcuts``, so any sorted set of ids lists its points
    in that order and the line fit need not sort them.
    """
    ids = np.sort(group if isinstance(group, np.ndarray) else np.fromiter(group, dtype=np.int64))
    if len(ids) < limits.min_group_size:
        return StopCheck(Decision.OUTLIER)
    if len(ids) == 1:
        return StopCheck(Decision.ACCEPT)  # single node, nothing to fit or split

    locs = cloud.locs()
    fit = fit_line(locs[ids], presorted=presorted)
    if fit.extent > limits.size_limit:
        return StopCheck(Decision.RECURSE, fit=fit)

    linear = fit.std <= limits.std_limit
    if linear and limits.check_eccentricity and len(ids) > 3:
        linear = fit.eccentricity >= limits.ecc_limit
    if linear and limits.check_intensity and cloud.image is not None and thresh is not None:
        proj = (locs[ids] - fit.centroid) @ fit.axis
        along = ids[np.lexsort((ids, proj))]
        m = segment_min_intensity(cloud.image, locs[along[:-1]], locs[along[1:]], sampling_step)
        linear = not (m <= thresh).any()

    if linear:
        return StopCheck(Decision.ACCEPT, fit=fit)
    if len(ids) <= 2:
        # Cannot be split into anything but outliers; keep it, flagged.
        return StopCheck(Decision.ACCEPT, forced=True, fit=fit)
    return StopCheck(Decision.RECURSE, fit=fit)


def lcuts(cloud: PointCloud, gparams: GraphParams | None = None,
          vparams: VotingParams | None = None,
          limits: StoppingLimits | None = None) -> ClusterResult:
    """Cluster a point cloud into approximately collinear groups.

    Directions are estimated once and the sparse affinity matrix is built
    once. Nodes with no link >= ``WEAK_LINK`` inside their group are
    stripped to outliers before any split; each connected component
    carries its own edges down the recursion, for a spectral split. The
    result carries the sparse matrix in working order, with the
    permutation back to the caller's order.
    """
    gparams = gparams or GraphParams()
    vparams = vparams or VotingParams()
    limits = limits or StoppingLimits()

    if len(cloud) == 0:
        return ClusterResult([], [], [], [], None, SparseGraph(np.zeros((0, 0))),
                             np.zeros(0, dtype=np.int64))

    # Work in location-sorted order: ties and rounding then resolve the same
    # way no matter how the caller happened to label the nodes.
    order = np.lexsort(cloud.locs().T[::-1])
    work = PointCloud.from_arrays(cloud.locs()[order], cloud.intensities()[order], image=cloud.image)

    work = assign_all_directions(work, vparams)
    # The intensity factor of the adjacency is active whenever an image is
    # bound; the check_intensity flag only gates the stopping test.
    thresh: float | None = None
    if work.image is not None and work.has_all_intensities():
        thresh = intensity_threshold(work)
    graph = build_adjacency(work, gparams, thresh=thresh)

    groups: list[np.ndarray] = []
    forced_flags: list[bool] = []
    fits: list[LineFit | None] = []
    outliers: list[int] = []
    root = TreeNode(ids=np.arange(len(work)))
    # Each entry carries the connected components of its node's ids, each
    # as (ids, rows, cols, vals): its sorted working ids and its own edges.
    stack = [(root, component_arrays(graph.n, *graph.edges()))]
    while stack:
        node, comps = stack.pop()
        ids = node.ids
        # Dead nodes, those without a link >= WEAK_LINK, are exactly the
        # singleton components.
        stripped = [c[0] for c in comps if len(c[0]) == 1] if len(ids) > 1 else []
        if stripped:
            node.decision = "strip"
            node.stripped = np.concatenate(stripped)
            outliers.extend(node.stripped)
            live = [c for c in comps if len(c[0]) > 1]
            sides = [live] if live else []
        else:
            chk = check_stopping(work, ids, limits, thresh=thresh,
                                 sampling_step=gparams.intensity_sampling_step, presorted=True)
            node.decision = chk.decision.value
            node.forced = chk.forced
            if chk.decision is Decision.ACCEPT:
                # fit_line orders its points canonically (here they already
                # are), so this fit equals the fit of the group in the
                # caller's order bit for bit.
                groups.append(ids)
                forced_flags.append(chk.forced)
                fits.append(chk.fit)
                continue
            if chk.decision is Decision.OUTLIER:
                outliers.extend(ids)
                continue
            if len(comps) > 1:
                # Every union of whole components has ncut 0: split into all.
                node.ncut = 0.0
                sides = [[c] for c in comps]
            else:
                _, rows, cols, vals = comps[0]
                part = ncut_bipartition(len(ids), rows, cols, vals)
                node.ncut = part.ncut
                # One component search for both sides: drop the cut edges,
                # and each component then lies within one side, with all
                # of its edges.
                half = np.zeros(len(ids), dtype=np.int8)
                half[list(part.group_b)] = 1
                kept = half[rows] == half[cols]
                sides = [[], []]
                for c, *edges in component_arrays(len(ids), rows[kept], cols[kept], vals[kept]):
                    sides[half[c[0]]].append((ids[c], *edges))
        kids = [TreeNode(ids=np.sort(np.concatenate([c[0] for c in side]))) for side in sides]
        node.children.extend(kids)
        stack.extend(reversed(list(zip(kids, sides))))

    # Translate back to the caller's node ids. Every list takes its ints
    # from one pool, so a record holds a pointer per id, not a new int.
    pool = list(range(len(cloud)))

    def caller_ids(ids) -> list[int]:
        return list(map(pool.__getitem__, np.sort(order[ids]).tolist()))

    walk = [root]
    while walk:
        node = walk.pop()
        node.ids = caller_ids(node.ids)
        node.stripped = caller_ids(node.stripped)
        walk.extend(node.children)
    # Groups are disjoint, so they order by their smallest member.
    ordered = sorted(zip(map(caller_ids, groups), forced_flags, fits), key=lambda t: t[0][0])
    return ClusterResult([g for g, _, _ in ordered], caller_ids(outliers),
                         [fit for _, _, fit in ordered], [f for _, f, _ in ordered], root,
                         graph, np.argsort(order))
