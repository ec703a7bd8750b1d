"""Spatial primitives: nodes, point clouds, line fits, and cloud CSV IO.

Locations are in pixel units, 2-D (x, y) or 3-D (x, y, z), with the raster
convention that y grows downward. A total-least-squares line fit summarizes a
group of points by its principal axis; the orthogonal residual spread and the
projection span onto that axis drive the clustering stop rules.

Coordinates are bounded by ``MAX_COORD`` = 2^53 in magnitude, where float64
still resolves single pixels; below it no squared distance or second moment
can overflow. The one neighbour search, ``radius_pairs``, is a cell grid in
numpy: it sorts the points by cell once and reads each point's candidates
from the sorted order as key ranges, in memory linear in the pairs found.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError, InputError
from .raster import RasterImage

# Largest accepted coordinate magnitude, in pixels. Beyond 2**53 float64
# cannot tell neighbouring pixels apart; below it a squared distance or a
# second moment stays below 2**110, far from overflow.
MAX_COORD = float(2 ** 53)
# Most grid cells along one axis in radius_pairs, so that a 3-D cell key
# stays below 2**63.
_MAX_CELLS = 2 ** 20
# Candidate pairs that radius_pairs checks at once: a few MiB of index
# arrays, however crowded the cells.
_CANDIDATE_BLOCK = 2 ** 18


@dataclass(frozen=True)
class Node:
    """One point of a cloud.

    ``intensity`` is the image brightness at the node (absent for plain
    clouds); ``dir`` is the locally estimated unit axis (absent until
    direction assignment runs, or when the node has no neighbors).
    """

    id: int
    loc: np.ndarray
    intensity: float | None = None
    dir: np.ndarray | None = None

    def __post_init__(self) -> None:
        loc = np.asarray(self.loc, dtype=np.float64)
        if loc.ndim != 1 or loc.shape[0] not in (2, 3):
            raise DimensionMismatchError(f"node {self.id}: loc must be a 2- or 3-vector")
        if not np.all(np.isfinite(loc)):
            raise InputError(f"node {self.id}: non-finite location")
        if np.abs(loc).max() > MAX_COORD:
            raise InputError(f"node {self.id}: location {tuple(loc.tolist())} has a "
                             "coordinate beyond +-2**53")
        object.__setattr__(self, "loc", loc)
        if self.intensity is not None:
            val = float(self.intensity)
            if not 0.0 <= val <= 1.0:
                raise InputError(f"node {self.id}: intensity {val} outside [0, 1]")
            object.__setattr__(self, "intensity", val)
        if self.dir is not None:
            d = np.asarray(self.dir, dtype=np.float64)
            if d.shape != loc.shape:
                raise DimensionMismatchError(f"node {self.id}: dir/loc dimension mismatch")
            if abs(float(np.linalg.norm(d)) - 1.0) > 1e-9:
                raise InputError(f"node {self.id}: dir is not unit length")
            object.__setattr__(self, "dir", d)


@dataclass
class PointCloud:
    """An ordered set of nodes with ids 0..N-1 and a common dimension.

    ``image`` optionally binds the raster the nodes were extracted from; it is
    required for any intensity-based weighting or stop checks.
    """

    nodes: list[Node]
    dim: int
    image: RasterImage | None = None

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise DimensionMismatchError(f"dim must be 2 or 3, got {self.dim}")
        seen: set[tuple[float, ...]] = set()
        for idx, node in enumerate(self.nodes):
            if node.id != idx:
                raise InputError(f"node ids must be 0..N-1 in order (index {idx} has id {node.id})")
            if node.loc.shape[0] != self.dim:
                raise DimensionMismatchError(f"node {idx} has dimension {node.loc.shape[0]}, cloud is {self.dim}-D")
            key = tuple(node.loc.tolist())
            if key in seen:
                raise InputError(f"duplicate node location {key}")
            seen.add(key)
        if self.image is not None and self.dim != 2:
            raise DimensionMismatchError("only 2-D clouds can bind an image")
        self._locs = np.stack([n.loc for n in self.nodes]) if self.nodes else np.zeros((0, self.dim))
        self._locs.flags.writeable = False

    def __len__(self) -> int:
        return len(self.nodes)

    def locs(self) -> np.ndarray:
        """All locations as a read-only (N, dim) array, stacked once at construction."""
        return self._locs

    def intensities(self) -> list[float | None]:
        return [n.intensity for n in self.nodes]

    def has_all_intensities(self) -> bool:
        return bool(self.nodes) and all(n.intensity is not None for n in self.nodes)

    def with_image(self, image: RasterImage | None) -> "PointCloud":
        return PointCloud(self.nodes, self.dim, image)


def unchecked_cloud(locs: np.ndarray, intensities: list[float | None],
                    dirs: list[np.ndarray | None] | None = None,
                    image: RasterImage | None = None) -> PointCloud:
    """A cloud built from parts that are valid by construction, skipping the
    per-node checks that ``Node`` and ``PointCloud`` run.

    ``locs`` is a finite float64 (N, 2) or (N, 3) array of distinct rows,
    ``intensities`` holds N floats in [0, 1] or None, ``dirs`` holds N unit
    axes or None (default: all None), and ``image`` is bound only to a 2-D
    cloud. Node ``k`` gets id ``k`` and row ``k`` of ``locs`` as its location.
    """
    locs = locs.view()
    locs.flags.writeable = False
    if dirs is None:
        dirs = [None] * len(locs)
    nodes = []
    for k, (loc, intensity, axis) in enumerate(zip(locs, intensities, dirs)):
        node = object.__new__(Node)
        node.__dict__.update(id=k, loc=loc, intensity=intensity, dir=axis)
        nodes.append(node)
    cloud = object.__new__(PointCloud)
    cloud.nodes, cloud.dim, cloud.image, cloud._locs = nodes, locs.shape[1], image, locs
    return cloud


@dataclass(frozen=True)
class LineFit:
    """Total-least-squares line summary of a point set."""

    centroid: np.ndarray  # mean location
    axis: np.ndarray      # unit principal axis (sign: largest component positive)
    std: float            # RMS orthogonal distance to the fitted line
    eccentricity: float   # sqrt(1 - lam2/lam1) of the two largest moments
    extent: float         # span of projections onto the axis


def _canonical_order(pts: np.ndarray) -> np.ndarray:
    # Lexicographic point order makes every accumulation order-independent,
    # so fit_line(points) == fit_line(shuffled points) bit for bit.
    return pts[np.lexsort(pts.T[::-1])]


def fit_line(points, presorted: bool = False) -> LineFit:
    """Fit a line by total least squares.

    The axis is the principal eigenvector of the second-moment matrix about
    the centroid; residuals are measured orthogonally to it. Coincident point
    sets have no axis and raise DegenerateInputError. ``presorted`` says the
    points are distinct and already in lexicographic order, so the sort into
    that order is skipped; the fit is the same bit for bit.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise DimensionMismatchError("points must be an (N, 2) or (N, 3) array")
    if len(pts) < 2:
        raise DegenerateInputError("need at least 2 points to fit a line")
    if not np.all(np.isfinite(pts)):
        raise InputError("points contain non-finite values")
    if not presorted:
        pts = _canonical_order(pts)
    centroid = pts.mean(axis=0)
    resid = pts - centroid
    if not np.any(resid):
        raise DegenerateInputError("all points coincide; line axis undefined")
    vals, vecs = np.linalg.eigh(resid.T @ resid / len(pts))  # ascending eigenvalues
    axis = vecs[:, -1]
    pivot = int(np.argmax(np.abs(axis)))
    if axis[pivot] < 0:
        axis = -axis
    proj = resid @ axis
    orth = resid - proj[:, None] * axis[None, :]
    std = float(np.sqrt((orth * orth).sum() / len(pts)))
    extent = float(proj.max() - proj.min())
    lam1 = float(vals[-1])
    lam2 = max(float(vals[-2]), 0.0)
    ecc = float(np.sqrt(max(1.0 - lam2 / lam1, 0.0)))
    return LineFit(centroid=centroid, axis=axis, std=std, eccentricity=ecc, extent=extent)


def _candidates(start: np.ndarray, counts: np.ndarray):
    """Source position ``k`` paired with each of ``start[k] + range(counts[k])``,
    as (sources, partners) arrays of about ``_CANDIDATE_BLOCK`` pairs at a time."""
    ends = np.cumsum(counts)
    first = 0
    while first < len(counts):
        done = int(ends[first - 1]) if first else 0
        last = max(first + 1, int(np.searchsorted(ends, done + _CANDIDATE_BLOCK, side="right")))
        part = counts[first:last]
        src = np.repeat(np.arange(first, last), part)
        yield src, np.arange(src.size) + np.repeat(start[first:last] - (np.cumsum(part) - part), part)
        first = last


def radius_pairs(locs: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs ``i < j`` within ``radius`` padded by 1e-9 relative, and their
    squared distances ``((locs[i] - locs[j]) ** 2).sum()``; callers apply
    their own exact cutoff to these.

    ``locs`` is an (N, dim) array of finite coordinates no larger than
    ``MAX_COORD`` in magnitude. The search is a grid of cubic cells of side
    ``reach / 2``, ``reach`` being the padded radius, raised so that no axis
    spans more than 2**20 cells. The points are sorted once by cell key,
    the last axis fastest. Two points within ``reach`` lie at most two cells
    apart on every axis, so each point finds its partners in 5**(dim - 1)
    key ranges of the sorted order: one per offset of the leading axes,
    with five cells of the last axis in each. Only the forward half of the
    offsets is searched, so each pair is found once. With at most 2**20
    cells per axis the cell coordinates round by less than 2**-31 cells,
    below the 2e-9 cells of the padding, so the pairs returned include
    every pair within ``radius``.

    For dim <= 3 a cell of side ``reach / 2`` has a diagonal below
    ``reach``, so all points of one cell are true pairs, and the candidates
    are O(N + pairs found), where a dense distance matrix takes O(N^2).
    Candidates are checked in blocks of ``_CANDIDATE_BLOCK``, so the memory
    stays O(N + pairs found) even when the 2**20 cap makes the cells coarse.
    """
    n, dim = locs.shape
    reach = radius * (1.0 + 1e-9)
    if n < 2:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    low = locs.min(axis=0)
    span = float((locs.max(axis=0) - low).max())
    # A zero radius over coincident points still needs a cell of some size.
    side = max(reach / 2.0, span / _MAX_CELLS) or 1.0
    # Each axis counts three cells more than it uses, so that a key range
    # that runs past either end of a row of cells meets only empty cells.
    cell = np.floor((locs - low) / side).astype(np.int64)
    stride = np.ones(dim, dtype=np.int64)
    for a in range(dim - 2, -1, -1):
        stride[a] = stride[a + 1] * (int(cell[:, a + 1].max()) + 3)
    key = cell @ stride
    order = np.argsort(key, kind="stable")
    key, pts = key[order], locs[order]
    axes = [np.ascontiguousarray(pts[:, a]) for a in range(dim)]
    pos = np.arange(n)
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for lead in itertools.product(range(-2, 3), repeat=dim - 1):
        shift = int(np.dot(lead, stride[:-1]))
        if shift < 0:
            continue
        # Within the own row of cells, only the points after this one.
        start = pos + 1 if shift == 0 else np.searchsorted(key, key + (shift - 2), side="left")
        stop = np.searchsorted(key, key + (shift + 2), side="right")
        for src, dst in _candidates(start, np.maximum(stop - start, 0)):
            # The filter sums per-axis squares, cheaper than the row sum but
            # possibly an ulp apart from it, far inside the padding. The d2
            # returned is the row sum; (a - b)**2 == (b - a)**2 exactly, so
            # it does not depend on which point of a pair comes first.
            near = sum((x[src] - x[dst]) ** 2 for x in axes) <= reach * reach
            src, dst = src[near], dst[near]
            diff = pts[src] - pts[dst]
            a, b = order[src], order[dst]
            found.append((np.minimum(a, b), np.maximum(a, b), (diff * diff).sum(axis=-1)))
    return tuple(map(np.concatenate, zip(*found)))


# ----------------------------------------------------------------------------
# Cloud CSV: header x,y[,z],intensity[,group]; intensity cells may be empty.


def read_cloud_csv(path: str | Path) -> tuple[PointCloud, list[set[int]] | None]:
    """Read a point-cloud CSV.

    Returns the cloud plus ground-truth groups when a ``group`` column is
    present (sets of node ids, ordered by ascending label), else None.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: empty cloud file")
    header = [h.strip() for h in rows[0]]
    if header[:2] != ["x", "y"]:
        raise InputError(f"{path}: cloud header must start with x,y")
    rest = header[2:]
    dim = 2
    if rest and rest[0] == "z":
        dim = 3
        rest = rest[1:]
    if not rest or rest[0] != "intensity":
        raise InputError(f"{path}: cloud header must contain an intensity column")
    has_group = rest[1:] == ["group"]
    if rest[1:] and not has_group:
        raise InputError(f"{path}: unexpected cloud columns {rest[1:]}")

    rows_locs: list[list[float]] = []
    intensities: list[float | None] = []
    labels: list[int] = []
    lines: list[int] = []
    ncols = dim + 1 + (1 if has_group else 0)
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != ncols:
            raise InputError(f"{path}:{lineno}: expected {ncols} columns, got {len(row)}")
        try:
            loc = [float(c) for c in row[:dim]]
            cell = row[dim].strip()
            inten = float(cell) if cell else None
            if has_group:
                labels.append(int(row[dim + 1]))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        rows_locs.append(loc)
        intensities.append(inten)
        lines.append(lineno)

    # The checks of Node and PointCloud, run once on the whole array.
    locs = np.array(rows_locs, dtype=np.float64).reshape(-1, dim)
    bad = np.flatnonzero(~np.isfinite(locs).all(axis=1))
    if bad.size:
        k = int(bad[0])
        raise InputError(f"{path}:{lines[k]}: node {k}: non-finite location")
    bad = np.flatnonzero((np.abs(locs) > MAX_COORD).any(axis=1))
    if bad.size:
        k = int(bad[0])
        raise InputError(f"{path}:{lines[k]}: node {k}: location {tuple(locs[k].tolist())} "
                         "has a coordinate beyond +-2**53")
    bad = [k for k, v in enumerate(intensities) if v is not None and not 0.0 <= v <= 1.0]
    if bad:
        k = bad[0]
        raise InputError(f"{path}:{lines[k]}: node {k}: intensity {intensities[k]} outside [0, 1]")
    # A stable sort puts equal locations next to each other in file order;
    # the first node that repeats an earlier location is reported.
    order = np.lexsort(locs.T[::-1])
    same = (locs[order[1:]] == locs[order[:-1]]).all(axis=1)
    if same.any():
        later, earlier = order[1:][same], order[:-1][same]
        j = int(later.argmin())
        k, first = int(later[j]), int(earlier[j])
        raise InputError(f"{path}:{lines[k]}: node {k}: duplicate node location "
                         f"{tuple(locs[k].tolist())} (first at line {lines[first]})")
    cloud = unchecked_cloud(locs, intensities)
    groups = None
    if has_group:
        members: dict[int, set[int]] = {}
        for nid, lab in enumerate(labels):
            members.setdefault(lab, set()).add(nid)
        groups = [members[lab] for lab in sorted(members)]
    return cloud, groups


def write_cloud_csv(path: str | Path, cloud: PointCloud, groups: list[set[int]] | None = None) -> None:
    """Write a cloud CSV; appends a group column when groups are given."""
    label_of: dict[int, int] = {}
    if groups is not None:
        for lab, members in enumerate(groups):
            for nid in members:
                label_of[nid] = lab
        missing = [n.id for n in cloud.nodes if n.id not in label_of]
        if missing:
            raise InputError(f"groups do not cover nodes {missing[:5]}")
    header = ["x", "y"] + (["z"] if cloud.dim == 3 else []) + ["intensity"]
    if groups is not None:
        header.append("group")
    lines = [",".join(header)]
    for node in cloud.nodes:
        cells = [repr(float(v)) for v in node.loc]
        cells.append("" if node.intensity is None else repr(float(node.intensity)))
        if groups is not None:
            cells.append(str(label_of[node.id]))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
