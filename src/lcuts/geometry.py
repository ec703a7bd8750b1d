"""Spatial primitives: point clouds, node records, line fits, and cloud CSV IO.

Locations are in pixel units, 2-D (x, y) or 3-D (x, y, z), with the raster
convention that y grows downward. A ``PointCloud`` is arrays: locations,
intensities and directions, one row per node, with NaN where a node has no
intensity or no direction. One vectorized validator checks a cloud's arrays
once, whichever way it is built; the CSV reader maps the node it names to
the file line. A ``Node`` is a plain record, checked only as part of the
cloud built from it. ``PointCloud.nodes`` gives the records for callers
that want them; the library reads only the arrays.

A total-least-squares line fit summarizes a group of points by its
principal axis; the orthogonal residual spread and the projection span onto
that axis drive the clustering stop rules.

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
from typing import Iterable

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError, InputError, NodeError
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
    """One point of a cloud, as a record.

    ``intensity`` is the image brightness at the node (absent for plain
    clouds); ``dir`` is the locally estimated unit axis (absent until
    direction assignment runs, or when the node has no neighbors). A record
    is not checked on its own: ``PointCloud(nodes, dim)`` checks all the
    records of a cloud at once, with the cloud's validator.
    """

    id: int
    loc: np.ndarray
    intensity: float | None = None
    dir: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "loc", np.asarray(self.loc, dtype=np.float64))
        if self.dir is not None:
            object.__setattr__(self, "dir", np.asarray(self.dir, dtype=np.float64))


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def duplicates(locs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``locs`` that equal an earlier row, and for each the row
    just before it among its equals. Rows compare by float ``==``, so -0.0
    equals 0.0. A stable sort puts equal rows next to each other in index
    order."""
    order = np.lexsort(locs.T[::-1])
    same = (locs[order[1:]] == locs[order[:-1]]).all(axis=1)
    return order[1:][same], order[:-1][same]


def _check_nodes(locs: np.ndarray, intensities: np.ndarray, given: np.ndarray,
                 dirs: np.ndarray, image: RasterImage | None) -> None:
    """The checks of a cloud, on its whole arrays.

    Raises NodeError for the first node that fails the first failing check,
    in this order: a non-finite location; a coordinate beyond ``MAX_COORD``;
    an intensity outside [0, 1], NaN included, where ``given`` marks one; a
    direction row neither all NaN nor of unit length; a location outside
    the bound image; a location equal to an earlier node's.
    """
    h, w = (0, 0) if image is None else image.pixels.shape
    x, y = locs[:, 0], locs[:, 1]
    unit = np.abs(np.linalg.norm(dirs, axis=1) - 1.0) <= 1e-9
    faults = [(~np.isfinite(locs).all(axis=1), "non-finite location"),
              ((np.abs(locs) > MAX_COORD).any(axis=1), "location {loc} has a coordinate beyond +-2**53"),
              (given & ~((intensities >= 0.0) & (intensities <= 1.0)), "intensity {value} outside [0, 1]"),
              (~unit & ~np.isnan(dirs).all(axis=1), "dir is not unit length"),
              ((image is not None) & ((x < 0.0) | (x > w - 1) | (y < 0.0) | (y > h - 1)),
               "location {loc} lies outside the {w} x {h} image")]
    for mask, reason in faults:
        k = _first(mask)
        if k is not None:
            raise NodeError(k, reason.format(loc=tuple(locs[k].tolist()), value=float(intensities[k]), w=w, h=h))
    later, earlier = duplicates(locs)
    if later.size:
        j = int(later.argmin())
        k = int(later[j])
        raise NodeError(k, f"duplicate node location {tuple(locs[k].tolist())}", first=int(earlier[j]))


class PointCloud:
    """N nodes with ids 0..N-1 and a common dimension, held as arrays.

    ``locs()`` is (N, dim), ``intensities()`` (N,) with NaN where a node has
    no intensity, and ``dirs()`` (N, dim) with a NaN row where a node has no
    direction; all are float64 and read-only. ``image`` optionally binds the
    raster the nodes were extracted from, which must cover every node; it is
    required for any intensity-based weighting or stop checks.

    ``PointCloud(nodes, dim, image)`` builds a cloud from ``Node`` records
    and ``PointCloud.from_arrays`` from arrays; both run one validator.
    """

    def __init__(self, nodes: Iterable[Node], dim: int, image: RasterImage | None = None) -> None:
        if dim not in (2, 3):
            raise DimensionMismatchError(f"dim must be 2 or 3, got {dim}")
        nodes = list(nodes)
        for node in nodes:
            if node.loc.shape not in ((2,), (3,)):
                raise DimensionMismatchError(f"node {node.id}: loc must be a 2- or 3-vector")
            if node.dir is not None and node.dir.shape != node.loc.shape:
                raise DimensionMismatchError(f"node {node.id}: dir/loc dimension mismatch")
        ids = np.array([node.id for node in nodes], dtype=np.int64)
        k = _first(ids != np.arange(len(nodes)))
        if k is not None:
            raise InputError(f"node ids must be 0..N-1 in order (index {k} has id {ids[k]})")
        sizes = np.array([node.loc.shape[0] for node in nodes], dtype=np.int64)
        k = _first(sizes != dim)
        if k is not None:
            raise DimensionMismatchError(f"node {k} has dimension {sizes[k]}, cloud is {dim}-D")
        absent = np.full(dim, np.nan)
        self._bind(np.array([node.loc for node in nodes]).reshape(-1, dim),
                   [np.nan if node.intensity is None else node.intensity for node in nodes],
                   np.array([absent if node.dir is None else node.dir for node in nodes]).reshape(-1, dim),
                   image, given=np.array([node.intensity is not None for node in nodes], dtype=bool))

    @classmethod
    def from_arrays(cls, locs, intensities=None, dirs=None,
                    image: RasterImage | None = None) -> "PointCloud":
        """A cloud holding copies of the given arrays: ``locs`` (N, 2) or
        (N, 3); ``intensities`` (N,), NaN where a node has none; ``dirs``
        (N, dim), a NaN row where a node has none. Left out, no node has
        an intensity or a direction."""
        cloud = cls.__new__(cls)
        cloud._bind(locs, intensities, dirs, image)
        return cloud

    def _bind(self, locs, intensities, dirs, image: RasterImage | None,
              given: np.ndarray | None = None) -> None:
        """Check and store the arrays. ``given`` marks the nodes that have an
        intensity; by default those whose intensity is not NaN."""
        locs = np.array(locs, dtype=np.float64)
        if locs.ndim != 2 or locs.shape[1] not in (2, 3):
            raise DimensionMismatchError("locs must be an (N, 2) or (N, 3) array")
        n, dim = locs.shape
        intensities = np.full(n, np.nan) if intensities is None else np.array(intensities, dtype=np.float64)
        dirs = np.full((n, dim), np.nan) if dirs is None else np.array(dirs, dtype=np.float64)
        if intensities.shape != (n,) or dirs.shape != (n, dim):
            raise DimensionMismatchError(f"intensities must be ({n},) and dirs ({n}, {dim})")
        if image is not None and dim != 2:
            raise DimensionMismatchError("only 2-D clouds can bind an image")
        _check_nodes(locs, intensities, ~np.isnan(intensities) if given is None else given,
                     dirs, image)
        for arr in (locs, intensities, dirs):
            arr.flags.writeable = False
        self._locs, self._intensities, self._dirs = locs, intensities, dirs
        self.dim, self.image = dim, image
        self._nodes: tuple[Node, ...] | None = None

    def __len__(self) -> int:
        return len(self._locs)

    def locs(self) -> np.ndarray:
        """All locations as a read-only (N, dim) array."""
        return self._locs

    def intensities(self) -> np.ndarray:
        """All intensities as a read-only (N,) array, NaN where a node has none."""
        return self._intensities

    def dirs(self) -> np.ndarray:
        """All unit axes as a read-only (N, dim) array, a NaN row where a node has none."""
        return self._dirs

    @property
    def nodes(self) -> list[Node]:
        """The nodes as ``Node`` records, in a new list on each access. The
        records are built on the first access and not checked again; no
        library code reads them."""
        if self._nodes is None:
            self._nodes = tuple(
                Node(k, loc, None if np.isnan(v) else v, None if np.isnan(axis[0]) else axis)
                for k, (loc, v, axis) in enumerate(zip(self._locs, self._intensities.tolist(), self._dirs)))
        return list(self._nodes)

    def has_all_intensities(self) -> bool:
        return bool(len(self)) and not np.isnan(self._intensities).any()

    def with_image(self, image: RasterImage | None) -> "PointCloud":
        return PointCloud.from_arrays(self._locs, self._intensities, self._dirs, image)


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
    Where the 2**20 cap would make the cells coarser, as far outliers do,
    the points are first split at every gap wider than ``reach`` along one
    axis, which no pair crosses, and each part gets a grid of its own, from
    its own span. Only a part without such a gap, a chain of over 2**19
    points, is searched on coarse cells; candidates are checked in blocks
    of ``_CANDIDATE_BLOCK``, so the memory stays O(N + pairs found) even then.
    """
    reach = radius * (1.0 + 1e-9)
    found = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]
    parts = [np.arange(len(locs))] if len(locs) > 1 else []
    while parts:
        ids = parts.pop()
        pieces = _gap_split(locs[ids], reach)
        parts.extend(ids[piece] for piece in pieces if len(piece) > 1)
        if not pieces:
            found.extend(_grid_pairs(locs[ids], ids, reach))
    return tuple(map(np.concatenate, zip(*found)))


def _gap_split(pts: np.ndarray, reach: float) -> list[np.ndarray]:
    """The rows of ``pts`` split at every gap wider than ``reach`` along the
    first axis that has one, as arrays of row numbers; no parts when the
    grid needs no cells coarser than ``reach / 2`` or no axis has such a
    gap. A computed gap is never wider than the true one, so no pair within
    ``reach`` is split apart."""
    if np.ptp(pts, axis=0).max() / _MAX_CELLS > reach / 2.0:
        for a in range(pts.shape[1]):
            order = np.argsort(pts[:, a], kind="stable")
            cuts = np.flatnonzero(np.diff(pts[order, a]) > reach) + 1
            if cuts.size:
                return np.split(order, cuts)
    return []


def _grid_pairs(pts: np.ndarray, ids: np.ndarray, reach: float):
    """The candidate pairs within ``reach`` among the points ``pts``, found
    by the cell grid of ``radius_pairs`` and named by ``ids``, as a list of
    (i, j, d2) array triples."""
    n, dim = pts.shape
    low = pts.min(axis=0)
    span = float((pts.max(axis=0) - low).max())
    # A zero radius over coincident points still needs a cell of some size.
    side = max(reach / 2.0, span / _MAX_CELLS) or 1.0
    # Each axis counts three cells more than it uses, so that a key range
    # that runs past either end of a row of cells meets only empty cells.
    cell = np.floor((pts - low) / side).astype(np.int64)
    stride = np.ones(dim, dtype=np.int64)
    for a in range(dim - 2, -1, -1):
        stride[a] = stride[a + 1] * (int(cell[:, a + 1].max()) + 3)
    key = cell @ stride
    order = np.argsort(key, kind="stable")
    key, pts, order = key[order], pts[order], ids[order]
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
    return found


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
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
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
    intensities: list[float] = []
    given: list[bool] = []
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
            inten = float(cell) if cell else np.nan
            if has_group:
                labels.append(int(row[dim + 1]))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        rows_locs.append(loc)
        intensities.append(inten)
        # An empty cell is no intensity; the text "nan" is an invalid one.
        given.append(bool(cell))
        lines.append(lineno)

    cloud = PointCloud.__new__(PointCloud)
    try:
        cloud._bind(np.array(rows_locs, dtype=np.float64).reshape(-1, dim), intensities, None, None,
                    given=np.array(given, dtype=bool))
    except NodeError as exc:
        first = "" if exc.first is None else f" (first at line {lines[exc.first]})"
        raise InputError(f"{path}:{lines[exc.node]}: node {exc.node}: {exc.reason}{first}") from None
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
        missing = [k for k in range(len(cloud)) if k not in label_of]
        if missing:
            raise InputError(f"groups do not cover nodes {missing[:5]}")
    header = ["x", "y"] + (["z"] if cloud.dim == 3 else []) + ["intensity"]
    if groups is not None:
        header.append("group")
    lines = [",".join(header)]
    for k, (loc, intensity) in enumerate(zip(cloud.locs().tolist(), cloud.intensities().tolist())):
        cells = [repr(v) for v in loc]
        cells.append("" if np.isnan(intensity) else repr(intensity))
        if groups is not None:
            cells.append(str(label_of[k]))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
