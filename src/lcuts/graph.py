"""Edge weights: distance, axis alignment, and on-segment intensity factors.

The affinity between two nodes is the product of three terms:

  w_distance  = exp(-D^2 / sigmaD^2) when D <= r, else 0
  w_direction = exp(-(c - 1)^2 / sigmaT^2), c = |dir_i . dir_j|
  w_intensity = m when m <= thresh else 1, m = min intensity sampled on the
                straight segment between the nodes

A missing direction on either endpoint, or a missing image, turns the
corresponding factor into 1. The intensity threshold is the midrange of the
node intensities minus their population variance.

Only pairs within ``r`` can have a nonzero weight, so ``build_adjacency``
finds them with the cell grid of ``radius_pairs``, evaluates the three
factors for all of them at once, and stores the products as a
``SparseGraph``: the node count and one row-major edge list, every pair
listed both ways, ``(rows, cols, weights)`` arrays that ``edges()``
returns. It takes O(N + pairs) memory, where a dense matrix takes 8 N^2
bytes. The clustering labels components from that list and hands each
component its own edges down the recursion, so nothing indexes it by row.
The segment minimum comes from ``segment_min_intensity``, the one sampler
that the clustering stop test uses as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, MissingDataError
from .geometry import PointCloud, radius_pairs
from .raster import RasterImage, bilinear_sample

# Smallest accepted intensity sampling step, in pixels. Along a segment a
# bilinear sample changes by at most sqrt(2) times the largest difference of
# adjacent pixels per pixel, so samples this close find a segment's minimum
# to within 1 % of that difference. The samples grow as 1 / step: a 60 px
# segment takes 6,001 here, and 6e13 (480 TB of float64) at a step of 1e-12.
MIN_SAMPLING_STEP = 0.01
# Samples that segment_min_intensity takes at once. Each needs about 170
# bytes of temporaries, so a block peaks near 2.7 MiB.
SAMPLE_BLOCK = 1 << 14


@dataclass(frozen=True)
class GraphParams:
    r: float = 60.0                        # hard distance cutoff, pixels
    sigma_d: float = 10.0                  # distance falloff scale
    sigma_t: float = 0.5                   # direction falloff scale
    intensity_sampling_step: float = 0.5   # segment sampling stride, pixels

    def __post_init__(self) -> None:
        # Written as "not 0 < x < inf" so that NaN fails too. An infinite r
        # asks radius_pairs for every pair.
        if not 0 < self.r < np.inf:
            raise InputError(f"r must be finite and > 0, got {self.r}")
        for name in ("sigma_d", "sigma_t"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.intensity_sampling_step >= MIN_SAMPLING_STEP:
            raise InputError(f"intensitySamplingStep must be >= {MIN_SAMPLING_STEP:g} px, "
                             f"got {self.intensity_sampling_step}")


class SparseGraph:
    """Symmetric affinity with zero diagonal and entries in [0, 1], held as
    its node count ``n`` and its nonzero entries, each pair listed both
    ways, as one row-major edge list (see ``edges``).

    The constructor takes a caller's dense matrix and checks it once;
    ``build_adjacency`` and ``permuted`` make valid edge lists, so they skip
    the checks.
    """

    def __init__(self, weights) -> None:
        if not isinstance(weights, np.ndarray):
            raise InputError(f"weights must be a dense array, got {type(weights).__name__}")
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InputError("weights must be a square matrix")
        # Written as "not 0 <= x <= 1" so that NaN fails too.
        if not ((w >= 0.0) & (w <= 1.0)).all():
            raise InputError("weights must lie in [0, 1]")
        if (w != w.T).any():
            raise InputError("weights must be exactly symmetric")
        if np.diagonal(w).any():
            raise InputError("self-weights must be zero")
        rows, cols = np.nonzero(w)
        self._hold(len(w), rows, cols, w[rows, cols])

    def _hold(self, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> "SparseGraph":
        for arr in (rows, cols, vals):
            arr.flags.writeable = False
        self.n, self._edges = n, (rows, cols, vals)
        return self

    @property
    def weights(self) -> np.ndarray:
        """A new dense N x N copy of the matrix, for tests and tracing; the
        clustering never reads it."""
        w = np.zeros((self.n, self.n))
        rows, cols, vals = self._edges
        w[rows, cols] = vals
        return w

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero entries as ``(rows, cols, weights)`` int64, int64 and
        float64 arrays in row-major order, so every pair twice, once each
        way. They are the graph's own arrays, read-only, not copies."""
        return self._edges

    def permuted(self, new_id: np.ndarray) -> "SparseGraph":
        """The same graph with node ``i`` renamed ``new_id[i]``, a permutation."""
        rows, cols, vals = self._edges
        return _canonical(self.n, new_id[rows], new_id[cols], vals)


def _canonical(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> SparseGraph:
    """The ``SparseGraph`` with entry ``vals[k]`` at ``(rows[k], cols[k])``.
    The positions must be distinct and off the diagonal, the entries in
    [0, 1], and the pattern symmetric; the zeros are dropped here."""
    nonzero = vals != 0.0
    rows, cols, vals = rows[nonzero].astype(np.int64), cols[nonzero].astype(np.int64), vals[nonzero]
    # One key per position, row-major; the keys are distinct, so any sort
    # gives the (row, column) order.
    order = np.argsort(rows * n + cols)
    return SparseGraph.__new__(SparseGraph)._hold(n, rows[order], cols[order], vals[order])


def intensity_threshold(cloud: PointCloud) -> float:
    """Midrange minus population variance of the node intensities."""
    if not cloud.has_all_intensities():
        raise MissingDataError("intensity threshold needs an intensity on every node")
    arr = cloud.intensities()
    mid = (float(arr.max()) + float(arr.min())) / 2.0
    return mid - float(arr.var())


def segment_min_intensity(image: RasterImage, p: np.ndarray, q: np.ndarray,
                          step: float) -> np.ndarray:
    """Minimum bilinear sample along each straight segment p[k] -> q[k].

    ``p`` and ``q`` are (K, 2) endpoint arrays; returns the K minima. Samples
    are evenly spaced, at most ``step`` apart, endpoints included: sample j
    of a segment with ``count`` samples sits at ``t = j * (1 / (count - 1))``,
    and the last at ``t = 1``, as ``np.linspace(0, 1, count)`` places them.
    The samples of all segments are taken in one pass over their
    concatenation, ``SAMPLE_BLOCK`` at a time, so memory stays bounded
    however many samples there are.
    """
    seg = q - p
    length = np.sqrt((seg * seg).sum(axis=-1))
    counts = np.maximum(2, np.ceil(length / step).astype(np.int64) + 1)
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(counts.sum())
    spacing = 1.0 / (counts - 1)
    mins = np.full(len(counts), np.inf)
    for b0 in range(0, total, SAMPLE_BLOCK):
        b1 = min(b0 + SAMPLE_BLOCK, total)
        # Segments s0 .. s1 - 1 have samples in [b0, b1).
        s0 = int(np.searchsorted(ends, b0, side="right"))
        s1 = int(np.searchsorted(starts, b1, side="left"))
        first = np.maximum(starts[s0:s1], b0) - b0
        owner = np.repeat(np.arange(s0, s1), np.diff(np.append(first, b1 - b0)))
        j = np.arange(b0, b1) - starts[owner]
        t = j * spacing[owner]
        t[j == counts[owner] - 1] = 1.0
        vals = bilinear_sample(image, p[owner, 0] + t * seg[owner, 0],
                               p[owner, 1] + t * seg[owner, 1])
        np.minimum(mins[s0:s1], np.minimum.reduceat(vals, first), out=mins[s0:s1])
    return mins


def build_adjacency(cloud: PointCloud, params: GraphParams,
                    thresh: float | None = None) -> SparseGraph:
    """Sparse affinity matrix over the cloud.

    The intensity factor participates only when an image is bound and every
    node carries an intensity; ``thresh`` can be passed to reuse a value
    computed elsewhere, otherwise it is derived here.
    """
    n = len(cloud)
    locs = cloud.locs()
    ii, jj, d2 = radius_pairs(locs, params.r)
    dist = np.sqrt(d2)
    near = dist <= params.r
    ii, jj, dist = ii[near], jj[near], dist[near]
    wd = np.exp(-(dist ** 2) / params.sigma_d ** 2)

    # A node without a direction has a NaN row, read here as zeros.
    present = ~np.isnan(cloud.dirs()[:, 0])
    dirs = np.nan_to_num(cloud.dirs())
    # Coordinate-ordered accumulation from 0.0, as in the scalar oracle of
    # tests/oracles.py.
    dots = np.zeros(ii.size)
    for k in range(cloud.dim):
        dots += dirs[ii, k] * dirs[jj, k]
    cos = np.clip(np.abs(dots), 0.0, 1.0)
    wt_raw = np.exp(-((cos - 1.0) ** 2) / params.sigma_t ** 2)
    wt = np.where(present[ii] & present[jj], wt_raw, 1.0)

    if cloud.image is not None and cloud.has_all_intensities():
        if thresh is None:
            thresh = intensity_threshold(cloud)
        m = segment_min_intensity(cloud.image, locs[ii], locs[jj], params.intensity_sampling_step)
        wi = np.where(m <= thresh, m, 1.0)
    else:
        wi = 1.0

    # Symmetric with a zero diagonal (pairs have i < j) and in [0, 1], since
    # each factor is, so it is not checked again.
    w = wd * wt * wi
    return _canonical(n, np.concatenate((ii, jj)), np.concatenate((jj, ii)), np.concatenate((w, w)))


def write_adjacency_csv(path: str | Path, graph: SparseGraph) -> None:
    """Dump the matrix as an edge list: the header ``i,j,w``, then one line
    ``i,j,w`` per stored pair with ``i < j``, in row-major order, with the
    weight at full float precision."""
    rows, cols, vals = graph.edges()
    upper = rows < cols
    lines = map("{},{},{!r}\n".format, rows[upper].tolist(), cols[upper].tolist(),
                vals[upper].tolist())
    Path(path).write_text("i,j,w\n" + "".join(lines), encoding="utf-8")
