"""Edge weights: distance, axis alignment, and on-segment intensity factors.

The affinity between two nodes is the product of three terms:

  w_distance  = exp(-D^2 / sigmaD^2) when D <= r, else 0
  w_direction = exp(-(c - 1)^2 / sigmaT^2), c = |dir_i . dir_j|
  w_intensity = m when m <= thresh else 1, m = min intensity sampled on the
                straight segment between the nodes

A missing direction on either endpoint turns the direction factor into 1,
and no threshold the intensity factor. ``lcuts`` passes the threshold when
an image is bound and every node carries an intensity: the midrange of the
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

    ``SparseGraph(n, rows, cols, weights)`` holds entry ``weights[k]`` at
    ``(rows[k], cols[k])``, with the zeros dropped, sorted row-major. It
    checks nothing: the positions must be distinct and off the diagonal, the
    entries in [0, 1], and the pattern symmetric, as ``build_adjacency``
    makes them.
    """

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> None:
        # One key per position, row-major; the keys are distinct, so any sort
        # gives the (row, column) order. The zeros are dropped from that
        # order, not before it: the call holds the caller's arrays until it
        # returns, so filtered copies would only add to the peak.
        order = np.argsort(rows.astype(np.int64) * n + cols)
        order = order[weights[order] != 0.0]
        self.n, self._edges = n, (rows[order].astype(np.int64, copy=False),
                                  cols[order].astype(np.int64, copy=False), weights[order])
        for arr in self._edges:
            arr.flags.writeable = False

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

    The intensity factor applies exactly when ``thresh`` is given, and then
    needs the cloud's bound image; ``lcuts`` decides whether to pass one.
    """
    if thresh is not None and cloud.image is None:
        raise MissingDataError("the intensity factor needs an image bound to the cloud")
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

    if thresh is not None:
        m = segment_min_intensity(cloud.image, locs[ii], locs[jj], params.intensity_sampling_step)
        wi = np.where(m <= thresh, m, 1.0)
    else:
        wi = 1.0

    # Symmetric with a zero diagonal (pairs have i < j) and in [0, 1], since
    # each factor is, so it is not checked again.
    w = wd * wt * wi
    return SparseGraph(n, np.concatenate((ii, jj)), np.concatenate((jj, ii)), np.concatenate((w, w)))


def write_adjacency_csv(path: str | Path, graph: SparseGraph, names: np.ndarray) -> None:
    """Dump the matrix as an edge list under the node names ``names[k]`` of
    its rows, a permutation: the header ``i,j,w``, then one line ``i,j,w``
    per stored pair with ``i < j`` in names, in row-major order of the
    names, with the weight at full float precision."""
    rows, cols, vals = graph.edges()
    i, j = names[rows], names[cols]
    upper = np.flatnonzero(i < j)
    upper = upper[np.argsort(i[upper] * graph.n + j[upper])]
    lines = map("{},{},{!r}\n".format, i[upper].tolist(), j[upper].tolist(), vals[upper].tolist())
    Path(path).write_text("i,j,w\n" + "".join(lines), encoding="utf-8")
