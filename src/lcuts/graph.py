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
finds them with a k-d tree, evaluates the three factors for all of them at
once, and scatters the products into a dense symmetric matrix. The segment
minimum comes from ``segment_min_intensity``, the one sampler that the
clustering stop test uses as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, MissingDataError
from .geometry import PointCloud, radius_pairs
from .raster import RasterImage, bilinear_sample


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
        for name in ("sigma_d", "sigma_t", "intensity_sampling_step"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass
class WeightedGraph:
    """Dense symmetric affinity matrix with zero diagonal, entries in [0, 1]."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InputError("weights must be a square matrix")
        if w.size and not np.array_equal(w, w.T):
            raise InputError("weights must be exactly symmetric")
        if w.size and (w.min() < 0.0 or w.max() > 1.0):
            raise InputError("weights must lie in [0, 1]")
        if np.any(np.diagonal(w) != 0.0):
            raise InputError("self-weights must be zero")
        self.weights = w

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def restrict(self, ids) -> "WeightedGraph":
        """The principal submatrix on the distinct node ids ``ids``, in that
        order. It is valid because this matrix is, so it is not checked again."""
        return _unchecked(self.weights[np.ix_(ids, ids)])


def _unchecked(weights: np.ndarray) -> WeightedGraph:
    """Wrap a float64 matrix that is a valid affinity by construction,
    skipping the O(N^2) checks that ``WeightedGraph(weights)`` runs."""
    graph = object.__new__(WeightedGraph)
    graph.weights = weights
    return graph


def intensity_threshold(cloud: PointCloud) -> float:
    """Midrange minus population variance of the node intensities."""
    vals = [n.intensity for n in cloud.nodes]
    if not vals or any(v is None for v in vals):
        raise MissingDataError("intensity threshold needs an intensity on every node")
    arr = np.asarray(vals, dtype=np.float64)
    mid = (float(arr.max()) + float(arr.min())) / 2.0
    return mid - float(arr.var())


def segment_min_intensity(image: RasterImage, p: np.ndarray, q: np.ndarray,
                          step: float) -> np.ndarray:
    """Minimum bilinear sample along each straight segment p[k] -> q[k].

    ``p`` and ``q`` are (K, 2) endpoint arrays; returns the K minima. Samples
    are evenly spaced, at most ``step`` apart, endpoints included. Segments
    with the same sample count are sampled together.
    """
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


def build_adjacency(cloud: PointCloud, params: GraphParams,
                    thresh: float | None = None) -> WeightedGraph:
    """Full affinity matrix over the cloud.

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

    dirs = np.zeros((n, cloud.dim))
    present = np.zeros(n, dtype=bool)
    for node in cloud.nodes:
        if node.dir is not None:
            dirs[node.id] = node.dir
            present[node.id] = True
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

    w = np.zeros((n, n))
    # Symmetric with a zero diagonal (pairs have i < j) and in [0, 1], since
    # each factor is; checking that again would cost O(N^2).
    w[ii, jj] = w[jj, ii] = wd * wt * wi
    return _unchecked(w)


def write_adjacency_csv(path: str | Path, graph: WeightedGraph) -> None:
    """Dump the full matrix, one row per line, full float precision.

    Rows are written one at a time, so no more than one line of text is
    held in memory. The bytes are those of ``"\\n".join(rows) + "\\n"``; an
    empty matrix gives a single newline."""
    with Path(path).open("w", encoding="utf-8") as out:
        for k, row in enumerate(graph.weights):
            out.write(("\n" if k else "") + ",".join(map(repr, row.tolist())))
        out.write("\n")
