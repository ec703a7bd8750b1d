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
finds them with a k-d tree, evaluates the three factors per pair, and
scatters the products into a dense symmetric matrix. The scalar factor
functions compute the same values one pair at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, InputError, MissingDataError
from .geometry import PointCloud, radius_pairs
from .raster import RasterImage, bilinear_sample


@dataclass(frozen=True)
class GraphParams:
    r: float = 60.0                        # hard distance cutoff, pixels
    sigma_d: float = 10.0                  # distance falloff scale
    sigma_t: float = 0.5                   # direction falloff scale
    intensity_sampling_step: float = 0.5   # segment sampling stride, pixels

    def __post_init__(self) -> None:
        for name in ("r", "sigma_d", "sigma_t", "intensity_sampling_step"):
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
        sub = object.__new__(WeightedGraph)
        sub.weights = self.weights[np.ix_(ids, ids)]
        return sub


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


def intensity_threshold(cloud: PointCloud) -> float:
    """Midrange minus population variance of the node intensities."""
    vals = [n.intensity for n in cloud.nodes]
    if not vals or any(v is None for v in vals):
        raise MissingDataError("intensity threshold needs an intensity on every node")
    arr = np.asarray(vals, dtype=np.float64)
    mid = (float(arr.max()) + float(arr.min())) / 2.0
    return mid - float(arr.var())


def segment_min_intensity(image: RasterImage, p, q, step: float) -> float:
    """Minimum bilinear sample along the straight segment p -> q.

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


def weight_intensity(cloud: PointCloud, i: int, j: int, thresh: float,
                     params: GraphParams) -> float:
    """Intensity factor for the node pair (i, j) against the bound image.

    The segment always runs from the lower to the higher id, which keeps the
    sampled set, and therefore the factor, exactly symmetric.
    """
    if cloud.image is None:
        raise MissingDataError("weight_intensity needs a bound image")
    lo, hi = (i, j) if i <= j else (j, i)
    m = segment_min_intensity(cloud.image, cloud.nodes[lo].loc, cloud.nodes[hi].loc,
                              params.intensity_sampling_step)
    return m if m <= thresh else 1.0


def _intensity_factor(cloud: PointCloud, ii: np.ndarray, jj: np.ndarray, dist: np.ndarray,
                      thresh: float, step: float) -> np.ndarray:
    """Vectorized intensity factor for the pairs (ii, jj), ii < jj, at distances ``dist``."""
    locs = cloud.locs()
    counts = np.maximum(2, np.ceil(dist / step).astype(np.int64) + 1)
    factors = np.ones(ii.size)
    for count in np.unique(counts):
        sel = np.nonzero(counts == count)[0]
        p = locs[ii[sel]]
        q = locs[jj[sel]]
        ts = np.linspace(0.0, 1.0, int(count))
        pts = p[:, None, :] + ts[None, :, None] * (q - p)[:, None, :]
        vals = bilinear_sample(cloud.image, pts[..., 0].ravel(), pts[..., 1].ravel())
        mins = vals.reshape(len(sel), int(count)).min(axis=1)
        factors[sel] = np.where(mins <= thresh, mins, 1.0)
    return factors


def build_adjacency(cloud: PointCloud, params: GraphParams,
                    thresh: float | None = None) -> WeightedGraph:
    """Full affinity matrix over the cloud.

    The intensity factor participates only when an image is bound and every
    node carries an intensity; ``thresh`` can be passed to reuse a value
    computed elsewhere, otherwise it is derived here.
    """
    n = len(cloud)
    ii, jj, d2 = radius_pairs(cloud.locs(), params.r)
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
    # Coordinate-ordered accumulation from 0.0, as in weight_direction.
    dots = np.zeros(ii.size)
    for k in range(cloud.dim):
        dots += dirs[ii, k] * dirs[jj, k]
    cos = np.clip(np.abs(dots), 0.0, 1.0)
    wt_raw = np.exp(-((cos - 1.0) ** 2) / params.sigma_t ** 2)
    wt = np.where(present[ii] & present[jj], wt_raw, 1.0)

    if cloud.image is not None and cloud.has_all_intensities():
        if thresh is None:
            thresh = intensity_threshold(cloud)
        wi = _intensity_factor(cloud, ii, jj, dist, thresh, params.intensity_sampling_step)
    else:
        wi = 1.0

    w = np.zeros((n, n))
    w[ii, jj] = w[jj, ii] = wd * wt * wi
    return WeightedGraph(w)


def write_adjacency_csv(path: str | Path, graph: WeightedGraph) -> None:
    """Dump the full matrix, one row per line, full float precision."""
    lines = [",".join(repr(float(v)) for v in row) for row in graph.weights]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
