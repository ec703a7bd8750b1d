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
once, and stores the products as one symmetric CSR matrix, a
``SparseGraph``: it takes O(N + pairs) memory, where a dense matrix takes
8 N^2 bytes. The clustering gathers a dense block, a plain ``ndarray``, only
for the nodes that a Fiedler sweep needs, with ``SparseGraph.restrict``. The
segment minimum comes from ``segment_min_intensity``, the one sampler that
the clustering stop test uses as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

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


class SparseGraph:
    """Symmetric affinity with zero diagonal and entries in [0, 1], held as
    one canonical CSR matrix ``csr``: sorted column indices, no duplicate
    and no explicit zero entries.

    The constructor takes a caller's dense or sparse matrix and checks it
    once; ``build_adjacency`` and ``permuted`` make valid matrices, so they
    skip the checks.
    """

    def __init__(self, weights) -> None:
        csr = sparse.csr_array(weights, dtype=np.float64, copy=True)
        if csr.ndim != 2 or csr.shape[0] != csr.shape[1]:
            raise InputError("weights must be a square matrix")
        csr.sum_duplicates()
        # Written as "not 0 <= x <= 1" so that NaN fails too.
        if not ((csr.data >= 0.0) & (csr.data <= 1.0)).all():
            raise InputError("weights must lie in [0, 1]")
        if (csr != csr.T).nnz:
            raise InputError("weights must be exactly symmetric")
        if csr.diagonal().any():
            raise InputError("self-weights must be zero")
        csr.eliminate_zeros()
        self.csr = csr

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """A new dense N x N copy of the matrix; the clustering never reads it."""
        return self.csr.toarray()

    def restrict(self, ids) -> np.ndarray:
        """The dense principal submatrix on the distinct node ids ``ids``, in
        that order, as a new float64 array gathered from their CSR rows:
        equal bit for bit to ``weights[np.ix_(ids, ids)]``, without an N x N
        array. It is symmetric with a zero diagonal and entries in [0, 1],
        as the whole matrix is."""
        ids = np.asarray(ids, dtype=np.int64)
        k = len(ids)
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[ids] = np.arange(k)
        indptr, indices, data = self.csr.indptr, self.csr.indices, self.csr.data
        starts, counts = indptr[ids], indptr[ids + 1] - indptr[ids]
        # Each stored entry of the chosen rows: its block row and its slot.
        rows = np.repeat(np.arange(k), counts)
        slots = np.arange(rows.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        cols = pos[indices[slots]]
        inside = cols >= 0
        block = np.zeros((k, k))
        block[rows[inside], cols[inside]] = data[slots[inside]]
        return block

    def permuted(self, new_id: np.ndarray) -> "SparseGraph":
        """The same graph with node ``i`` renamed ``new_id[i]``, a permutation."""
        rows = np.repeat(np.arange(self.n), np.diff(self.csr.indptr))
        return _canonical(self.n, new_id[rows], new_id[self.csr.indices], self.csr.data)

    def rows(self):
        """The dense rows of the matrix, in order, one new array at a time."""
        indptr, indices, data = self.csr.indptr, self.csr.indices, self.csr.data
        for k in range(self.n):
            row = np.zeros(self.n)
            row[indices[indptr[k]:indptr[k + 1]]] = data[indptr[k]:indptr[k + 1]]
            yield row


def _canonical(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> SparseGraph:
    """The ``SparseGraph`` with entry ``vals[k]`` at ``(rows[k], cols[k])``.
    The positions must be distinct and off the diagonal, the entries in
    [0, 1], and the pattern symmetric; the zeros are dropped here."""
    nonzero = vals != 0.0
    rows, cols, vals = rows[nonzero], cols[nonzero], vals[nonzero]
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    graph = object.__new__(SparseGraph)
    graph.csr = sparse.csr_array((vals[order], cols[order], indptr), shape=(n, n))
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

    # Symmetric with a zero diagonal (pairs have i < j) and in [0, 1], since
    # each factor is, so it is not checked again.
    w = wd * wt * wi
    return _canonical(n, np.concatenate((ii, jj)), np.concatenate((jj, ii)), np.concatenate((w, w)))


def write_adjacency_csv(path: str | Path, graph: SparseGraph) -> None:
    """Dump the full matrix, one row per line, full float precision.

    Rows are made and written one at a time, so no more than one dense row
    and one line of text are held in memory. The bytes are those of
    ``"\\n".join(rows) + "\\n"``; an empty matrix gives a single newline."""
    with Path(path).open("w", encoding="utf-8") as out:
        for k, row in enumerate(graph.rows()):
            out.write(("\n" if k else "") + ",".join(map(repr, row.tolist())))
        out.write("\n")
