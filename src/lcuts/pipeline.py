"""Image to point cloud: smooth, flatten the background, pick ridge maxima.

The stages mirror the usual centerline-seeding recipe: a separable Gaussian
filter suppresses pixel noise, a grayscale opening with a generous disk
estimates the background which is then subtracted, local maxima of the
enhanced image become candidate nodes, and pruning removes duplicates and
isolated detections. The returned cloud stays bound to the enhanced image so
downstream intensity sampling sees exactly what the detector saw.

The disk is a stack of centered horizontal segments, so the opening runs as
1-D row minima and maxima (the van Herk / Gil-Werman decomposition): one
``minimum_filter1d`` or ``maximum_filter1d`` per distinct segment width,
folded over the row offsets that use it. Min and max never round, so this
equals the 2-D footprint filter bit for bit. Pruning finds close detections
with the cell grid of ``radius_pairs`` rather than comparing every pair.

The smoothing, the opening and the maxima each read only rows near the row
they compute, so each runs on one band of rows per available CPU, in
threads, with bands that overlap by the rows the filter reads
(``_row_bands``). Every kept row reads the same pixels as in the whole
image and takes the same arithmetic, so the result does not depend on the
number of CPUs. A plateau's first pixel is found by one comparison per
earlier window offset over all candidates, not by a loop over them.

``scipy.ndimage`` is loaded by the first filter that runs, so importing this
module, as every ``lcuts`` command does, does not load it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import PointCloud, radius_pairs
from .raster import RasterImage, bilinear_sample

# scipy.ndimage is imported inside gaussian_filter, _open_disk and
# find_local_maxima, not here: loading it costs about 50 ms and pulls in
# scipy.special, and only the extract command runs these filters. The
# thread pool of _row_bands is imported there for the same reason.


# Largest accepted background radius, in pixels. The opening costs time in
# proportion to the radius times the padded image. On a 699 x 699 image with
# 2 CPUs it takes about 2.6 s and 22 MiB of temporaries at this bound, where
# the image is too short for two row bands, and 0.027 s at the default of
# 15 px.
MAX_BACKGROUND_RADIUS = 500.0
# Largest accepted smoothing scale, in pixels. The kernel has 6 sigma + 1
# taps, so the filter costs time in proportion to sigma times the image. On
# a 699 x 699 image with 2 CPUs it takes about 0.2 s at this bound, in one
# band, and 0.006 s at the default of 1.5 px. A ridge a few pixels wide is
# gone long before it.
MAX_GAUSSIAN_SIGMA = 100.0


@dataclass(frozen=True)
class PipelineParams:
    """Extraction settings. ``gaussian_sigma`` must lie in
    (0, ``MAX_GAUSSIAN_SIGMA``] = (0, 100] pixels, and ``background_radius``
    in (0, ``MAX_BACKGROUND_RADIUS``] = (0, 500] pixels."""

    gaussian_sigma: float = 1.5      # smoothing scale, pixels
    background_radius: float = 15.0  # opening disk radius, pixels
    maxima_window: int = 3           # odd window for the local-maximum test
    min_separation: float = 2.0      # dedup radius for detections
    min_neighbor_dist: float = 5.0   # isolation radius; lonelier nodes are dropped
    detection_floor: float = 0.05    # maxima below this value are ignored

    def __post_init__(self) -> None:
        # Written as "not 0 < x < inf" so that NaN fails too. An infinite size
        # overflows the filter sizes or asks radius_pairs for every pair.
        for key, value, bound in (("gaussianSigma", self.gaussian_sigma, MAX_GAUSSIAN_SIGMA),
                                  ("backgroundRadius", self.background_radius,
                                   MAX_BACKGROUND_RADIUS)):
            if not 0 < value < np.inf:
                raise InputError(f"{key} must be finite and > 0, got {value}")
            if value > bound:
                raise InputError(f"{key} must be <= {bound:g}, got {value}")
        if self.maxima_window < 1 or self.maxima_window % 2 == 0:
            raise InputError(f"maximaWindow must be odd and >= 1, got {self.maxima_window}")
        for key, value in (("minSeparation", self.min_separation),
                           ("minNeighborDist", self.min_neighbor_dist),
                           ("detectionFloor", self.detection_floor)):
            if not 0 <= value < np.inf:
                raise InputError(f"{key} must be finite and >= 0, got {value}")


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def _row_bands(filt, pixels: np.ndarray, reach: int, dtype=np.float64) -> np.ndarray:
    """The output of a filter whose row y reads only the input rows within
    ``reach`` of y, computed on one row band per available CPU.

    ``filt(rows, keep, out)`` filters the run of image rows ``rows``, with
    mirror borders at its ends, and writes its output rows ``keep`` (a
    slice) to ``out``, an array of ``dtype``. Each band keeps a run of
    output rows and passes them together with up to ``reach`` more rows on
    each side, so every row it keeps reads the same rows as in the whole
    image and comes out the same bit for bit. A band keeps at least
    2 ``reach`` rows, so no band reads more rows than the image has; an
    image too short for two bands is one call, with no thread. Worker
    threads run every band but the first, which the calling thread runs,
    and every band writes to its rows of one output array. The
    scipy.ndimage filters and the numpy ufuncs release the interpreter
    lock, so the bands run in parallel. An exception in any band reaches
    the caller once every band has ended.
    """
    n = pixels.shape[0]
    count = min(_cpus(), n // max(2 * reach, 1))
    out = np.empty(pixels.shape, dtype)
    if count < 2:
        filt(pixels, slice(None), out)
        return out
    from concurrent.futures import ThreadPoolExecutor
    edges = [n * k // count for k in range(count + 1)]

    def band(k: int) -> None:
        a, b = edges[k], edges[k + 1]
        lo, hi = max(a - reach, 0), min(b + reach, n)
        filt(pixels[lo:hi], slice(a - lo, b - lo), out[a:b])

    with ThreadPoolExecutor(count - 1) as pool:
        futures = [pool.submit(band, k) for k in range(1, count)]
        band(0)
    for future in futures:
        future.result()
    return out


def gaussian_kernel(sigma: float) -> np.ndarray:
    """1-D Gaussian taps truncated at +-3 sigma and renormalized to sum 1."""
    radius = int(np.ceil(3.0 * sigma))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(t * t) / (2.0 * sigma * sigma))
    return k / k.sum()


def gaussian_filter(img: RasterImage, sigma: float) -> RasterImage:
    """Separable Gaussian smoothing with mirror-reflected edges. ``sigma``
    must lie in (0, 100]; see ``MAX_GAUSSIAN_SIGMA``."""
    if not 0 < sigma <= MAX_GAUSSIAN_SIGMA:
        raise InputError(f"sigma must be > 0 and <= {MAX_GAUSSIAN_SIGMA:g}, got {sigma}")
    from scipy import ndimage
    kernel = gaussian_kernel(sigma)

    def smooth(rows: np.ndarray, keep: slice, out: np.ndarray) -> None:
        across = ndimage.correlate1d(rows, kernel, axis=1, mode="mirror")
        smoothed = ndimage.correlate1d(across, kernel, axis=0, mode="mirror")
        np.clip(smoothed[keep], 0.0, 1.0, out=out)

    return RasterImage(_row_bands(smooth, img.pixels, len(kernel) // 2))


def _disk_half_widths(radius: float) -> np.ndarray:
    """Half-width ``h_k`` of each row of the disk ``x^2 + y^2 <= radius^2`` on
    the integer grid, for row offsets ``k - r``, ``r = floor(radius)``.

    Row k of the disk is the centered segment ``|x| <= h_k``. The widths come
    from one square root per row, corrected by the exact integer test, so no
    (2r + 1)^2 mask is ever built.
    """
    r = int(np.floor(radius))
    y = np.arange(-r, r + 1)
    rr = radius * radius
    h = np.floor(np.sqrt(np.maximum(rr - y * y, 0.0))).astype(np.int64)
    # The rounded square root can be one off either way.
    h -= h * h + y * y > rr
    h += (h + 1) * (h + 1) + y * y <= rr
    return h


def _disk_rank(pixels: np.ndarray, half: np.ndarray, filter1d, fold,
               keep: slice = slice(None), out: np.ndarray | None = None) -> np.ndarray:
    """Min (``minimum_filter1d``, ``np.minimum``) or max (the max pair) of
    ``pixels`` over the odd, symmetric footprint whose row k, at row offset
    k - r, is the centered segment ``|dx| <= half[k]``, with mirror borders,
    at the output rows ``keep`` (every row by default); written to ``out``
    when it is given.

    The result at (y, x) folds over k the 1-D filter of width
    2 half[k] + 1 at row mirror(y + k - r). For each distinct width, the
    rows of ``pixels`` that the kept rows read are filtered once into a
    buffer of the rows start - r .. stop + r - 1; its rows past an end of
    ``pixels`` are copies of the filtered rows they mirror (numpy's
    "reflect" is ndimage's "mirror", d c b | a b c d | c b a, also for
    reflections longer than the axis). Each row offset then folds in one
    slice of the buffer. A half-width of at least the row length less one
    takes the whole row and its mirror image, so it gives the row's plain
    min or max; it is capped there, and such widths filter once.
    """
    half = np.minimum(half, pixels.shape[1] - 1)
    r = len(half) // 2
    n = pixels.shape[0]
    start, stop, _ = keep.indices(n)
    read = np.arange(start - r, stop + r)
    lo, hi = max(start - r, 0), min(stop + r, n)
    inside = slice(lo - read[0], hi - read[0])
    period = max(2 * (n - 1), 1)
    mirrored = np.abs(read) % period
    mirrored = np.where(mirrored < n, mirrored, period - mirrored)
    past = np.flatnonzero((read < 0) | (read >= n))
    rows = np.empty((len(read), pixels.shape[1]))
    if out is None:
        out = np.empty((stop - start, pixels.shape[1]))
    folded = False
    for h in np.unique(half):
        filter1d(pixels[lo:hi], 2 * int(h) + 1, axis=1, output=rows[inside], mode="mirror")
        rows[past] = rows[mirrored[past] - read[0]]
        for k in np.flatnonzero(half == h):
            band = rows[k : k + stop - start]
            if folded:
                fold(out, band, out=out)
            else:
                out[...] = band
                folded = True
    return out


def _open_disk(pixels: np.ndarray, radius: float, keep: slice = slice(None),
               out: np.ndarray | None = None) -> np.ndarray:
    """Grayscale opening by the disk of ``radius`` with mirror borders, at
    the output rows ``keep`` (every row by default); written to ``out``
    when it is given."""
    from scipy import ndimage
    half = _disk_half_widths(radius)
    r = len(half) // 2
    start, stop, _ = keep.indices(pixels.shape[0])
    # The dilation of the kept rows reads the eroded rows within r of them;
    # past an end of ``pixels`` it reads their mirror image, which is the
    # erosion of the mirror image, since the disk is symmetric.
    lo, hi = max(start - r, 0), min(stop + r, pixels.shape[0])
    eroded = _disk_rank(pixels, half, ndimage.minimum_filter1d, np.minimum, slice(lo, hi))
    # The disk is its own reflection, so the dilation needs no flipped footprint.
    return _disk_rank(eroded, half, ndimage.maximum_filter1d, np.maximum,
                      slice(start - lo, stop - lo), out)


def subtract_background(img: RasterImage, radius: float) -> RasterImage:
    """Remove everything wider than the disk: subtract the grayscale opening.

    The opening is an erosion then a dilation by the disk of ``radius`` with
    mirror borders. Each runs as a min (max) over the disk's row offsets of
    1-D row filters; min and max never round, so the result equals the 2-D
    footprint filter exactly. ``radius`` must lie in (0, 500]; see
    ``MAX_BACKGROUND_RADIUS``.
    """
    if not 0 < radius <= MAX_BACKGROUND_RADIUS:
        raise InputError(f"radius must be > 0 and <= {MAX_BACKGROUND_RADIUS:g}, got {radius}")

    def flatten(rows: np.ndarray, keep: slice, out: np.ndarray) -> None:
        _open_disk(rows, radius, keep, out)
        np.subtract(rows[keep], out, out=out)
        np.clip(out, 0.0, 1.0, out=out)

    # The erosion and then the dilation each read floor(radius) rows away.
    return RasterImage(_row_bands(flatten, img.pixels, 2 * int(np.floor(radius))))


def find_local_maxima(img: RasterImage, window: int, floor: float) -> np.ndarray:
    """Pixel-center coordinates of strict windowed maxima above ``floor``, as
    an (N, 2) float64 array of (x, y) rows in row-major order.

    A plateau inside one window emits only its lexicographically smallest
    pixel (row-major order), so flat crests do not flood the output.
    """
    if window < 1 or window % 2 == 0:
        raise InputError(f"window must be odd and >= 1, got {window}")
    from scipy import ndimage
    half = window // 2
    # The window offsets that come before its center in row-major order.
    dy, dx = np.mgrid[-half : half + 1, -half : half + 1].reshape(2, -1)[:, : window * window // 2]

    def maxima(arr: np.ndarray, keep: slice, out: np.ndarray) -> None:
        h, w = arr.shape
        # cvals outside the valid range so borders compare only against real pixels
        neighborhood_max = ndimage.maximum_filter(arr, size=window, mode="constant", cval=-1.0)
        neighborhood_min = ndimage.minimum_filter(arr, size=window, mode="constant", cval=2.0)
        # a crest must rise above something nearby; constant regions are not maxima
        iy, ix = np.nonzero((arr >= neighborhood_max) & (arr > neighborhood_min) & (arr > floor))
        # A candidate is a plateau's first pixel when no earlier pixel of its
        # window holds the same value.
        ny, nx = iy[:, None] + dy, ix[:, None] + dx
        inside = (ny >= 0) & (nx >= 0) & (nx < w)
        tie = inside & (arr[ny.clip(0), nx.clip(0, w - 1)] == arr[iy, ix][:, None])
        found = np.zeros((h, w), dtype=bool)
        found[iy, ix] = ~tie.any(axis=1)
        out[...] = found[keep]

    found = np.argwhere(_row_bands(maxima, img.pixels, half, dtype=bool))
    return found[:, ::-1].astype(np.float64)


def prune_nodes(points: np.ndarray, img: RasterImage, params: PipelineParams) -> PointCloud:
    """Deduplicate close detections (brighter wins), drop isolated ones, and
    attach image intensities. ``points`` is an (N, 2) array of (x, y) rows,
    as ``find_local_maxima`` gives. The result is a cloud bound to ``img``."""
    pts = np.asarray(points, dtype=np.float64)
    vals = bilinear_sample(img, pts[:, 0], pts[:, 1])
    # Brightest first; ties resolved by raster order for determinism.
    order = np.lexsort((pts[:, 0], pts[:, 1], -vals))
    # Only detections that radius_pairs pairs up can fail the separation test.
    ii, jj, _ = radius_pairs(pts, params.min_separation)
    close: list[list[int]] = [[] for _ in range(len(pts))]
    for i, j in zip(ii.tolist(), jj.tolist()):
        close[i].append(j)
        close[j].append(i)
    is_kept = [False] * len(pts)
    kept: list[int] = []
    for idx in order.tolist():
        p = pts[idx]
        if all(np.linalg.norm(p - pts[j]) >= params.min_separation
               for j in close[idx] if is_kept[j]):
            is_kept[idx] = True
            kept.append(idx)
    survivors = pts[kept]
    sval = vals[kept]
    ii, jj, d2 = radius_pairs(survivors, params.min_neighbor_dist)
    near = np.sqrt(d2) <= params.min_neighbor_dist
    lonely = np.ones(len(survivors), dtype=bool)
    lonely[ii[near]] = lonely[jj[near]] = False
    survivors = survivors[~lonely]
    sval = sval[~lonely]
    order = np.lexsort((survivors[:, 0], survivors[:, 1]))
    return PointCloud.from_arrays(survivors[order], np.clip(sval[order], 0.0, 1.0), image=img)


def extract_nodes(img: RasterImage, params: PipelineParams) -> PointCloud:
    """Full image-to-cloud pipeline; the cloud binds the enhanced image."""
    smoothed = gaussian_filter(img, params.gaussian_sigma)
    enhanced = subtract_background(smoothed, params.background_radius)
    points = find_local_maxima(enhanced, params.maxima_window, params.detection_floor)
    return prune_nodes(points, enhanced, params)
