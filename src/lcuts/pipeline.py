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

``scipy.ndimage`` is loaded by the first filter that runs, so importing this
module, as every ``lcuts`` command does, does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import PointCloud, radius_pairs
from .raster import RasterImage, bilinear_sample

# scipy.ndimage is imported inside gaussian_filter, _open_disk and
# find_local_maxima, not here: loading it costs about 50 ms and pulls in
# scipy.special, and only the extract command runs these filters.


# Largest accepted background radius, in pixels. The opening costs time in
# proportion to the radius times the padded image: about 11 s on a 699 x 699
# image at this bound (one core), and 0.12 s at the default of 15 px.
MAX_BACKGROUND_RADIUS = 500.0
# Largest accepted smoothing scale, in pixels. The kernel has 6 sigma + 1
# taps, so the filter costs time in proportion to sigma times the image:
# about 0.3 s on a 699 x 699 image at this bound (one core), and 0.02 s at
# the default of 1.5 px. A ridge a few pixels wide is gone long before it.
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
    out = ndimage.correlate1d(img.pixels, kernel, axis=1, mode="mirror")
    out = ndimage.correlate1d(out, kernel, axis=0, mode="mirror")
    return RasterImage(np.clip(out, 0.0, 1.0))


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


def _disk_rank(pixels: np.ndarray, half: np.ndarray, filter1d, fold) -> np.ndarray:
    """Min (``minimum_filter1d``, ``np.minimum``) or max (the max pair) of
    ``pixels`` over the odd, symmetric footprint whose row k, at row offset
    k - r, is the centered segment ``|dx| <= half[k]``, with mirror borders.

    The result at (y, x) folds over k the 1-D filter of width
    2 half[k] + 1 at row mirror(y + k - r). The rows are mirror-padded
    once (numpy's "reflect" is ndimage's "mirror", d c b | a b c d | c b a,
    also for pads longer than the axis); each distinct width is filtered
    once and its rows are folded in as slices.
    """
    r = len(half) // 2
    n = pixels.shape[0]
    padded = np.pad(pixels, ((r, r), (0, 0)), mode="reflect")
    rows = np.empty_like(padded)
    out = None
    for h in np.unique(half):
        filter1d(padded, 2 * int(h) + 1, axis=1, output=rows, mode="mirror")
        for k in np.flatnonzero(half == h):
            band = rows[k : k + n]
            out = band.copy() if out is None else fold(out, band, out=out)
    return out


def _open_disk(pixels: np.ndarray, radius: float) -> np.ndarray:
    """Grayscale opening by the disk of ``radius`` with mirror borders."""
    from scipy import ndimage
    half = _disk_half_widths(radius)
    eroded = _disk_rank(pixels, half, ndimage.minimum_filter1d, np.minimum)
    # The disk is its own reflection, so the dilation needs no flipped footprint.
    return _disk_rank(eroded, half, ndimage.maximum_filter1d, np.maximum)


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
    return RasterImage(np.clip(img.pixels - _open_disk(img.pixels, radius), 0.0, 1.0))


def find_local_maxima(img: RasterImage, window: int, floor: float) -> list[np.ndarray]:
    """Pixel-center coordinates (x, y) of strict windowed maxima above ``floor``.

    A plateau inside one window emits only its lexicographically smallest
    pixel (row-major order), so flat crests do not flood the output.
    """
    if window < 1 or window % 2 == 0:
        raise InputError(f"window must be odd and >= 1, got {window}")
    from scipy import ndimage
    arr = img.pixels
    h, w = arr.shape
    # cvals outside the valid range so borders compare only against real pixels
    neighborhood_max = ndimage.maximum_filter(arr, size=window, mode="constant", cval=-1.0)
    neighborhood_min = ndimage.minimum_filter(arr, size=window, mode="constant", cval=2.0)
    # a crest must rise above something nearby; constant regions are not maxima
    cand = np.argwhere((arr >= neighborhood_max) & (arr > neighborhood_min) & (arr > floor))
    half = window // 2
    points: list[np.ndarray] = []
    for iy, ix in cand:
        val = arr[iy, ix]
        y0, y1 = max(iy - half, 0), min(iy + half + 1, h)
        x0, x1 = max(ix - half, 0), min(ix + half + 1, w)
        tie_rows, tie_cols = np.nonzero(arr[y0:y1, x0:x1] == val)
        first = (int(tie_rows[0]) + y0, int(tie_cols[0]) + x0)
        if first == (int(iy), int(ix)):
            points.append(np.array([float(ix), float(iy)]))
    return points


def prune_nodes(points: list[np.ndarray], img: RasterImage, params: PipelineParams) -> PointCloud:
    """Deduplicate close detections (brighter wins), drop isolated ones, and
    attach image intensities. The result is a cloud bound to ``img``."""
    if not points:
        return PointCloud.from_arrays(np.zeros((0, 2)), image=img)
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
