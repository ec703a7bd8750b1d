"""Synthetic benchmark generator: rod-shaped clouds and matching raster images.

Rods are straight segments placed by rejection sampling so that any two keep
a minimum mutual distance, except for explicitly requested crossing pairs,
which are constructed to intersect at a steep angle. Nodes are sampled along
each rod at a fixed spacing with Gaussian noise orthogonal to the rod axis.
Images render each rod as a chain of anisotropic Gaussian blobs (about 15 px
across), composited by maximum so overlaps do not bloom, with optional
intensity valleys stamped at the junctions.

All randomness comes from numpy's PCG64 generator seeded with ``spec.seed``,
so outputs are reproducible bit for bit for a fixed spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, SynthesisError
from .geometry import PointCloud, duplicates
from .raster import RasterImage, bilinear_sample

_MARGIN = 20.0          # keep rods away from the canvas border
_MAX_ATTEMPTS = 10_000  # rejection-sampling budget per rod
_RIDGE_SIGMA_W = 15.0 / 4.0  # transverse blob scale: ~15 px full width
_RIDGE_SIGMA_L = 1.8         # longitudinal blob scale between chain samples
_VALLEY_SIGMA = 3.5          # spatial scale of a junction valley
_CROSS_ANGLE = (80.0, 90.0)  # crossing pairs meet at a steep angle, degrees
_DETECTABLE_FRAC = 0.75      # ridge samples dimmer than this fraction of the
                             # peak are invisible to a maxima detector; keeps
                             # valley-side gaps wider than the hop radius
_MAX_ROD_SAMPLES = 10_000    # nodes sampled along one rod, at most
_MAX_CANVAS_PX = 2 ** 24     # pixels of a rendered image, at most: a 4,096 px
                             # square, 128 MiB of float64
_GAP_SLACK = 1e-6            # rods whose bounding boxes are this much farther
                             # apart than the gap skip the exact distance; far
                             # above the rounding of either distance


@dataclass(frozen=True)
class SynthSpec:
    dim: int = 2
    n_rods: int = 5
    length_range: tuple[float, float] = (25.0, 55.0)
    spacing_along_rod: float = 4.0
    ortho_noise_std: float = 0.5
    min_rod_gap: float = 15.0
    crossings: int = 0
    intensity_valley: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise InputError(f"dim must be 2 or 3, got {self.dim}")
        if self.n_rods < 0:
            raise InputError(f"nRods must be >= 0, got {self.n_rods}")
        # Written as "not x > 0" and "x < inf" so that NaN fails too. An
        # infinite length or gap overflows the canvas size.
        lo, hi = self.length_range
        if not 0 < lo <= hi < np.inf:
            raise InputError(f"lengthMin and lengthMax must be finite and satisfy "
                             f"0 < lengthMin <= lengthMax, got {self.length_range}")
        if not self.spacing_along_rod > 0:
            raise InputError(f"spacingAlongRod must be > 0, got {self.spacing_along_rod}")
        if not hi / self.spacing_along_rod < _MAX_ROD_SAMPLES:
            raise InputError(f"spacingAlongRod must be > lengthMax / {_MAX_ROD_SAMPLES} "
                             f"(at most {_MAX_ROD_SAMPLES} samples per rod), "
                             f"got {self.spacing_along_rod}")
        if not 0 <= self.ortho_noise_std < np.inf:
            raise InputError(f"orthoNoiseStd must be finite and >= 0, got {self.ortho_noise_std}")
        if not 0 < self.min_rod_gap < np.inf:
            raise InputError(f"minRodGap must be finite and > 0, got {self.min_rod_gap}")
        if self.crossings < 0 or self.crossings * 2 > self.n_rods:
            raise InputError("crossings needs two rods each and must be >= 0")
        if self.intensity_valley is not None and not 0.0 < self.intensity_valley <= 1.0:
            raise InputError(f"intensityValley must be in (0, 1], got {self.intensity_valley}")


def canvas_side(spec: SynthSpec) -> float:
    """Square (or cubic) working area scaled to hold all rods comfortably."""
    cell = spec.length_range[1] + 2.0 * spec.min_rod_gap
    factor = spec.n_rods ** (0.5 if spec.dim == 2 else 1.0 / 3.0)
    return 2.0 * _MARGIN + cell * max(1.0, factor)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def segment_distance(p0, p1, q0, q1) -> float:
    """Smallest distance between two segments (any common dimension)."""
    p0 = np.asarray(p0, float); p1 = np.asarray(p1, float)
    q0 = np.asarray(q0, float); q1 = np.asarray(q1, float)
    d1 = p1 - p0
    d2 = q1 - q0
    r = p0 - q0
    a = float(d1 @ d1)
    e = float(d2 @ d2)
    f = float(d2 @ r)
    eps = 1e-12
    if a <= eps and e <= eps:
        return float(np.linalg.norm(r))
    if a <= eps:
        s, t = 0.0, np.clip(f / e, 0.0, 1.0)
    else:
        c = float(d1 @ r)
        if e <= eps:
            s, t = np.clip(-c / a, 0.0, 1.0), 0.0
        else:
            b = float(d1 @ d2)
            denom = a * e - b * b
            s = np.clip((b * f - c * e) / denom, 0.0, 1.0) if denom > eps else 0.0
            t = (b * s + f) / e
            if t < 0.0:
                t, s = 0.0, np.clip(-c / a, 0.0, 1.0)
            elif t > 1.0:
                t, s = 1.0, np.clip((b - c) / a, 0.0, 1.0)
    return float(np.linalg.norm((p0 + s * d1) - (q0 + t * d2)))


def _random_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    if dim == 2:
        theta = rng.uniform(0.0, np.pi)
        return np.array([np.cos(theta), np.sin(theta)])
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm


def _perp_direction(rng: np.random.Generator, axis: np.ndarray) -> np.ndarray:
    if axis.shape[0] == 2:
        perp = np.array([-axis[1], axis[0]])
        return perp if rng.uniform() < 0.5 else -perp
    while True:
        v = rng.normal(size=3)
        v -= (v @ axis) * axis
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm


def _in_bounds(points: np.ndarray, side: float) -> bool:
    return bool(points.min() >= _MARGIN and points.max() <= side - _MARGIN)


def _keeps_gap(rod: tuple[np.ndarray, np.ndarray],
               rods: list[tuple[np.ndarray, np.ndarray]],
               gap: float, skip: int | None = None) -> bool:
    """Whether ``rod`` stays at least ``gap`` from every rod but ``skip``.

    Two segments are no closer than their bounding boxes, so only the rods
    whose box comes within ``gap + _GAP_SLACK`` get the exact distance.
    """
    if not rods:
        return True
    p0, p1 = rod
    ends = np.asarray(rods)  # (rods, 2, dim)
    below = ends.min(axis=1) - np.maximum(p0, p1)
    above = np.minimum(p0, p1) - ends.max(axis=1)
    box_gap = np.sqrt((np.maximum(np.maximum(below, above), 0.0) ** 2).sum(axis=1))
    for other in np.flatnonzero(box_gap < gap + _GAP_SLACK).tolist():
        if other == skip:
            continue
        q0, q1 = rods[other]
        if segment_distance(p0, p1, q0, q1) < gap:
            return False
    return True


def _sample_free_rod(spec: SynthSpec, rng: np.random.Generator, side: float,
                     rods: list[tuple[np.ndarray, np.ndarray]]):
    length = rng.uniform(*spec.length_range)
    center = rng.uniform(_MARGIN, side - _MARGIN, size=spec.dim)
    axis = _random_direction(rng, spec.dim)
    p0 = center - 0.5 * length * axis
    p1 = center + 0.5 * length * axis
    if _in_bounds(np.stack([p0, p1]), side) and _keeps_gap((p0, p1), rods, spec.min_rod_gap):
        return p0, p1
    return None


def _sample_partner(spec: SynthSpec, rng: np.random.Generator, side: float,
                    rods: list[tuple[np.ndarray, np.ndarray]],
                    base: tuple[np.ndarray, np.ndarray], base_index: int):
    """A rod through the middle portion of ``base`` at a steep angle."""
    a0, a1 = base
    base_axis = _unit(a1 - a0)
    cross = a0 + rng.uniform(0.35, 0.65) * (a1 - a0)
    psi = np.radians(rng.uniform(*_CROSS_ANGLE))
    axis = _unit(np.cos(psi) * base_axis + np.sin(psi) * _perp_direction(rng, base_axis))
    length = rng.uniform(*spec.length_range)
    p0 = cross - rng.uniform(0.35, 0.65) * length * axis
    p1 = p0 + length * axis
    rod = (p0, p1)
    if _in_bounds(np.stack(rod), side) and _keeps_gap(rod, rods, spec.min_rod_gap, skip=base_index):
        return rod, cross
    return None


def _place_rods(spec: SynthSpec, rng: np.random.Generator) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[np.ndarray]]:
    """Segments plus the junction point of every crossing pair.

    Rods 2k and 2k+1 (k < crossings) are placed jointly so they intersect at
    a steep angle; every other pair of rods keeps ``min_rod_gap``.
    """
    side = canvas_side(spec)
    rods: list[tuple[np.ndarray, np.ndarray]] = []
    junctions: list[np.ndarray] = []
    idx = 0
    while idx < spec.n_rods:
        if idx % 2 == 0 and idx // 2 < spec.crossings:
            for _ in range(_MAX_ATTEMPTS):
                base = _sample_free_rod(spec, rng, side, rods)
                if base is None:
                    continue
                for _ in range(100):
                    cand = _sample_partner(spec, rng, side, rods, base, len(rods))
                    if cand is not None:
                        break
                else:
                    continue  # crowded base; draw a fresh one
                partner, cross = cand
                rods.extend([base, partner])
                junctions.append(cross)
                break
            else:
                raise SynthesisError(
                    f"could not place crossing pair {idx // 2} after {_MAX_ATTEMPTS} "
                    "attempts; lower nRods or minRodGap")
            idx += 2
        else:
            for _ in range(_MAX_ATTEMPTS):
                rod = _sample_free_rod(spec, rng, side, rods)
                if rod is not None:
                    rods.append(rod)
                    break
            else:
                raise SynthesisError(
                    f"could not place rod {idx} after {_MAX_ATTEMPTS} attempts; "
                    "lower nRods or minRodGap")
            idx += 1
    return rods, junctions


def _rod_samples(p0: np.ndarray, p1: np.ndarray, spacing: float) -> np.ndarray:
    length = float(np.linalg.norm(p1 - p0))
    count = int(np.floor(length / spacing)) + 1
    ts = np.arange(count) * spacing
    return p0[None, :] + ts[:, None] * _unit(p1 - p0)[None, :]


def _ortho_frame(axis: np.ndarray) -> np.ndarray:
    """Rows span the plane orthogonal to a 3-D axis."""
    pick = np.zeros(3)
    pick[int(np.argmin(np.abs(axis)))] = 1.0
    e1 = _unit(np.cross(axis, pick))
    e2 = np.cross(axis, e1)
    return np.stack([e1, e2])


def _first_copies(samples: list[np.ndarray], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The samples of all rods in order, each location kept at its first
    occurrence only, and the rod of each."""
    locs = np.concatenate(samples) if samples else np.zeros((0, dim))
    rod = np.repeat(np.arange(len(samples)), [len(s) for s in samples])
    keep = np.ones(len(locs), dtype=bool)
    keep[duplicates(locs)[0]] = False
    return locs[keep], rod[keep]


def _members(rod: np.ndarray, n_rods: int) -> list[set[int]]:
    """Node ids by rod, one set per rod, for nodes listed in rod order."""
    ends = np.searchsorted(rod, np.arange(n_rods + 1))
    return [set(range(lo, hi)) for lo, hi in zip(ends[:-1].tolist(), ends[1:].tolist())]


def generate_cloud(spec: SynthSpec) -> tuple[PointCloud, list[set[int]]]:
    """Noisy rod cloud plus ground-truth groups (one id set per rod)."""
    rng = np.random.default_rng(spec.seed)
    rods, _ = _place_rods(spec, rng)
    samples: list[np.ndarray] = []
    for p0, p1 in rods:
        base = _rod_samples(p0, p1, spec.spacing_along_rod)
        axis = _unit(p1 - p0)
        if spec.dim == 2:
            perp = np.array([-axis[1], axis[0]])
            offs = rng.normal(0.0, spec.ortho_noise_std, len(base))
            pts = base + offs[:, None] * perp[None, :]
        else:
            frame = _ortho_frame(axis)
            offs = rng.normal(0.0, spec.ortho_noise_std, (len(base), 2))
            pts = base + offs @ frame
        samples.append(pts)
    # Overlapping crossings can coincide with zero noise.
    locs, rod = _first_copies(samples, spec.dim)
    return PointCloud.from_arrays(locs), _members(rod, len(rods))


def generate_image(spec: SynthSpec) -> tuple[RasterImage, PointCloud, list[set[int]]]:
    """Raster rendering of the rod layout plus its noiseless ridge nodes.

    The ridge cloud is bound to the image with sampled intensities, and the
    returned groups label the ridge nodes by rod. The rod layout matches
    ``generate_cloud`` for the same spec (placement draws come first).
    """
    if spec.dim != 2:
        raise InputError("images can only be rendered for 2-D specs")
    side = int(np.ceil(canvas_side(spec)))
    if side * side > _MAX_CANVAS_PX:
        raise InputError(f"the image would be {side} x {side} px, above the limit of "
                         f"{_MAX_CANVAS_PX} px; lower nRods, lengthMax or minRodGap")
    rng = np.random.default_rng(spec.seed)
    rods, junctions = _place_rods(spec, rng)
    img = np.zeros((side, side))
    pad = int(np.ceil(4.0 * _RIDGE_SIGMA_W + 2.0 * _RIDGE_SIGMA_L))

    all_samples: list[np.ndarray] = []
    for p0, p1 in rods:
        samples = _rod_samples(p0, p1, spec.spacing_along_rod)
        all_samples.append(samples)
        axis = _unit(p1 - p0)
        perp = np.array([-axis[1], axis[0]])
        x0 = max(int(np.floor(min(p0[0], p1[0]) - pad)), 0)
        x1 = min(int(np.ceil(max(p0[0], p1[0]) + pad)) + 1, side)
        y0 = max(int(np.floor(min(p0[1], p1[1]) - pad)), 0)
        y1 = min(int(np.ceil(max(p0[1], p1[1]) + pad)) + 1, side)
        ys, xs = np.mgrid[y0:y1, x0:x1]
        layer = np.zeros(xs.shape)
        for c in samples:
            dx = xs - c[0]
            dy = ys - c[1]
            s = dx * axis[0] + dy * axis[1]
            t = dx * perp[0] + dy * perp[1]
            layer += np.exp(-(s * s) / (2.0 * _RIDGE_SIGMA_L ** 2)
                            - (t * t) / (2.0 * _RIDGE_SIGMA_W ** 2))
        np.maximum(img[y0:y1, x0:x1], layer, out=img[y0:y1, x0:x1])

    peak = img.max()
    if peak > 0:
        img *= 0.9 / peak
    if spec.intensity_valley is not None:
        for j in junctions:
            x0 = max(int(np.floor(j[0] - 5 * _VALLEY_SIGMA)), 0)
            x1 = min(int(np.ceil(j[0] + 5 * _VALLEY_SIGMA)) + 1, side)
            y0 = max(int(np.floor(j[1] - 5 * _VALLEY_SIGMA)), 0)
            y1 = min(int(np.ceil(j[1] + 5 * _VALLEY_SIGMA)) + 1, side)
            ys, xs = np.mgrid[y0:y1, x0:x1]
            r2 = (xs - j[0]) ** 2 + (ys - j[1]) ** 2
            img[y0:y1, x0:x1] *= 1.0 - spec.intensity_valley * np.exp(-r2 / (2.0 * _VALLEY_SIGMA ** 2))
    raster = RasterImage(np.clip(img, 0.0, 1.0))

    locs, rod = _first_copies(all_samples, 2)
    vals = bilinear_sample(raster, locs[:, 0], locs[:, 1])
    # A maxima detector would not fire this deep in a valley.
    bright = vals >= _DETECTABLE_FRAC * raster.pixels.max()
    groups = [g for g in _members(rod[bright], len(rods)) if g]
    return raster, PointCloud.from_arrays(locs[bright], np.clip(vals[bright], 0.0, 1.0), image=raster), groups
