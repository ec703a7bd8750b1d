import threading

import numpy as np
import pytest
from oracles import local_maxima_by_candidate
from scipy import ndimage

from lcuts import cli, pipeline
from lcuts.errors import InputError
from lcuts.pipeline import (MAX_BACKGROUND_RADIUS, MAX_GAUSSIAN_SIGMA, PipelineParams,
                            _disk_half_widths, _disk_rank, _open_disk, extract_nodes,
                            find_local_maxima, gaussian_filter, gaussian_kernel, prune_nodes,
                            subtract_background)
from lcuts.raster import RasterImage, bilinear_sample
from lcuts.synth import SynthSpec, generate_image, segment_distance, _place_rods


def brute_gaussian(pixels, sigma):
    # direct 2D convolution with mirror (reflect) edges
    k = gaussian_kernel(sigma)
    r = len(k) // 2
    padded = np.pad(pixels, r, mode="reflect")
    h, w = pixels.shape
    out = np.zeros_like(pixels)
    k2 = np.outer(k, k)
    for y in range(h):
        for x in range(w):
            out[y, x] = (padded[y:y + 2 * r + 1, x:x + 2 * r + 1] * k2).sum()
    return out


def naive_opening(pixels, radius):
    r = int(np.floor(radius))
    yy, xx = np.mgrid[-r:r + 1, -r:r + 1]
    fp = xx * xx + yy * yy <= radius * radius
    h, w = pixels.shape
    padded = np.pad(pixels, r, mode="reflect")
    eroded = np.zeros_like(pixels)
    for y in range(h):
        for x in range(w):
            eroded[y, x] = padded[y:y + 2 * r + 1, x:x + 2 * r + 1][fp].min()
    padded = np.pad(eroded, r, mode="reflect")
    opened = np.zeros_like(pixels)
    for y in range(h):
        for x in range(w):
            opened[y, x] = padded[y:y + 2 * r + 1, x:x + 2 * r + 1][fp].max()
    return opened


def _disk(radius):
    """The disk footprint ``x^2 + y^2 <= radius^2`` as a (2r + 1)^2 mask."""
    r = int(np.floor(radius))
    y, x = np.mgrid[-r : r + 1, -r : r + 1]
    return x * x + y * y <= radius * radius


def footprint_opening(pixels, radius):
    """Reference opening: 2-D footprint filters over the whole disk."""
    fp = _disk(radius)
    eroded = ndimage.grey_erosion(pixels, footprint=fp, mode="mirror")
    return ndimage.grey_dilation(eroded, footprint=fp, mode="mirror")


def greedy_prune(points, img, params):
    """Reference pruning: brightest-first dedup against every kept point, then
    brute-force isolation; returns (locs, intensities) in raster order."""
    pts = np.asarray(points, dtype=np.float64)
    vals = bilinear_sample(img, pts[:, 0], pts[:, 1])
    kept = []
    for idx in np.lexsort((pts[:, 0], pts[:, 1], -vals)).tolist():
        if all(np.linalg.norm(pts[idx] - pts[j]) >= params.min_separation for j in kept):
            kept.append(idx)
    pts, vals = pts[kept], vals[kept]
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    np.fill_diagonal(d, np.inf)
    social = (d <= params.min_neighbor_dist).any(axis=1)
    pts, vals = pts[social], vals[social]
    order = np.lexsort((pts[:, 0], pts[:, 1]))
    return pts[order], np.clip(vals[order], 0.0, 1.0)


def test_gaussian_kernel_normalized():
    k = gaussian_kernel(1.5)
    assert k.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(k, k[::-1])
    assert len(k) == 2 * int(np.ceil(4.5)) + 1


def test_gaussian_filter_constant_unchanged():
    img = RasterImage(np.full((20, 30), 0.42))
    out = gaussian_filter(img, 1.5)
    assert np.abs(out.pixels - 0.42).max() <= 1e-9


def test_gaussian_filter_impulse_is_kernel():
    px = np.zeros((21, 21))
    px[10, 10] = 1.0
    out = gaussian_filter(RasterImage(px), 1.5)
    k = gaussian_kernel(1.5)
    r = len(k) // 2
    expected = np.outer(k, k)
    got = out.pixels[10 - r:10 + r + 1, 10 - r:10 + r + 1]
    assert np.abs(got - expected).max() <= 1e-12
    assert out.pixels[0, 0] == 0.0


def test_gaussian_filter_vs_brute_force():
    rng = np.random.default_rng(6)
    px = rng.uniform(0.0, 1.0, size=(12, 14))
    out = gaussian_filter(RasterImage(px), 1.5)
    assert np.abs(out.pixels - brute_gaussian(px, 1.5)).max() <= 1e-9
    with pytest.raises(InputError):
        gaussian_filter(RasterImage(px), 0.0)


def test_subtract_background_constant_to_zero():
    img = RasterImage(np.full((25, 25), 0.3))
    out = subtract_background(img, 5.0)
    assert np.all(out.pixels == 0.0)


def test_subtract_background_keeps_ridge():
    # 3 px ridge at 0.9 over a 0.2 background; the opening removes the ridge
    px = np.full((40, 60), 0.2)
    px[18:21, :] = 0.9
    out = subtract_background(RasterImage(px), 15.0)
    opened = naive_opening(px, 15.0)
    assert np.abs((px - opened).clip(0.0, 1.0) - out.pixels).max() <= 1e-12
    assert np.all(np.abs(out.pixels[19, 5:55] - 0.7) <= 1e-9)
    assert np.all(np.abs(out.pixels[:10, :]) <= 1e-9)


@pytest.mark.parametrize("radius", [0.5, 1.0, 1.5, 2.7, 7.3, 15.0, 33.3])
def test_disk_opening_equals_footprint_filters(radius):
    rng = np.random.default_rng(int(radius * 10))
    shapes = [(1, 1), (1, 9), (9, 1), (1, 40), (40, 1), (3, 5), (17, 12), (24, 37)]
    shapes += [tuple(int(v) for v in rng.integers(1, 45, size=2)) for _ in range(6)]
    for k, shape in enumerate(shapes):
        px = rng.uniform(0.0, 1.0, size=shape)
        if k % 2:
            px = np.round(px * 4.0) / 4.0  # quantised: many ties
        fp = _disk(radius)
        eroded = _disk_rank(px, _disk_half_widths(radius), ndimage.minimum_filter1d, np.minimum)
        assert np.array_equal(eroded, ndimage.grey_erosion(px, footprint=fp, mode="mirror"))
        assert np.array_equal(_open_disk(px, radius), footprint_opening(px, radius))
        out = subtract_background(RasterImage(px), radius)
        assert np.array_equal(out.pixels, np.clip(px - footprint_opening(px, radius), 0.0, 1.0))


def test_disk_half_widths_match_mask():
    # Fine sweep, integers, and radii at and one ulp around every sqrt(k),
    # where the row test x^2 + y^2 <= radius^2 flips.
    roots = np.sqrt(np.arange(1.0, 3000.0))
    radii = np.concatenate([np.arange(0.05, 40.0, 0.05), np.arange(1.0, 201.0), roots,
                            np.nextafter(roots, 0.0), np.nextafter(roots, np.inf),
                            np.random.default_rng(4).uniform(1.0, MAX_BACKGROUND_RADIUS, 50),
                            [MAX_BACKGROUND_RADIUS]])
    for radius in radii.tolist():
        assert np.array_equal(_disk_half_widths(radius), _disk(radius).sum(axis=1) // 2), radius


def test_cli_extract_bytes_match_footprint_opening(tmp_path, monkeypatch):
    spec = tmp_path / "spec.cfg"
    spec.write_text("dim = 2\nnRods = 20\ncrossings = 5\nintensityValley = 0.7\nseed = 11\n")
    assert cli.main(["--quiet", "synth", str(spec), str(tmp_path / "img")]) == 0
    assert cli.main(["--quiet", "extract", str(tmp_path / "img.pgm"), str(tmp_path / "fast.csv")]) == 0

    def opening(pixels, radius, keep, out):
        out[...] = footprint_opening(pixels, radius)[keep]

    monkeypatch.setattr(pipeline, "_open_disk", opening)
    assert cli.main(["--quiet", "extract", str(tmp_path / "img.pgm"), str(tmp_path / "ref.csv")]) == 0
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "ref.csv").read_bytes()
    assert len(fast.splitlines()) > 50


def test_find_local_maxima_basic():
    px = np.zeros((15, 15))
    px[7, 9] = 0.8
    pts = find_local_maxima(RasterImage(px), 3, 0.05)
    # one (x, y) row of an (N, 2) float array
    assert pts.dtype == np.float64 and pts.tolist() == [[9.0, 7.0]]
    # constant images have no crest anywhere
    assert find_local_maxima(RasterImage(np.full((10, 10), 0.5)), 3, 0.05).shape == (0, 2)
    # below the floor nothing fires
    px[7, 9] = 0.04
    assert find_local_maxima(RasterImage(px), 3, 0.05).shape == (0, 2)
    with pytest.raises(InputError):
        find_local_maxima(RasterImage(px), 2, 0.05)


def test_find_local_maxima_two_bumps():
    yy, xx = np.mgrid[0:40, 0:40]
    px = np.exp(-((xx - 14.0) ** 2 + (yy - 20.0) ** 2) / 8.0)
    px += np.exp(-((xx - 24.0) ** 2 + (yy - 20.0) ** 2) / 8.0)
    px = px / px.max() * 0.9
    pts = find_local_maxima(RasterImage(px), 3, 0.05)
    assert sorted(p.tolist() for p in pts) == [[14.0, 20.0], [24.0, 20.0]]


def test_find_local_maxima_plateau_emits_once():
    px = np.zeros((12, 12))
    px[5, 4:9] = 0.6  # 5-px flat crest
    pts = find_local_maxima(RasterImage(px), 3, 0.05)
    assert len(pts) == 1 and pts[0].tolist() == [4.0, 5.0]


@pytest.mark.parametrize("window", [1, 3, 5, 7])
def test_find_local_maxima_vs_exhaustive_scan(window):
    rng = np.random.default_rng(14 + window)
    floor, half = 0.05, window // 2
    images = [rng.uniform(0.0, 1.0, size=(18, 22)),
              np.round(rng.uniform(0.0, 1.0, size=(21, 17)) * 4.0) / 4.0]  # quantised: many ties
    plateaus = np.round(rng.uniform(0.0, 0.5, size=(16, 19)) * 4.0) / 4.0
    plateaus[0, 3:9] = plateaus[5:12, -1] = plateaus[-1, :4] = plateaus[:3, 0] = 0.9  # on the border
    images.append(plateaus)
    for px in images:
        got = find_local_maxima(RasterImage(px), window, floor)
        assert [p.tolist() for p in got] == [p.tolist() for p in
                                            local_maxima_by_candidate(RasterImage(px), window, floor)]
        expected = set()
        h, w = px.shape
        for iy in range(h):
            for ix in range(w):
                y0, y1 = max(iy - half, 0), min(iy + half + 1, h)
                x0, x1 = max(ix - half, 0), min(ix + half + 1, w)
                block = px[y0:y1, x0:x1]
                v = px[iy, ix]
                if v <= floor or v < block.max() or v == block.min():
                    continue
                ties = np.argwhere(block == v)
                fy, fx = ties[0]
                if (fy + y0, fx + x0) == (iy, ix):
                    expected.add((float(ix), float(iy)))
        assert {tuple(p.tolist()) for p in got} == expected
        assert window == 1 or expected


@pytest.mark.parametrize("bands", [2, 3, 7])
def test_row_bands_match_one_band(bands, monkeypatch):
    """Each filter gives the same bits on any number of row bands as on one:
    on random and quantised images, just short of and just tall enough for
    two bands (4 reach rows), on taller ones, and at the largest sigma and
    radius."""
    rng = np.random.default_rng(bands)
    # (sigma, radius, window), reaching ceil(3 sigma), 2 floor(radius) and
    # window // 2 rows, on images of these heights and width.
    cases = [((1.5, 3.5, 3), (3, 4, 19, 20, 23, 24, 170), 23),
             ((0.4, 1.0, 5), (7, 8, 61), 9),
             ((MAX_GAUSSIAN_SIGMA, 0.5, 1), (1199, 1200), 4)]
    if bands == 2:
        # Any band count splits these rows into two bands at a reach of 1,000.
        cases.append(((0.5, MAX_BACKGROUND_RADIUS, 7), (4000,), 1))
    for (sigma, radius, window), heights, width in cases:
        for height in heights:
            px = rng.uniform(0.0, 1.0, size=(height, width))
            images = [RasterImage(px), RasterImage(np.round(px * 4.0) / 4.0)]
            for img in images[: 1 if radius == MAX_BACKGROUND_RADIUS else 2]:
                runs = []
                for cpus in (1, bands):
                    monkeypatch.setattr(pipeline, "_cpus", lambda: cpus)
                    runs.append((gaussian_filter(img, sigma).pixels,
                                 subtract_background(img, radius).pixels,
                                 np.array(find_local_maxima(img, window, 0.3))))
                for one, many in zip(*runs):
                    assert one.shape == many.shape and np.array_equal(one, many), (
                        sigma, radius, window, height)

    # One band per CPU, each keeping at least 2 reach rows; the kept rows
    # tile the image.
    calls = []

    def spy(rows, keep, out):
        calls.append(len(out))
        out[...] = rows[keep]

    pixels = np.arange(50.0)[:, None]
    for reach, count in ((3, min(bands, 8)), (12, 2), (13, 1), (0, bands)):
        calls.clear()
        assert np.array_equal(pipeline._row_bands(spy, pixels, reach), pixels)
        assert len(calls) == count and min(calls) >= 2 * reach

    # An exception in a worker's band reaches the caller.
    def fail_off_main_thread(rows, keep, out):
        if threading.current_thread() is not threading.main_thread():
            raise ValueError("band failed")
        out[...] = rows[keep]

    with pytest.raises(ValueError, match="band failed"):
        pipeline._row_bands(fail_off_main_thread, pixels, 1)


def test_prune_nodes_dedup_keeps_brighter():
    px = np.zeros((10, 10))
    px[5, 3] = 0.9
    px[5, 4] = 0.5
    px[5, 7] = 0.6
    img = RasterImage(px)
    # (3,5) and (4,5) collide; the brighter one survives. The companion at
    # (7,5) keeps the survivor from being discarded as isolated.
    cloud = prune_nodes(np.array([[3.0, 5.0], [4.0, 5.0], [7.0, 5.0]]),
                        img, PipelineParams(min_separation=2.0, min_neighbor_dist=5.0))
    assert len(cloud) == 2
    assert [n.loc.tolist() for n in cloud.nodes] == [[3.0, 5.0], [7.0, 5.0]]
    assert cloud.nodes[0].intensity == pytest.approx(0.9)


def test_prune_nodes_drops_isolated():
    img = RasterImage(np.full((40, 40), 0.5))
    pts = np.array([[5.0, 5.0], [8.0, 5.0], [30.0, 30.0]])
    cloud = prune_nodes(pts, img, PipelineParams())
    assert len(cloud) == 2
    assert all(n.loc[0] < 10 for n in cloud.nodes)
    # a partner at exactly the isolation radius still counts
    pair = np.array([[10.0, 10.0], [13.0, 14.0]])
    assert len(prune_nodes(pair, img, PipelineParams(min_neighbor_dist=5.0))) == 2
    assert len(prune_nodes(pair, img, PipelineParams(min_neighbor_dist=np.nextafter(5.0, 0.0)))) == 0


def test_prune_nodes_grid_preserved():
    rng = np.random.default_rng(3)
    px = rng.uniform(0.2, 1.0, size=(30, 30))
    img = RasterImage(px)
    pts = np.array([[float(x), float(y)] for y in range(3, 28, 4) for x in range(3, 28, 4)])
    cloud = prune_nodes(pts, img, PipelineParams(min_separation=2.0, min_neighbor_dist=5.0))
    assert len(cloud) == len(pts)
    for node in cloud.nodes:
        ix, iy = int(node.loc[0]), int(node.loc[1])
        assert node.intensity == pytest.approx(px[iy, ix], abs=1e-12)


def _assert_prune_matches_greedy(points, img, params):
    locs, vals = greedy_prune(points, img, params)
    if len(np.unique(locs, axis=0)) < len(locs):
        # only min_separation = 0 keeps duplicates, and a cloud rejects them
        with pytest.raises(InputError, match="duplicate"):
            prune_nodes(np.array(points), img, params)
        return
    cloud = prune_nodes(np.array(points), img, params)
    assert np.array_equal(cloud.locs().reshape(-1, 2), locs)
    assert [n.intensity for n in cloud.nodes] == vals.tolist()


@pytest.mark.parametrize("min_separation", [0.0, 1.0, 2.0, 2.5, 5.0])
def test_prune_nodes_matches_greedy_dedup(min_separation):
    rng = np.random.default_rng(int(min_separation * 10) + 1)
    params = PipelineParams(min_separation=min_separation, min_neighbor_dist=5.0)
    px = rng.uniform(0.0, 1.0, size=(40, 50))
    for img in (RasterImage(px), RasterImage(np.round(px * 3.0) / 3.0)):
        # random float points, with a few exact duplicates
        pts = rng.uniform(0.0, 39.0, size=(150, 2))
        pts = np.vstack([pts, pts[:20]])
        _assert_prune_matches_greedy(list(pts), img, params)
        # integer grids: neighbours at exactly 2, 4 and (3, 4) -> 5 apart
        for step in ((1, 1), (2, 2), (3, 4), (4, 3)):
            grid = [np.array([float(x), float(y)])
                    for y in range(0, 20, step[1]) for x in range(0, 25, step[0])]
            _assert_prune_matches_greedy(grid, img, params)
            _assert_prune_matches_greedy(grid + grid[::3], img, params)


def test_extract_nodes_blank_image():
    cloud = extract_nodes(RasterImage(np.zeros((30, 30))), PipelineParams())
    assert len(cloud) == 0
    assert cloud.image is not None


def test_extract_nodes_on_rod_image():
    spec = SynthSpec(dim=2, n_rods=3, length_range=(30.0, 55.0), seed=4)
    raster, _, _ = generate_image(spec)
    rods, _ = _place_rods(spec, np.random.default_rng(spec.seed))
    cloud = extract_nodes(raster, PipelineParams())
    assert len(cloud) >= 3 * 3
    per_rod = [0] * len(rods)
    for node in cloud.nodes:
        dists = [segment_distance(node.loc, node.loc, p0, p1) for p0, p1 in rods]
        nearest = int(np.argmin(dists))
        assert dists[nearest] <= 1.0  # nothing detected off the centerlines
        per_rod[nearest] += 1
        assert 0.0 <= node.intensity <= 1.0
        assert 0.0 <= node.loc[0] <= raster.width - 1
        assert 0.0 <= node.loc[1] <= raster.height - 1
    assert min(per_rod) >= 3
    # determinism
    again = extract_nodes(raster, PipelineParams())
    assert np.array_equal(cloud.locs(), again.locs())


def test_extract_nodes_weak_link_across_gap():
    # two collinear blob chains separated by a dark 9px gap: distance and
    # direction alone would still connect them, the intensity factor must not
    from lcuts.direction import VotingParams, assign_all_directions
    from lcuts.graph import GraphParams, build_adjacency, intensity_threshold
    from oracles import weight_distance

    px = np.full((41, 81), 0.05)
    yy, xx = np.mgrid[0:41, 0:81]
    for centers in (range(8, 33, 4), range(41, 70, 4)):
        for xc in centers:
            blob = 0.9 * np.exp(-((xx - xc) ** 2) / (2 * 1.8 ** 2)
                                - ((yy - 20.0) ** 2) / (2 * 3.75 ** 2))
            px = np.maximum(px, blob)
    raster = RasterImage(px)
    cloud = extract_nodes(raster, PipelineParams())
    assert len(cloud) >= 10
    left = [n.id for n in cloud.nodes if n.loc[0] < 37.0]
    right = [n.id for n in cloud.nodes if n.loc[0] >= 37.0]
    assert len(left) >= 5 and len(right) >= 5

    cloud = assign_all_directions(cloud, VotingParams())
    w = build_adjacency(cloud, GraphParams(), thresh=intensity_threshold(cloud)).weights
    locs = cloud.locs()
    gap = min(np.linalg.norm(locs[i] - locs[j]) for i in left for j in right)
    bridge = w[np.ix_(left, right)].max()
    assert bridge < 0.1
    # distance weighting alone would have kept the bridge several times stronger
    assert weight_distance(float(gap), GraphParams()) > 5.0 * bridge
    # consecutive within-chain links stay solid
    for side in (left, right):
        xs = sorted(side, key=lambda i: locs[i][0])
        for i, j in zip(xs, xs[1:]):
            assert w[i, j] > 0.3


def test_pipeline_params_validation():
    with pytest.raises(InputError):
        PipelineParams(gaussian_sigma=0.0)
    with pytest.raises(InputError):
        PipelineParams(maxima_window=4)
    with pytest.raises(InputError):
        PipelineParams(min_separation=-1.0)
    for name in ("gaussian_sigma", "background_radius", "min_separation",
                 "min_neighbor_dist", "detection_floor"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(InputError):
                PipelineParams(**{name: value})
    img = RasterImage(np.full((5, 5), 0.5))
    with pytest.raises(InputError):
        gaussian_filter(img, float("nan"))
    with pytest.raises(InputError):
        subtract_background(img, float("nan"))
    assert PipelineParams(background_radius=MAX_BACKGROUND_RADIUS).background_radius == 500.0
    for radius in (np.nextafter(MAX_BACKGROUND_RADIUS, np.inf), 3000.0, 1e7):
        with pytest.raises(InputError, match="backgroundRadius must be <= 500"):
            PipelineParams(background_radius=radius)
        with pytest.raises(InputError, match="<= 500"):
            subtract_background(img, radius)


def test_gaussian_sigma_bound():
    img = RasterImage(np.full((5, 5), 0.5))
    assert PipelineParams(gaussian_sigma=MAX_GAUSSIAN_SIGMA).gaussian_sigma == 100.0
    assert np.allclose(gaussian_filter(img, MAX_GAUSSIAN_SIGMA).pixels, 0.5, rtol=0, atol=1e-12)
    for sigma in (np.nextafter(MAX_GAUSSIAN_SIGMA, np.inf), 1e3, 1e12):
        with pytest.raises(InputError, match="gaussianSigma must be <= 100"):
            PipelineParams(gaussian_sigma=sigma)
        with pytest.raises(InputError, match="<= 100"):
            gaussian_filter(img, sigma)
