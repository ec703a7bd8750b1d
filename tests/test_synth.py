import numpy as np
import pytest

from lcuts import synth
from lcuts.errors import InputError
from lcuts.geometry import fit_line
from lcuts.graph import GraphParams, intensity_threshold
from lcuts.raster import bilinear_sample
from lcuts.synth import (SynthSpec, canvas_side, generate_cloud, generate_image,
                         segment_distance)
from oracles import keeps_gap, weight_intensity


def test_spec_validation():
    with pytest.raises(InputError):
        SynthSpec(dim=4)
    with pytest.raises(InputError):
        SynthSpec(n_rods=-1)
    with pytest.raises(InputError):
        SynthSpec(length_range=(50.0, 20.0))
    with pytest.raises(InputError):
        SynthSpec(spacing_along_rod=0.0)
    with pytest.raises(InputError):
        SynthSpec(crossings=1, n_rods=1)
    with pytest.raises(InputError):
        SynthSpec(intensity_valley=0.0)


@pytest.mark.parametrize("field, value, key", [
    ("spacing_along_rod", float("nan"), "spacingAlongRod"),
    ("spacing_along_rod", 1e-300, "spacingAlongRod"),
    ("spacing_along_rod", 55.0 / 10_000, "spacingAlongRod"),
    ("min_rod_gap", float("nan"), "minRodGap"),
    ("min_rod_gap", float("inf"), "minRodGap"),
    ("ortho_noise_std", float("nan"), "orthoNoiseStd"),
    ("ortho_noise_std", float("inf"), "orthoNoiseStd"),
    ("length_range", (25.0, float("inf")), "lengthMax"),
    ("length_range", (float("nan"), 55.0), "lengthMin"),
])
def test_spec_rejects_non_finite_and_oversampled_values(field, value, key):
    with pytest.raises(InputError, match=key):
        SynthSpec(**{field: value})


def test_spec_accepts_the_largest_sample_count():
    spec = SynthSpec(n_rods=1, ortho_noise_std=0.0, spacing_along_rod=55.0 / 9_999.5, seed=3)
    cloud, _ = generate_cloud(spec)
    assert len(cloud) <= 10_000


def test_same_seed_same_cloud():
    spec = SynthSpec(dim=2, n_rods=8, seed=42)
    a, ga = generate_cloud(spec)
    b, gb = generate_cloud(spec)
    assert np.array_equal(a.locs(), b.locs())
    assert ga == gb
    ia, _, _ = generate_image(spec)
    ib, _, _ = generate_image(spec)
    assert np.array_equal(ia.pixels, ib.pixels)


def test_single_noiseless_rod_is_collinear():
    spec = SynthSpec(dim=2, n_rods=1, ortho_noise_std=0.0, seed=3)
    cloud, groups = generate_cloud(spec)
    assert groups == [set(range(len(cloud)))]
    fit = fit_line(cloud.locs())
    assert fit.std <= 1e-9
    # spacing along the rod is honored
    gaps = np.linalg.norm(np.diff(cloud.locs(), axis=0), axis=1)
    assert np.allclose(gaps, spec.spacing_along_rod, atol=1e-9)
    assert fit.extent <= spec.length_range[1] + 1e-9


def test_min_rod_gap_respected():
    spec = SynthSpec(dim=2, n_rods=20, min_rod_gap=10.0, ortho_noise_std=0.5, seed=6)
    cloud, groups = generate_cloud(spec)
    locs = cloud.locs()
    label = np.empty(len(cloud), dtype=int)
    for k, g in enumerate(groups):
        label[sorted(g)] = k
    dist = np.sqrt(((locs[:, None, :] - locs[None, :, :]) ** 2).sum(axis=-1))
    cross = label[:, None] != label[None, :]
    assert dist[cross].min() >= 10.0 - 6.0 * spec.ortho_noise_std


def test_crossing_rods_nearly_touch():
    spec = SynthSpec(dim=2, n_rods=2, crossings=1, ortho_noise_std=0.0, seed=9)
    cloud, groups = generate_cloud(spec)
    assert len(groups) == 2
    locs = cloud.locs()
    a = sorted(groups[0])
    b = sorted(groups[1])
    dist = np.sqrt(((locs[a][:, None, :] - locs[b][None, :, :]) ** 2).sum(axis=-1))
    assert dist.min() < 2.0 * spec.spacing_along_rod


def test_valley_kills_cross_junction_weight():
    spec = SynthSpec(dim=2, n_rods=2, length_range=(40.0, 50.0), crossings=1,
                     intensity_valley=0.9, seed=5)
    raster, cloud, groups = generate_image(spec)
    # survivors on one rod straddle the junction; the connecting segment runs
    # straight through the valley floor
    g0 = sorted(groups[0])
    locs = cloud.locs()
    axis = fit_line(locs[g0]).axis
    proj = locs[g0] @ axis
    order = np.argsort(proj)
    best = None
    for lo, hi in zip(order[:-1], order[1:]):
        gap = proj[hi] - proj[lo]
        if best is None or gap > best[0]:
            best = (gap, g0[lo], g0[hi])
    assert best[0] > spec.spacing_along_rod * 1.5  # nodes near the valley were culled
    thresh = intensity_threshold(cloud)
    w = weight_intensity(cloud, best[1], best[2], thresh, GraphParams())
    assert w <= 0.1


def test_image_and_truth_consistent():
    spec = SynthSpec(dim=2, n_rods=5, seed=13)
    raster, cloud, groups = generate_image(spec)
    assert cloud.image is raster
    assert sorted(i for g in groups for i in g) == list(range(len(cloud)))
    peak = raster.pixels.max()
    assert peak == pytest.approx(0.9, abs=1e-9)
    for node in cloud.nodes:
        val = float(bilinear_sample(raster, node.loc[0], node.loc[1]))
        assert node.intensity == pytest.approx(val, abs=1e-12)
        assert val >= 0.75 * peak - 1e-12  # dim samples are not emitted as nodes


def test_blank_spec():
    spec = SynthSpec(n_rods=0)
    cloud, groups = generate_cloud(spec)
    assert len(cloud) == 0 and groups == []
    raster, icloud, igroups = generate_image(spec)
    assert raster.pixels.max() == 0.0
    assert len(icloud) == 0 and igroups == []


def test_3d_cloud_no_image():
    spec = SynthSpec(dim=3, n_rods=6, seed=2)
    cloud, groups = generate_cloud(spec)
    assert cloud.dim == 3
    assert cloud.locs().shape[1] == 3
    with pytest.raises(InputError):
        generate_image(spec)


def test_canvas_grows_with_rods():
    small = canvas_side(SynthSpec(n_rods=5))
    big = canvas_side(SynthSpec(n_rods=40))
    assert big > small


def test_image_canvas_is_bounded():
    # The largest images of the tests and of the image2d benchmark stay
    # well inside the bound.
    for spec in (SynthSpec(dim=2, n_rods=300, seed=1),
                 SynthSpec(dim=2, n_rods=60, crossings=20, intensity_valley=0.7)):
        assert canvas_side(spec) ** 2 < synth._MAX_CANVAS_PX / 4
    # A 447,377 px square, 1,491 GiB of float64, is refused before any of it.
    spec = SynthSpec(dim=2, n_rods=5, min_rod_gap=1e5)
    assert canvas_side(spec) ** 2 > synth._MAX_CANVAS_PX
    with pytest.raises(InputError, match="px"):
        generate_image(spec)


def test_segment_distance_cases():
    assert segment_distance((0.0, 0.0), (10.0, 0.0), (0.0, 3.0), (10.0, 3.0)) == pytest.approx(3.0)
    assert segment_distance((0.0, 0.0), (10.0, 0.0), (5.0, -2.0), (5.0, 2.0)) == pytest.approx(0.0)
    # degenerate: point vs segment
    assert segment_distance((4.0, 4.0), (4.0, 4.0), (0.0, 0.0), (8.0, 0.0)) == pytest.approx(4.0)
    # disjoint colinear
    assert segment_distance((0.0, 0.0), (2.0, 0.0), (5.0, 0.0), (9.0, 0.0)) == pytest.approx(3.0)


def random_specs(count: int) -> list[SynthSpec]:
    rng = np.random.default_rng(50)
    specs = []
    for k in range(count):
        n_rods = int(rng.integers(0, 40))
        lo = float(rng.uniform(5.0, 40.0))
        specs.append(SynthSpec(dim=int(rng.integers(2, 4)), n_rods=n_rods,
                               length_range=(lo, lo + float(rng.uniform(0.0, 30.0))),
                               spacing_along_rod=float(rng.uniform(2.0, 6.0)),
                               min_rod_gap=float(rng.uniform(3.0, 20.0)),
                               crossings=int(rng.integers(0, n_rods // 2 + 1)),
                               intensity_valley=0.7 if k % 2 else None, seed=k))
    return specs


# The field workloads' layouts, a dense layout, the image workload's inputs of
# generator seeds 1-3, and 60 random specs.
LAYOUT_SPECS = ([SynthSpec(dim=2, n_rods=300, seed=1), SynthSpec(dim=3, n_rods=200, seed=1),
                 SynthSpec(dim=2, n_rods=300, min_rod_gap=6.0, seed=1)]
                + [SynthSpec(dim=2, n_rods=60, crossings=20, intensity_valley=0.7,
                             seed=seed + 1000 * k) for seed in (1, 2, 3) for k in range(3)]
                + random_specs(60))


def test_box_pruned_gap_check_equals_scalar_loop(monkeypatch):
    def outputs(spec):
        cloud, groups = generate_cloud(spec)
        if spec.dim == 3:
            return cloud.locs(), groups
        img, ridge, ridge_groups = generate_image(spec)
        return cloud.locs(), groups, img.pixels, ridge.locs(), ridge.intensities(), ridge_groups

    fast = [outputs(spec) for spec in LAYOUT_SPECS]
    monkeypatch.setattr(synth, "_keeps_gap", keeps_gap)
    for spec, got in zip(LAYOUT_SPECS, fast):
        for a, b in zip(got, outputs(spec), strict=True):
            if isinstance(a, np.ndarray):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), spec
            else:
                assert a == b, spec
