import hashlib
import json
import time

import numpy as np
import pytest

from lcuts import synth
from lcuts.errors import InputError, SynthesisError
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
    monkeypatch.setattr(synth, "_keeps_gap", lambda rod, ends, boxes, gap: keeps_gap(rod, ends, gap))
    for spec, got in zip(LAYOUT_SPECS, fast):
        for a, b in zip(got, outputs(spec), strict=True):
            if isinstance(a, np.ndarray):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), spec
            else:
                assert a == b, spec


def test_coinciding_samples_keep_the_first(monkeypatch):
    # Two rods meet at the origin, one sampled there as (-0.0, 0.0) and the
    # next as (0.0, 0.0). Locations compare by float ==, so the second is a
    # repeat: the node keeps the first rod's sample, sign bit and all. (The
    # first rod leans by the smallest subnormal, so its axis has an x of -0.0
    # and its samples keep the sign.)
    rods = [(np.array([-0.0, 0.0]), np.array([-5e-324, 20.0])),
            (np.array([0.0, 0.0]), np.array([20.0, 0.0]))]
    monkeypatch.setattr(synth, "_place_rods", lambda spec, rng: (rods, []))
    spec = SynthSpec(n_rods=2, spacing_along_rod=4.0, ortho_noise_std=0.0)
    cloud, groups = generate_cloud(spec)
    locs = cloud.locs()
    assert len(cloud) == 6 + 5 and groups == [set(range(6)), set(range(6, 11))]
    assert locs[0].tolist() == [0.0, 0.0] and np.signbit(locs[0]).tolist() == [True, False]
    assert locs[6].tolist() == [4.0, 0.0]
    _, ridge, ridge_groups = generate_image(spec)
    assert ridge.locs()[0].tobytes() == locs[0].tobytes()
    assert sorted(i for g in ridge_groups for i in g) == list(range(len(ridge)))
    assert not any(np.array_equal(p, [0.0, 0.0]) for p in ridge.locs()[1:])


def output_digests(spec: SynthSpec) -> dict[str, str]:
    """sha256 of the cloud locations and the groups and, in 2-D, of the image
    pixels, the ridge cloud (locations, intensities) and its groups."""
    def sha(*parts) -> str:
        return hashlib.sha256(b"".join(np.ascontiguousarray(p).tobytes() for p in parts)).hexdigest()

    def sha_groups(groups) -> str:
        return hashlib.sha256(json.dumps([sorted(g) for g in groups]).encode()).hexdigest()

    cloud, groups = generate_cloud(spec)
    out = {"locs": sha(cloud.locs()), "groups": sha_groups(groups)}
    if spec.dim == 2:
        img, ridge, ridge_groups = generate_image(spec)
        out.update(pixels=sha(img.pixels), ridge=sha(ridge.locs(), ridge.intensities()),
                   ridge_groups=sha_groups(ridge_groups))
    return out


# Generator outputs at sizes the scalar-loop comparison above cannot afford:
# a crowded 3-D field with crossings, and 2-D fields whose image, ridge cloud
# and valleys are pinned too. Any change that moves one RNG draw or one bit
# of placement or rendering shows here.
PINNED_DIGESTS = [
    (SynthSpec(dim=2, n_rods=1000, seed=3),
     {"locs": "903c308cfb113895d28040b2ecb35cb5129b9e083a78f993743538b4707e653f",
      "groups": "e5d8e00a7821e22f3b82c3348f8418a11e59edd76083b384f9bd0eefde48d21a",
      "pixels": "7192ff20c64ff1588c0a3d4ad453353f8904304048557b073fa43eff363a10bd",
      "ridge": "a06c164586f9b56c2b40e8c9609c1db5e443f012e205ef98c221b6cafb5002e8",
      "ridge_groups": "e5d8e00a7821e22f3b82c3348f8418a11e59edd76083b384f9bd0eefde48d21a"}),
    (SynthSpec(dim=3, n_rods=600, crossings=100, min_rod_gap=6.0, seed=2),
     {"locs": "b016c1d0f4f2c8db1b48ea00d6643e8bebf4e520a07b1a4c0c1f6b4fa8d6c0cf",
      "groups": "7218ea9b5a680f5db54202364656f53f1b6d41dcc033f9eeafe54fc42dddf263"}),
    (SynthSpec(dim=2, n_rods=200, crossings=60, intensity_valley=0.7, seed=4),
     {"locs": "6b3de5a7015a4c55440864f22e8b9c664c730df36b05fbe463f4a4f2a7317d7c",
      "groups": "cdc852f9bd700cf999696c06829bc96d438efc674335cce51888f9f2cb3c1018",
      "pixels": "3c774fb61d49d0ea96e5b2b635ff3a50e390f3916f2d8a5b7eb84f8419f1e16c",
      "ridge": "84c5a13b2ad29dcf25a32c5ade0cf1de1296bde5b99578c5c86a347e9ea4cc8f",
      "ridge_groups": "bceb67d2d07874f34a4161fa0c11a4b92f07b369c30aa912330efd68b5d88f6f"}),
]


@pytest.mark.parametrize("spec, digests", PINNED_DIGESTS)
def test_generator_outputs_are_pinned(spec, digests):
    assert output_digests(spec) == digests


def test_3000_rods_generate_in_under_2_s():
    # An attempt is one numpy pass over the placed rods: about 0.5 s for all
    # 3,000 on a 2-CPU Xeon, where converting the placed rods to an array at
    # every attempt took 4.1 s.
    t0 = time.perf_counter()
    generate_cloud(SynthSpec(dim=2, n_rods=3000, seed=1))
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("spec, message", [
    (SynthSpec(dim=2, n_rods=3), "could not place rod 0 after 1 attempts; lower nRods or minRodGap"),
    (SynthSpec(dim=3, n_rods=4, crossings=1),
     "could not place crossing pair 0 after 1 attempts; lower nRods or minRodGap"),
])
def test_placement_gives_up_after_its_attempts(monkeypatch, spec, message):
    monkeypatch.setattr(synth, "_MAX_ATTEMPTS", 1)
    monkeypatch.setattr(synth, "_in_bounds", lambda rod, side: False)
    with pytest.raises(SynthesisError) as err:
        generate_cloud(spec)
    assert str(err.value) == message
