"""The benchmark's workloads: how their inputs are made and what a job runs.

A job takes one input through the workload's CLI commands, in-process via
``lcuts.cli.main``. Every input comes from ``SynthSpec``; ``--seed`` picks the
generator seeds, or for the fixed-layout fields the node order.
The program sees only the generated files.
The checks after a job (artifact digests, structure of the cluster JSON,
accuracy) run outside its timing.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from lcuts.geometry import Node, PointCloud, write_cloud_csv
from lcuts.metrics import evaluate
from lcuts.raster import write_pgm
from lcuts.synth import SynthSpec, generate_cloud, generate_image

# An extracted node takes the rod label of the nearest ridge node of the
# generator within this distance, and otherwise stands alone.
RIDGE_MATCH_PX = 3.0
# The field workloads keep the rod layout of this generator seed, the one
# ROADMAP's hand measurements used; see ``present``.
FIELD_LAYOUT_SEED = 1


def field(dim: int, n_rods: int, tiny_rods: int):
    """One field with the rod layout of ``FIELD_LAYOUT_SEED``."""
    return lambda tiny: [SynthSpec(dim=dim, n_rods=tiny_rods if tiny else n_rods,
                                   seed=FIELD_LAYOUT_SEED)]


def images(tiny: bool) -> list[SynthSpec]:
    n_rods = 8 if tiny else 60
    return [SynthSpec(dim=2, n_rods=n_rods, crossings=n_rods // 3, intensity_valley=0.7)
            for _ in range(3)]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[bool], list[SynthSpec]]  # the inputs' specs, full size or tiny
    image: bool        # extract -> cluster --image -> render, else cluster -> evaluate -> render
    # (gacc, cacc). A job scoring below either job floor fails; a run whose
    # mean over its jobs falls below either run floor is not correct.
    job_floor: tuple[float, float]
    run_floor: tuple[float, float]
    # Largest share of a traced job that the two catch-all layers,
    # ``cli.self_s`` and ``engine.self_s``, may hold together; more means
    # work has moved into code that no span covers.
    catchall_cap: float
    # The seed reorders and relabels one fixed layout instead of drawing a
    # new one. The cost of a field's dense eigensolves follows the recursion
    # through its largest components, which differs so much between layouts
    # (spectral time 1.2 s against 3.2 s on two 3-D fields with largest
    # components of 1,290 and 1,441 nodes) that drawn layouts spread job
    # times by a third across seeds, more than any bound can absorb.
    fixed_layout: bool = False

    def specs(self, seed: int, tiny: bool) -> list[SynthSpec]:
        """The inputs of one run; input k uses generator seed ``seed + 1000 k``,
        except in a fixed-layout workload."""
        specs = self.build(tiny)
        if self.fixed_layout:
            return specs
        return [replace(spec, seed=seed + 1000 * k) for k, spec in enumerate(specs)]


WORKLOADS = {w.name: w for w in (
    # Floors: just below the lowest accuracy of a job, and of a run's mean,
    # that the seed commit scored over many seeds; see perfbench/baseline.json.
    # Catch-all caps: 0.15 above the larger of the seed commit's shares at
    # full size and at the smoke check's tiny size.
    Workload("field2d", field(2, 300, 20), image=False, job_floor=(0.999, 0.999),
             run_floor=(0.999, 0.999), catchall_cap=0.75, fixed_layout=True),
    Workload("field3d", field(3, 200, 15), image=False, job_floor=(0.999, 0.999),
             run_floor=(0.999, 0.999), catchall_cap=0.45, fixed_layout=True),
    Workload("image2d", images, image=True, job_floor=(0.87, 0.85),
             run_floor=(0.925, 0.905), catchall_cap=0.20),
)}


@dataclass
class Input:
    path: Path                       # cloud CSV with a group column, or PGM image
    nodes: int | None                # cloud size; image inputs learn it from the job
    ridge: np.ndarray | None = None  # image inputs: generator ridge nodes ...
    ridge_rod: np.ndarray | None = None  # ... and the rod each belongs to


def present(cloud: PointCloud, groups: list[set[int]], seed: int):
    """The cloud in a seeded node order, with the groups relabelled to match.
    Coordinates are kept bit for bit. Even a reflection of the axes changes
    rounding enough to move the first Fiedler split of the 3-D field's
    1,617-node component (to 995 or to 760 nodes), and with it the recursion
    below: over eight seeds, sign flips spread ``lcuts()`` from 3.4 to 4.7 s,
    where a node order alone kept every split and the same work."""
    order = np.random.default_rng(seed).permutation(len(cloud))
    new_id = np.empty(len(cloud), dtype=np.int64)
    new_id[order] = np.arange(len(cloud))
    locs = cloud.locs()
    nodes = [Node(id=j, loc=locs[i]) for j, i in enumerate(order.tolist())]
    return PointCloud(nodes, cloud.dim), [{int(new_id[i]) for i in g} for g in groups]


def make_inputs(workload: Workload, specs: list[SynthSpec], directory: Path, seed: int,
                tag: str = "in") -> tuple[list[Input], float]:
    """Write the inputs; returns them with the seconds the generator took."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs: list[Input] = []
    generate_s = 0.0
    for k, spec in enumerate(specs):
        t0 = time.perf_counter()
        if workload.image:
            raster, ridge, groups = generate_image(spec)
        else:
            cloud, groups = generate_cloud(spec)
        generate_s += time.perf_counter() - t0
        if workload.fixed_layout:
            cloud, groups = present(cloud, groups, seed)
        if workload.image:
            path = directory / f"{tag}{k}.pgm"
            write_pgm(path, raster)
            rod = np.empty(len(ridge), dtype=np.int64)
            for label, members in enumerate(groups):
                rod[sorted(members)] = label
            inputs.append(Input(path, None, ridge.locs(), rod))
        else:
            path = directory / f"{tag}{k}.csv"
            write_cloud_csv(path, cloud, groups)
            inputs.append(Input(path, len(cloud)))
    return inputs, generate_s


def artifacts(workload: Workload, directory: Path) -> list[Path]:
    """The job's output files, in digest order."""
    middle = "found.csv" if workload.image else "metrics.json"
    return [directory / "pred.json", directory / middle, directory / "view.svg"]


def commands(workload: Workload, inp: Input, directory: Path) -> list[list[str]]:
    pred, middle, svg = map(str, artifacts(workload, directory))
    if workload.image:
        return [["--quiet", "extract", str(inp.path), middle],
                ["--quiet", "cluster", middle, pred, "--image", str(inp.path)],
                ["--quiet", "render", pred, svg]]
    return [["--quiet", "cluster", str(inp.path), pred],
            ["--quiet", "evaluate", pred, str(inp.path), middle],
            ["--quiet", "render", pred, svg]]


def run_job(cli, workload: Workload, inp: Input, directory: Path) -> dict:
    """Time one job, then check its outputs. ``cli.main`` is looked up on
    every call so that a traced run reaches the wrapper."""
    paths = artifacts(workload, directory)
    for path in paths:
        path.unlink(missing_ok=True)
    codes = []
    t0 = time.perf_counter()
    for argv in commands(workload, inp, directory):
        codes.append(cli.main(argv))
        if codes[-1] != 0:
            break
    wall = time.perf_counter() - t0
    job = {"wall_s": wall, "nodes": 0, "gacc": 0.0, "cacc": 0.0, "error": None,
           "digests": None, "out_bytes": 0}
    if any(codes):
        job["error"] = f"exit codes {codes}"
        return job
    raw = paths[0].read_bytes()
    doc = json.loads(raw)
    n = doc["n"]
    members = sorted([i for g in doc["groups"] for i in g] + list(doc["outliers"]))
    if members != list(range(n)) or (inp.nodes is not None and n != inp.nodes):
        job["error"] = "groups and outliers do not partition the input nodes"
        return job
    job["nodes"] = n
    job["digests"] = [hashlib.sha256(raw).hexdigest()] + [
        hashlib.sha256(p.read_bytes()).hexdigest() for p in paths[1:]]
    job["out_bytes"] = sum(p.stat().st_size for p in paths)
    if workload.image:
        report = score_extraction(doc, inp)
    else:
        report = json.loads(paths[1].read_text(encoding="utf-8"))
    job["gacc"], job["cacc"] = report["gacc"], report["cacc"]
    if job["gacc"] < workload.job_floor[0] or job["cacc"] < workload.job_floor[1]:
        job["error"] = (f"accuracy gacc={job['gacc']:.4f} cacc={job['cacc']:.4f} below the "
                        f"job floors {workload.job_floor}")
    return job


def run_accuracy(workload: Workload, jobs: list[dict]) -> list[str]:
    """Problems with the mean accuracy of a run's jobs."""
    gacc, cacc = (sum(job[key] for job in jobs) / len(jobs) for key in ("gacc", "cacc"))
    if gacc < workload.run_floor[0] or cacc < workload.run_floor[1]:
        return [f"mean accuracy gacc={gacc:.4f} cacc={cacc:.4f} below the run floors "
                f"{workload.run_floor}"]
    return []


def score_extraction(doc: dict, inp: Input) -> dict:
    """Accuracy of an image job against the generator's ridge nodes."""
    locs = np.array([node["loc"] for node in doc["nodes"]], dtype=np.float64).reshape(-1, 2)
    d2 = ((locs[:, None, :] - inp.ridge[None, :, :]) ** 2).sum(axis=-1)
    nearest = d2.argmin(axis=1)
    matched = d2[np.arange(len(locs)), nearest] <= RIDGE_MATCH_PX ** 2
    truth: dict[object, set[int]] = {}
    for i in range(len(locs)):
        key = int(inp.ridge_rod[nearest[i]]) if matched[i] else ("alone", i)
        truth.setdefault(key, set()).add(i)
    pred = [set(g) for g in doc["groups"]] + [{int(o)} for o in doc["outliers"]]
    report = evaluate(pred, list(truth.values()))
    return {"gacc": report.gacc, "cacc": report.cacc}
