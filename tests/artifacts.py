"""The sha256 digests of every CLI artifact on seven fixed inputs.

``tests/artifacts.json`` pins them, and ``test_artifacts`` regenerates them
and compares. A refactor that claims byte-identical outputs is checked
against the manifest; a change that moves a digest rewrites it with

    PYTHONPATH=src python tests/artifacts.py

and lists each changed artifact, with the reason, in CHANGES.md.

Each input runs in its own child process, ``python tests/artifacts.py
--input NAME DIR``, under ``OPENBLAS_NUM_THREADS=1``, since a split's
eigenvectors, and so the recursion tree, can depend on the BLAS thread
count. The child writes the input, runs the CLI commands through
``lcuts.cli.main`` and prints the digests of what they wrote as JSON.

The inputs:
  - ``field2d`` and ``field3d``: the 2-D 300-rod and 3-D 200-rod layouts of
    generator seed 1, in the node order of the benchmark's ``present`` for
    seed 1 (``perfbench/workloads.py``);
  - ``image2d-1`` .. ``image2d-3``: the benchmark's 60-rod image spec at
    generator seeds 1-3, through extract, cluster --image and render;
  - ``dense2d``: 300 rods in 2-D at ``min_rod_gap = 6``, seed 1, in
    generator order;
  - ``chain41``: 41 nodes 4 px apart on one straight line, one group. The
    sweep's two middle thresholds tie exactly, so the tie rule of
    ``spectral.ncut_bipartition`` decides its tree; no other input has a
    tie that changes a split.
A field input, or the chain, runs cluster, evaluate and render.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import scipy

MANIFEST = Path(__file__).with_name("artifacts.json")
SRC = Path(__file__).resolve().parents[1] / "src"
# Children run at once; each is one process on one BLAS thread.
WORKERS = 2

# name -> (dim, rods, min_rod_gap, seed of the present order or None)
FIELDS = {
    "field2d": (2, 300, 15.0, 1),
    "field3d": (3, 200, 15.0, 1),
    "dense2d": (2, 300, 6.0, None),
}
CHAIN = "chain41"
IMAGE_SEEDS = {"image2d-1": 1, "image2d-2": 2, "image2d-3": 3}
INPUTS = [*FIELDS, CHAIN, *IMAGE_SEEDS]


def build() -> dict:
    """The numpy and scipy versions and the BLAS each was built against."""
    def blas(config: dict) -> str:
        lib = config["Build Dependencies"]["blas"]
        return f"{lib['name']} {lib['version']}"

    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np.show_config(mode="dicts")),
            "scipy_blas": blas(scipy.show_config(mode="dicts"))}


def write_input(name: str, directory: Path) -> list[list[str]]:
    """Write the input's files into ``directory``; returns its CLI commands."""
    from lcuts.geometry import PointCloud, write_cloud_csv
    from lcuts.raster import write_pgm
    from lcuts.synth import SynthSpec, generate_cloud, generate_image

    d = str(directory)
    if name in IMAGE_SEEDS:
        spec = SynthSpec(dim=2, n_rods=60, crossings=20, intensity_valley=0.7,
                         seed=IMAGE_SEEDS[name])
        write_pgm(f"{d}/image.pgm", generate_image(spec)[0])
        return [["extract", f"{d}/image.pgm", f"{d}/found.csv"],
                ["--dump-adjacency", f"{d}/adjacency.csv", "cluster", f"{d}/found.csv",
                 f"{d}/pred.json", "--image", f"{d}/image.pgm"],
                ["render", f"{d}/pred.json", f"{d}/view.svg"]]
    if name == CHAIN:
        cloud = PointCloud.from_arrays(np.stack([4.0 * np.arange(41), np.zeros(41)], axis=1))
        groups, present_seed = [set(range(41))], None
    else:
        dim, n_rods, gap, present_seed = FIELDS[name]
        cloud, groups = generate_cloud(SynthSpec(dim=dim, n_rods=n_rods, min_rod_gap=gap, seed=1))
    if present_seed is not None:
        # perfbench's present(): the locations in a seeded order, without
        # intensities, and the groups relabelled to match.
        order = np.random.default_rng(present_seed).permutation(len(cloud))
        new_id = np.empty(len(cloud), dtype=np.int64)
        new_id[order] = np.arange(len(cloud))
        cloud = PointCloud.from_arrays(cloud.locs()[order])
        groups = [{int(new_id[i]) for i in g} for g in groups]
    write_cloud_csv(f"{d}/cloud.csv", cloud, groups)
    return [["--dump-adjacency", f"{d}/adjacency.csv", "cluster", f"{d}/cloud.csv",
             f"{d}/pred.json"],
            ["evaluate", f"{d}/pred.json", f"{d}/cloud.csv", f"{d}/metrics.json"],
            ["render", f"{d}/pred.json", f"{d}/view.svg"]]


def run_input(name: str, directory: Path) -> dict[str, str]:
    """Run one input's commands in this process; the digests of its artifacts."""
    from lcuts import cli

    directory.mkdir(parents=True, exist_ok=True)
    for argv in write_input(name, directory):
        if cli.main(["--quiet", *argv]) != 0:
            raise SystemExit(f"{name}: {' '.join(argv)} failed")
    artifacts = ["pred.json", "adjacency.csv", "found.csv" if name in IMAGE_SEEDS else "metrics.json",
                 "view.svg"]
    return {a: hashlib.sha256((directory / a).read_bytes()).hexdigest() for a in artifacts}


def digests(directory: Path) -> dict[str, dict[str, str]]:
    """Every input's artifact digests, each input run in a child process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def child(name: str) -> dict[str, str]:
        res = subprocess.run([sys.executable, __file__, "--input", name, str(directory / name)],
                             env=env, capture_output=True, text=True)
        if res.returncode != 0:
            raise RuntimeError(f"artifact child {name} exited {res.returncode}: {res.stderr}")
        return json.loads(res.stdout)

    with ThreadPoolExecutor(WORKERS) as pool:
        return dict(zip(INPUTS, pool.map(child, INPUTS)))


def main() -> None:
    parser = argparse.ArgumentParser(description="Rewrite tests/artifacts.json.")
    parser.add_argument("--input", nargs=2, metavar=("NAME", "DIR"),
                        help="run one input in this process and print its digests")
    args = parser.parse_args()
    if args.input:
        name, directory = args.input
        print(json.dumps(run_input(name, Path(directory))))
        return
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {"build": build(), "digests": digests(Path(tmp))}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}")


if __name__ == "__main__":
    main()
