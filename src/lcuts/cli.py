"""Command-line interface.

Subcommands: extract (image -> cloud CSV), cluster (cloud -> groups JSON),
evaluate (prediction vs truth -> metrics JSON), synth (spec -> cloud CSV and,
in 2-D, a PGM), and render (cloud CSV or cluster JSON -> SVG). Exit codes:
0 success, 1 computation error, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from .config import Config, read_synth_spec
from .engine import ClusterResult, lcuts
from .errors import InputError, LcutsError
from .geometry import PointCloud, read_cloud_csv, unchecked_cloud, write_cloud_csv
from .graph import write_adjacency_csv
from .metrics import evaluate
from .pipeline import extract_nodes
from .raster import bilinear_sample, read_image, write_pgm
from .render import render_svg, write_svg
from .synth import generate_cloud, generate_image

log = logging.getLogger("lcuts")


def _load_config(path: str | None) -> Config:
    return Config.from_file(path) if path else Config.default()


def _result_json(result: ClusterResult, cloud: PointCloud, cfg: Config) -> str:
    fits = []
    for fit in result.per_group:
        if fit is None:
            fits.append(None)
        else:
            fits.append({
                "centroid": [float(v) for v in fit.centroid],
                "axis": [float(v) for v in fit.axis],
                "std": fit.std,
                "eccentricity": fit.eccentricity,
                "extent": fit.extent,
            })
    nodes = []
    for node in cloud.nodes:
        nodes.append({
            "id": node.id,
            "loc": [float(v) for v in node.loc],
            "intensity": node.intensity,
        })
    doc = {
        "params": cfg.echo(),
        "n": len(cloud),
        "dim": cloud.dim,
        "groups": result.groups,
        "outliers": result.outliers,
        "perGroup": fits,
        "forced": result.forced,
        "nodes": nodes,
        "tree": None if result.tree is None else result.tree.to_dict(),
    }
    return json.dumps(doc)


def cmd_extract(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    img = read_image(args.image)
    cloud = extract_nodes(img, cfg.pipeline)
    write_cloud_csv(args.out, cloud)
    if not args.quiet:
        log.info("extracted %d nodes from %s", len(cloud), args.image)
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    cloud, _ = read_cloud_csv(args.cloud)
    if args.image:
        if cloud.dim != 2:
            raise InputError("an image can only accompany a 2-D cloud")
        img = read_image(args.image)
        # CSVs without intensities can still drive the intensity weighting:
        # sample the image at the locations of the nodes that lack one.
        intensities = cloud.intensities()
        missing = [k for k, v in enumerate(intensities) if v is None]
        locs = cloud.locs()
        sampled = np.clip(bilinear_sample(img, locs[missing, 0], locs[missing, 1]), 0.0, 1.0)
        for k, v in zip(missing, sampled.tolist()):
            intensities[k] = v
        # read_cloud_csv has validated the cloud, and only valid intensities
        # were added, so it is not checked again.
        cloud = unchecked_cloud(locs, intensities, image=img)
    result = lcuts(cloud, cfg.graph, cfg.voting, cfg.limits)
    if args.dump_adjacency:
        write_adjacency_csv(args.dump_adjacency, result.graph)
    Path(args.out).write_text(_result_json(result, cloud, cfg), encoding="utf-8")
    if not args.quiet:
        log.info("clustered %d nodes into %d groups (%d outliers)",
                 len(cloud), len(result.groups), len(result.outliers))
    return 0


def _is_id(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_coord(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return _is_coord(value) and math.isfinite(value)


def _is_vector(value, dim: int) -> bool:
    return isinstance(value, list) and len(value) == dim and all(map(_is_finite, value))


def _is_fit(entry, dim: int) -> bool:
    """A ``perGroup`` entry that render can draw: null, or an object with
    finite ``centroid`` and ``axis`` vectors of ``dim`` numbers and a finite
    ``extent``."""
    return entry is None or (isinstance(entry, dict) and _is_vector(entry.get("centroid"), dim)
                             and _is_vector(entry.get("axis"), dim)
                             and _is_finite(entry.get("extent")))


def _read_result_json(path: str, with_locs: bool = False) -> tuple[dict, np.ndarray | None]:
    """Read a cluster JSON and check what the caller uses: integer ids in
    ``groups`` and ``outliers`` and, when ``with_locs`` is set, the node
    locations, returned as an (n, dim) array that every id indexes, and the
    optional ``perGroup`` fits, one per group."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: cannot read cluster JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: cluster JSON must be an object")
    for key in ("groups", "outliers"):
        if key not in doc:
            raise InputError(f"{path}: cluster JSON lacks the {key!r} field")
    groups, outliers = doc["groups"], doc["outliers"]
    if not isinstance(groups, list) or not all(isinstance(g, list) and all(map(_is_id, g))
                                               for g in groups):
        raise InputError(f"{path}: 'groups' must be a list of lists of integer ids")
    if not isinstance(outliers, list) or not all(map(_is_id, outliers)):
        raise InputError(f"{path}: 'outliers' must be a list of integer ids")
    if not with_locs:
        return doc, None
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not all(isinstance(n, dict) and "loc" in n for n in nodes):
        raise InputError(f"{path}: cluster JSON lacks node locations")
    rows = [n["loc"] for n in nodes]
    if (not all(isinstance(p, list) and len(p) in (2, 3) and all(map(_is_coord, p)) for p in rows)
            or len({len(p) for p in rows}) > 1):
        raise InputError(f"{path}: every node loc must be a list of 2 or 3 numbers, "
                         f"all of one length")
    locs = np.array(rows, dtype=np.float64)
    if not np.isfinite(locs).all():
        raise InputError(f"{path}: node locations must be finite")
    bad = [i for g in groups + [outliers] for i in g if not 0 <= i < len(nodes)]
    if bad:
        raise InputError(f"{path}: node id {bad[0]} is not in 0..{len(nodes) - 1}")
    fits = doc.get("perGroup")
    dim = locs.shape[1] if locs.ndim == 2 else 2
    if fits is not None and not (isinstance(fits, list) and len(fits) == len(groups)
                                 and all(_is_fit(fit, dim) for fit in fits)):
        raise InputError(f"{path}: 'perGroup' must hold one entry per group, each null or "
                         f"a fit with finite 'centroid' and 'axis' of {dim} numbers and a "
                         f"finite 'extent'")
    return doc, locs


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    doc, _ = _read_result_json(args.pred)
    pred = [set(g) for g in doc["groups"]] + [{o} for o in doc["outliers"]]
    _, truth = read_cloud_csv(args.truth)
    if truth is None:
        raise InputError(f"{args.truth}: truth CSV must carry a group column")
    try:
        report = evaluate(pred, truth, cfg.overlap_frac)
    except InputError as exc:
        raise InputError(f"prediction/truth mismatch: {exc}") from exc
    Path(args.out).write_text(json.dumps(report.to_dict(), indent=2), encoding="utf-8")
    if not args.quiet:
        print(f"gacc={report.gacc} cacc={report.cacc}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    spec = read_synth_spec(args.spec)
    # Rendered first, so a spec it rejects costs no rod placement and leaves no file.
    img = generate_image(spec)[0] if spec.dim == 2 else None
    cloud, groups = generate_cloud(spec)
    prefix = Path(args.out_prefix)
    write_cloud_csv(prefix.with_suffix(".csv"), cloud, groups)
    if img is not None:
        write_pgm(prefix.with_suffix(".pgm"), img)
    if not args.quiet:
        log.info("generated %d nodes across %d rods", len(cloud), spec.n_rods)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    src = str(args.input)
    if src.lower().endswith(".json"):
        doc, locs = _read_result_json(src, with_locs=True)
        groups, outliers = doc["groups"], doc["outliers"]
        fits = doc.get("perGroup")
    else:
        cloud, truth = read_cloud_csv(src)
        locs = cloud.locs()
        if truth is not None:
            groups = [sorted(g) for g in truth]
        else:
            groups = [list(range(len(cloud)))] if len(cloud) else []
        outliers = []
        fits = None
    svg = render_svg(locs, groups, outliers, fits)
    write_svg(args.out, svg)
    if not args.quiet:
        log.info("wrote %s", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcuts",
        description="Cluster point clouds into collinear groups by recursive normalized cuts.")
    parser.add_argument("--config", help="flat key=value parameter file")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument("--dump-adjacency", metavar="PATH",
                        help="write the affinity matrix CSV (cluster command)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="detect ridge nodes in an image")
    p.add_argument("image", help="input PGM or CSV-grid image")
    p.add_argument("out", help="output cloud CSV")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("cluster", help="group a point cloud")
    p.add_argument("cloud", help="input cloud CSV")
    p.add_argument("out", help="output JSON")
    p.add_argument("--image", help="raster to sample for intensity weighting")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("evaluate", help="score a clustering against ground truth")
    p.add_argument("pred", help="cluster JSON")
    p.add_argument("truth", help="truth cloud CSV with a group column")
    p.add_argument("out", help="output metrics JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    p.add_argument("spec", help="generator spec (flat key=value)")
    p.add_argument("out_prefix", help="output path prefix")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("render", help="draw a cloud or clustering as SVG")
    p.add_argument("input", help="cloud CSV or cluster JSON")
    p.add_argument("out", help="output SVG")
    p.set_defaults(func=cmd_render)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Building the parser costs over ten times as much as parsing, so callers
    # that run main() many times in one process build it once. Parsing
    # leaves the parser unchanged.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LcutsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
