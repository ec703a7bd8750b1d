"""Spans around lcuts's layer entry points, recorded from outside the library.

The traced child replaces module attributes with timing wrappers, so no
library file changes. Each wrapper records a span (name, start, end, parent
span, job id) in memory. Counts are taken only from the objects the wrapped
calls return, and are computed after the job ends so that counting adds no
time to any span or to the job.

A layer's self time is its spans' durations minus the durations of their
direct child spans. Summed over every span of a job, self times equal the
job's root spans (the ``cli.main`` calls) by construction, so the accounted
share of a job's wall time only shows the gaps between those calls. Time in
code that no span covers lands in the catch-all layers ``cli.self_s`` and
``engine.self_s``; their share is what can show that the split is
incomplete.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from statistics import mean

import numpy as np


def counts(*names: str):
    """Declare the count metrics that a count function returns."""
    def mark(fn):
        fn.names = names
        return fn
    return mark


@counts("direction.undirected")
def _undirected(cloud) -> dict:
    return {"direction.undirected": sum(1 for node in cloud.nodes if node.dir is None)}


@counts("graph.active_pairs", "graph.dense_bytes")
def _graph_counts(graph) -> dict:
    n = graph.n
    # The matrix is symmetric with a zero diagonal, so each pair shows twice.
    return {"graph.active_pairs": int(np.count_nonzero(graph.weights)) // 2,
            "graph.dense_bytes": 8 * n * n}


@counts("spectral.component_splits", "spectral.fiedler_splits", "spectral.max_fiedler_n")
def _split_counts(part) -> dict:
    n = len(part.group_a) + len(part.group_b)
    # A disconnected graph is split by components with ncut exactly 0; any
    # Fiedler split of a connected graph cuts a positive weight.
    if part.ncut == 0.0:
        return {"spectral.component_splits": 1}
    return {"spectral.fiedler_splits": 1, "spectral.max_fiedler_n": n}


@counts("engine.tree_nodes")
def _tree_nodes(result) -> dict:
    count, walk = 0, [result.tree] if result.tree is not None else []
    while walk:
        node = walk.pop()
        count += 1
        walk.extend(node.children)
    return {"engine.tree_nodes": count}


@counts("pipeline.candidates")
def _candidates(points) -> dict:
    return {"pipeline.candidates": len(points)}


@counts("pipeline.nodes")
def _pipeline_nodes(cloud) -> dict:
    return {"pipeline.nodes": len(cloud)}


@counts("engine.stop_checks")
def _stop_check(_) -> dict:
    return {"engine.stop_checks": 1}


# (module, attribute, self-time metric, count function on the return value).
# The names are looked up at call time by the code that calls them, so
# replacing the attribute in the calling module is enough.
WRAPPED = [
    ("lcuts.cli", "main", "cli.self_s", None),
    ("lcuts.cli", "read_cloud_csv", "geometry.read_cloud_s", None),
    ("lcuts.cli", "write_cloud_csv", "geometry.write_cloud_s", None),
    ("lcuts.cli", "read_image", "raster.read_image_s", None),
    ("lcuts.cli", "lcuts", "engine.self_s", _tree_nodes),
    ("lcuts.cli", "evaluate", "metrics.evaluate_s", None),
    ("lcuts.cli", "render_svg", "render.svg_s", None),
    ("lcuts.cli", "write_svg", "render.svg_s", None),
    ("lcuts.pipeline", "gaussian_filter", "pipeline.gaussian_s", None),
    ("lcuts.pipeline", "subtract_background", "pipeline.background_s", None),
    ("lcuts.pipeline", "find_local_maxima", "pipeline.maxima_s", _candidates),
    ("lcuts.pipeline", "prune_nodes", "pipeline.prune_s", _pipeline_nodes),
    ("lcuts.engine", "assign_all_directions", "direction.assign_s", _undirected),
    ("lcuts.engine", "intensity_threshold", "graph.threshold_s", None),
    ("lcuts.engine", "build_adjacency", "graph.adjacency_s", _graph_counts),
    ("lcuts.engine", "check_stopping", "engine.stop_check_s", _stop_check),
    ("lcuts.engine", "ncut_bipartition", "spectral.bipartition_s", _split_counts),
]

METRIC_OF = {f"{module}.{attr}": metric for module, attr, metric, _ in WRAPPED}
SELF_METRICS = sorted(set(METRIC_OF.values()))
COUNT_METRICS = sorted({name for *_, count in WRAPPED if count for name in count.names})
# Counts named ``<layer>.max_*`` keep the largest value seen rather than a
# per-job total.
MAX_COUNTS = {name for name in COUNT_METRICS if name.split(".")[1].startswith("max_")}
# The layers that take the time of any code no span covers.
CATCHALL = ("cli.self_s", "engine.self_s")


class Tracer:
    """Records spans of the wrapped calls and the counts of their results."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index, job]
        self.job: int | None = None
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self._pending.append((self.job, count, result))
            return result
        return traced

    def install(self) -> None:
        for module, attr, _, count in WRAPPED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(getattr(mod, attr), f"{module}.{attr}", count))

    def end_job(self) -> None:
        """Resolve the counts of the finished job, outside its timing."""
        for job, count, result in self._pending:
            totals = self.counts[job]
            for name, value in count(result).items():
                totals[name] = max(totals[name], value) if name in MAX_COUNTS else totals[name] + value
        self._pending.clear()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per job, the summed self time of each layer metric."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, job), inner in zip(self.spans, child_time):
            out[job][METRIC_OF[name]] += (end - start) - inner
        return out

    def layer_metrics(self, jobs: list[dict]) -> dict[str, float]:
        """Per-job means of layer self times and counts (the largest value
        for a maximum); the smallest share of a job's wall time that the self
        times of its spans account for; and the share of all traced job time
        that the catch-all layers hold."""
        per_job = self.self_times()
        job_ids = range(len(jobs))
        out = {metric: mean(per_job[j].get(metric, 0.0) for j in job_ids)
               for metric in SELF_METRICS}
        for name in COUNT_METRICS:
            values = [self.counts[j].get(name, 0.0) for j in job_ids]
            out[name] = max(values) if name in MAX_COUNTS else mean(values)
        out["cli.out_bytes"] = mean(job["out_bytes"] for job in jobs)
        out["trace.accounted_frac"] = min(sum(per_job[j].values()) / job["wall_s"]
                                          for j, job in enumerate(jobs))
        out["trace.catchall_frac"] = (sum(per_job[j].get(m, 0.0) for j in job_ids for m in CATCHALL)
                                      / sum(job["wall_s"] for job in jobs))
        return out

    def span_records(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent, "job": job}
                for name, start, end, parent, job in self.spans]
