"""The benchmark's tracer (perfbench/tracing.py) against the library.

The traced benchmark run wraps module attributes of lcuts and counts what the
wrapped calls return. A change to the library that removes one of those
attributes, or the parts of a result that a count reads, fails here rather
than in the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from lcuts import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_counts_a_field_and_an_image_job(tmp_path, monkeypatch, tracing):
    def run(*argv):
        assert cli.main(["--quiet", *map(str, argv)]) == 0, argv

    (tmp_path / "field.cfg").write_text("dim = 2\nnRods = 4\nseed = 3\n")
    (tmp_path / "image.cfg").write_text("dim = 2\nnRods = 4\ncrossings = 1\nintensityValley = 0.7\n")
    run("synth", tmp_path / "field.cfg", tmp_path / "field")
    run("synth", tmp_path / "image.cfg", tmp_path / "image")

    for module, attr, _, _ in tracing.WRAPPED:
        mod = importlib.import_module(module)
        assert hasattr(mod, attr), f"{module}.{attr}"
        # Recorded so that the wrapper install() puts in place is undone.
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    tracer = tracing.Tracer()
    tracer.install()

    tracer.job = 0
    run("cluster", tmp_path / "field.csv", tmp_path / "field.json")
    run("evaluate", tmp_path / "field.json", tmp_path / "field.csv", tmp_path / "metrics.json")
    run("render", tmp_path / "field.json", tmp_path / "field.svg")
    tracer.end_job()
    tracer.job = 1
    run("extract", tmp_path / "image.pgm", tmp_path / "found.csv")
    run("cluster", tmp_path / "found.csv", tmp_path / "found.json", "--image", tmp_path / "image.pgm")
    run("render", tmp_path / "found.json", tmp_path / "found.svg")
    tracer.end_job()

    for job in (0, 1):
        counts = tracer.counts[job]
        for name in ("direction.undirected", "graph.active_pairs", "engine.tree_nodes"):
            assert name in counts, (job, name)
        assert counts["graph.active_pairs"] > 0 and counts["engine.tree_nodes"] >= 1
    assert tracer.counts[1]["pipeline.nodes"] > 0
    assert "pipeline.nodes" not in tracer.counts[0]
    # Every wrapped layer that the two jobs pass through recorded a span.
    names = {span["name"] for span in tracer.span_records()}
    assert names == {f"{module}.{attr}" for module, attr, _, _ in tracing.WRAPPED}
