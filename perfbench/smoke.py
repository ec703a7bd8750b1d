"""Smoke check of the benchmark itself, at tiny sizes (about two minutes).

    python3 perfbench/smoke.py

For every workload of BENCHMARK.json it runs ``run.py --tiny`` untraced and
traced, and checks that:

- the run exits with 0 and its last line holds exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``, with every job correct;
- every metric of BENCHMARK.json appears with its unit, both in that line
  and in a report line ``name value unit``;
- in the traced run, the layers' self times account for every traced job's
  wall time within ACCOUNTED_TOLERANCE (near 1 by construction; it shows the
  gaps between the ``cli.main`` calls of a job), and the catch-all layers
  ``cli.self_s`` and ``engine.self_s`` stay within the workload's cap, which
  fails when work runs outside every span;
- no file of the checkout outside ``perfbench/out`` was created, changed or
  removed.

Last, it copies only BENCHMARK.json and ``perfbench/`` into a directory under
``perfbench/out`` and checks that the benchmark fails there with a nonzero
exit code and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
RUN = ROOT / "perfbench" / "run.py"
ACCOUNTED_TOLERANCE = 0.02
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def snapshot() -> dict[str, tuple[int, int]]:
    """Size and modification time of every file outside perfbench/out and .git."""
    files = {}
    for path in ROOT.rglob("*"):
        rel = path.relative_to(ROOT)
        if rel.parts[0] == ".git" or rel.parts[:2] == ("perfbench", "out") or not path.is_file():
            continue
        st = path.stat()
        files[str(rel)] = (st.st_size, st.st_mtime_ns)
    return files


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    label = f"{workload} trace={trace}"
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", "1",
                           "--seconds", "0.5", "--trace", str(trace), "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: not correct: {lines[:-1]}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        errors.append(f"{label}: metrics {sorted(result['metrics'])}")
    for metric in wanted:
        got = result["metrics"].get(metric["name"], {})
        if got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{label}: {metric['name']} printed as {got}")
        if not any(line.startswith(f"{metric['name']} ") and line.endswith(f" {metric['unit']}")
                   for line in lines[:-1]):
            errors.append(f"{label}: no report line for {metric['name']} in {metric['unit']}")
    if trace:
        accounted = result["metrics"]["trace.accounted_frac"]["value"]
        if not 1.0 - ACCOUNTED_TOLERANCE <= accounted <= 1.0 + 1e-9:
            errors.append(f"{label}: self times account for {accounted:.4f} of a job's wall time")
        if any(line.startswith("COVERAGE ") for line in lines):
            errors.append(f"{label}: {next(l for l in lines if l.startswith('COVERAGE '))}")
    return errors


def check_bare_copy() -> list[str]:
    bare = OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "image2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit code {proc.returncode}, output {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    before = snapshot()
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    after = snapshot()
    if before != after:
        changed = sorted(set(before.items()) ^ set(after.items()))
        errors.append(f"files outside perfbench/out changed: {changed[:5]}")
    errors += check_bare_copy()
    for error in errors:
        print(error)
    print("smoke check " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
