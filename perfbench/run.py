"""Run one workload of the lcuts benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it uses the ``lcuts`` under
``src/`` without installing it and writes only under ``perfbench/out/``.
The workload runs in a fresh child process, with one client in a closed loop
and BLAS limited to one thread. Fifteen more fresh processes then time the
set-up (import plus a tiny warm-up loop). With ``--trace 1`` a second child
runs the same loop with every layer's entry points wrapped in spans; each
child then gets half of the seconds.

The report lines come first. The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics named in BENCHMARK.json, or with ``--trace 1`` its per-layer ones.
``--tiny`` shrinks every input, for the smoke check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import mean, median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
CHILD = ROOT / "perfbench" / "child.py"
SETUP_PROBES = 15
BLAS_THREADS = 1
# A guard against a child that hangs, not a time limit: a run that ends is
# never cut, however slow the program under test has become.
HANG_GUARD_S = 600.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args: list[str], log: Path, timeout: float) -> str:
    """Run ``child.py`` to completion and return its standard output."""
    with open(log, "w", encoding="utf-8") as err:
        try:
            proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT, env=child_env(),
                                  stdout=subprocess.PIPE, stderr=err, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child {args[0]} hung for {timeout:g} s") from exc
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8").strip().splitlines()[-5:]
        raise BenchError(f"child {args[0]} exited with code {proc.returncode}: " + " | ".join(tail))
    return proc.stdout


def run_workload(out: Path, args: argparse.Namespace, seconds: float, trace: bool) -> dict:
    argv = ["run", str(out), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds)]
    argv += ["--trace"] * trace + ["--tiny"] * args.tiny
    run_child(argv, out.parent / f"{out.name}.stderr", HANG_GUARD_S + seconds)
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


def job_tail(walls: list[float]) -> dict | None:
    """The highest listed percentile with at least ten jobs beyond it; only
    for runs of twenty jobs or more."""
    n = len(walls)
    if n < 20:
        return None
    ordered = sorted(walls)
    for p in TAIL_PERCENTILES:
        index = math.ceil(p / 100.0 * n) - 1
        if n - 1 - index >= 10:
            return {"percentile": p, "value_s": ordered[index], "samples": n}
    return None


def end_to_end(result: dict, peak_rss_mb: float, setup_s: float) -> dict[str, float]:
    jobs = result["jobs"]
    walls = [job["wall_s"] for job in jobs]
    return {
        "job_p50_s": median(walls),
        "nodes_per_s": sum(job["nodes"] for job in jobs) / sum(walls),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "gacc": mean(job["gacc"] for job in jobs),
        "cacc": mean(job["cacc"] for job in jobs),
    }


def failures(result: dict) -> list[str]:
    return [f"job {j} (input {job['input']}): {job['error']}"
            for j, job in enumerate(result["jobs"]) if job["error"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input (smoke check)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "lcuts" / "cli.py").is_file():
        raise BenchError(f"no lcuts sources under {ROOT / 'src'}")
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = run_workload(out / "untraced", args, seconds, False)
    # Only the workload child has ended so far, so this is its own peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    traced = run_workload(out / "traced", args, seconds, True) if args.trace else None
    setups = []
    for k in range(SETUP_PROBES):
        probe = out / f"setup{k}"
        setups.append(json.loads(run_child(["setup", str(probe)], out / f"setup{k}.stderr",
                                           HANG_GUARD_S)))
    setup_s = median(s["import_s"] + s["warmup_s"] for s in setups)

    runs = [plain] + ([traced] if traced else [])
    problems = [f"{'traced' if r['traced'] else 'untraced'} {p}"
                for r in runs for p in failures(r) + r["problems"]]
    if traced and traced["digests"] != plain["digests"]:
        problems.append("the traced run's artifacts differ from the untraced run's")
    attempted = sum(len(r["jobs"]) for r in runs)
    failed = sum(1 for r in runs for job in r["jobs"] if job["error"])

    e2e = end_to_end(plain, peak_rss_mb, setup_s)
    walls = [job["wall_s"] for job in plain["jobs"]]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "blas_threads": BLAS_THREADS,
              "nproc": os.cpu_count(), "end_to_end": e2e, "job_tail": job_tail(walls),
              "fail_frac": failed / attempted, "setup_probes": setups, "problems": problems,
              "jobs": len(walls), "passes": plain["passes"], "inputs": plain["inputs"]}
    if traced:
        layers = dict(traced["layers"])
        layers["setup.import_s"] = median(s["import_s"] for s in setups)
        layers["setup.warmup_s"] = median(s["warmup_s"] for s in setups)
        layers["synth.generate_s"] = traced["generate_s"]
        layers["trace.job_p50_s"] = median(job["wall_s"] for job in traced["jobs"])
        layers["trace.overhead_s"] = layers["trace.job_p50_s"] - e2e["job_p50_s"]
        report["layers"] = layers
        # Tracing coverage is a property of the benchmark, not of the
        # program's outputs, so it is reported here and fails the smoke check
        # rather than this run.
        share, cap = layers["trace.catchall_frac"], traced["catchall_cap"]
        report["coverage_warning"] = None if share <= cap else (
            f"cli.self_s and engine.self_s hold {share:.3f} of the traced job time, above the "
            f"cap {cap}: work runs outside every span, so tracing.py should wrap it")
        values, wanted = layers, spec["per_layer"]
    else:
        values, wanted = e2e, spec["end_to_end"]
    (out / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  jobs {len(walls)} "
          f"({plain['inputs']} inputs x {plain['passes']} passes)  "
          f"blas_threads {BLAS_THREADS} of nproc {os.cpu_count()}")
    tail = report["job_tail"]
    print("job_tail_s " + (f"{tail['value_s']:.6f} s (p{tail['percentile']:g} of {tail['samples']} jobs)"
                           if tail else f"not reported (fewer than 20 jobs: {len(walls)})"))
    print(f"fail_frac {report['fail_frac']:.6f} ({failed} of {attempted} jobs)")
    for problem in problems:
        print(f"FAILED {problem}")
    if report.get("coverage_warning"):
        print(f"COVERAGE {report['coverage_warning']}")
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            raise BenchError(f"BENCHMARK.json names {metric['name']!r}, which no run measures")
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} {value:.6g} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
