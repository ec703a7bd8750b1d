"""Child processes of the benchmark; ``run.py`` starts them, one at a time.

``child.py setup OUT`` times, in a fresh process, the import of ``lcuts.cli``
and one warm-up loop on a tiny cloud, and prints both as JSON.

``child.py run OUT --workload W --seed N --seconds S [--trace] [--tiny]``
generates the workload's inputs, runs one untimed warm-up job, then runs the
closed loop (one client: the next job starts when the previous one ends).
It makes whole passes over the inputs, at least two so that every input is
repeated, until ``S`` seconds have gone by, and writes ``OUT/result.json``
(and, traced, ``OUT/spans.jsonl``).

Both expect ``PYTHONPATH`` to name the checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def setup(out: Path) -> None:
    t0 = time.perf_counter()
    import lcuts.cli
    t1 = time.perf_counter()
    from lcuts.geometry import write_cloud_csv
    from lcuts.synth import SynthSpec, generate_cloud

    out.mkdir(parents=True, exist_ok=True)
    cloud_csv = out / "tiny.csv"
    cloud, groups = generate_cloud(SynthSpec(dim=2, n_rods=5, seed=0))
    write_cloud_csv(cloud_csv, cloud, groups)
    for argv in (["cluster", cloud_csv, out / "pred.json"],
                 ["evaluate", out / "pred.json", cloud_csv, out / "metrics.json"],
                 ["render", out / "pred.json", out / "view.svg"]):
        if lcuts.cli.main(["--quiet", *map(str, argv)]) != 0:
            sys.exit(f"warm-up command {argv[0]} failed")
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1}))


def run(out: Path, name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> None:
    # Imported here, not at the top, so that ``setup`` times a cold import.
    import lcuts.cli
    from tracing import Tracer
    from workloads import WORKLOADS, make_inputs, run_accuracy, run_job

    workload = WORKLOADS[name]
    inputs, generate_s = make_inputs(workload, workload.specs(seed, tiny), out / "inputs", seed)
    jobs_dir = out / "jobs"
    jobs_dir.mkdir(parents=True, exist_ok=True)

    # Lazy set-up (first eigensolve, first use of each scipy routine) is
    # finished on a tiny input before anything is timed.
    warm, _ = make_inputs(workload, workload.specs(seed, tiny=True)[:1], out / "inputs", seed, "warm")
    warm_job = run_job(lcuts.cli, workload, warm[0], jobs_dir)
    if warm_job["error"]:
        sys.exit(f"warm-up job failed: {warm_job['error']}")

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    jobs: list[dict] = []
    first_digests: dict[int, list[str]] = {}
    start = time.perf_counter()
    passes = 0
    while passes < 2 or time.perf_counter() - start < seconds:
        for k, inp in enumerate(inputs):
            if tracer:
                tracer.job = len(jobs)
            job = run_job(lcuts.cli, workload, inp, jobs_dir)
            if tracer:
                tracer.job = None
                tracer.end_job()
            job["input"] = k
            if job["digests"] is not None:
                expected = first_digests.setdefault(k, job["digests"])
                if job["digests"] != expected and job["error"] is None:
                    job["error"] = "artifacts differ from an earlier repetition of the same input"
            jobs.append(job)
        passes += 1

    result = {"workload": name, "seed": seed, "traced": trace, "passes": passes,
              "inputs": len(inputs), "generate_s": generate_s, "jobs": jobs,
              "problems": run_accuracy(workload, jobs),
              "digests": {str(k): d for k, d in first_digests.items()}}
    if tracer:
        result["layers"] = tracer.layer_metrics(jobs)
        result["catchall_cap"] = workload.catchall_cap
        with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
            for record in tracer.span_records():
                fh.write(json.dumps(record) + "\n")
    (out / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("out", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    if args.mode == "setup":
        setup(args.out)
    else:
        run(args.out, args.workload, args.seed, args.seconds, args.trace, args.tiny)


if __name__ == "__main__":
    main()
