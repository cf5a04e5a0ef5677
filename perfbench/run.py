#!/usr/bin/env python3
"""Benchmark of the inpg program through its public entry points.

    python3 perfbench/run.py --workload figures-4x20 --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Each workload runs in a fresh worker process (worker.py) with every BLAS
thread-count variable set to 1 before numpy is imported. With --trace 0 the
command reports the end-to-end metrics: set-up time (the median of several
fresh processes), the median round's wall time and steps per second, and the
peak resident set. With --trace 1 it reports the per-layer metrics of a run
whose layers are wrapped from outside (spans.py). Every metric is printed by
name and unit; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. A results file with the environment
is written to .perfbench/results/.

Needs the program's sources in src/ next to this directory; without them it
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up is timed in this many fresh processes (the measuring process is one of them).
SETUP_SAMPLES = 7
# A run must end within 180 s; leave room for set-up and the last round.
RUN_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def spawn(name: str, seed: int, seconds: float, trace: int, setup_only: bool,
          timeout: float) -> dict:
    """Run worker.py in a fresh process; returns its JSON result."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    work_dir = os.path.join(OUT, "work", f"{name}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{name}: worker did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{name}: worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic()

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    setup_samples = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(spawn(name, seed, seconds, trace, True, left())["setup_s"])
    result = spawn(name, seed, seconds, trace, False, left())
    if not trace:
        setup_samples.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup_samples)
        result["setup_samples"] = setup_samples
    return result


def report(name: str, seed: int, trace: int, result: dict) -> None:
    print(f"# {name}  seed={seed}  trace={trace}  rounds={result['rounds']}  "
          f"workers={result['workers']}  attempted={result['attempted']}  "
          f"failed={result['failed']}")
    for key, m in result["metrics"].items():
        note = "  (computed from tensor sizes)" if key == "sweep.bytes_per_call" else ""
        print(f"  {key:<24} {m['value']:>16.6g} {m['unit']}{note}")
    for point in result["missing_wrap_points"]:
        print(f"  missing wrap point: {point}")
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(dict(result, workload=name, seed=seed, trace=trace), f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="0: end-to-end metrics, 1: per-layer metrics (default with all: both)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "inpg", "harness.py")):
        print(f"perfbench: no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [args.trace] if args.trace is not None else ([0, 1] if args.workload == "all" else [0])
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        for trace in traces:
            try:
                result = measure(name, args.seed, args.seconds, trace)
            except WorkerError as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                return 1
            report(name, args.seed, trace, result)
            attempted += result["attempted"]
            failed += result["failed"]
            correct &= result["failed"] == 0
            prefix = "" if len(names) == 1 else name + "/"
            metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
