"""One workload in one fresh process: set-up, timed rounds, checks, metrics.

Started by run.py with BLAS pinned to one thread in the environment, so the
pin is in place before numpy is imported. Prints one JSON object on its last
stdout line. With --setup-only it stops after set-up and reports set-up time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import contextlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from resource import RUSAGE_CHILDREN, RUSAGE_SELF, getrusage  # noqa: E402

import numpy as np  # noqa: E402

from inpg import game as game_mod  # noqa: E402
from inpg import harness  # noqa: E402
from inpg.dynamics import RunConfig  # noqa: E402
from inpg.rng import run_seed  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def worker_count(wl: Workload) -> int:
    return max(1, min(wl.workers, len(os.sched_getaffinity(0))))


class Setup:
    """Games drawn once with the public generators, and the specs runs use."""

    def __init__(self, wl: Workload, seed: int, work_dir: str):
        make = {"identical": game_mod.make_identical_interest,
                "general": game_mod.make_general_potential}[wl.kind]
        self.games = {}
        self.specs = []
        self.game_files = []
        for k in range(wl.games):
            s = run_seed(seed, k)
            self.games[s] = make(wl.agents, wl.actions, s)
            if wl.from_files:
                path = os.path.join(work_dir, f"game_{s}.pg")
                game_mod.save_game(self.games[s], path)
                self.game_files.append(path)
                self.specs.append(harness.GameSpec(source="file", path=path, seed=s))
            else:
                self.specs.append(harness.GameSpec(source=wl.kind, num_agents=wl.agents,
                                                   num_actions=wl.actions, seed=s))
        self.variants = [RunConfig(method=v.method, tau=v.tau, eta="auto", max_iters=v.iters)
                         for v in wl.variants]


def file_round_trip(setup: Setup, work_dir: str) -> list[str]:
    """Save and reload every game; used by traced runs of workloads that keep no game files."""
    fails = []
    for s, g in setup.games.items():
        path = os.path.join(work_dir, f"roundtrip_{s}.pg")
        game_mod.save_game(g, path)
        back = game_mod.load_game(path)
        setup.game_files.append(path)
        same = np.array_equal(back.potential, g.potential) and all(
            np.array_equal(a, b) for a, b in zip(back.utilities, g.utilities))
        if not same:
            fails.append(f"game {s}: tensors differ after save_game/load_game")
    return fails


class Round:
    """One timed pass: every run, aggregation, plot and audit; then its checks."""

    def __init__(self, wl: Workload, setup: Setup, out_dir: str, jobs: int):
        self.ops = wl.operations_per_round
        self.failures: dict[str, list[str]] = {}
        self.digests: dict[str, str] = {}
        self.io_sizes: list[tuple[int, int]] = []
        t0 = time.perf_counter()
        try:
            results = harness.run_experiment(out_dir, setup.specs, setup.variants, jobs=jobs)
            t1 = time.perf_counter()
            harness.plot_directory(out_dir)
            _, audit_ok = harness.audit_directory(out_dir)
            t2 = time.perf_counter()
        except Exception:
            # A round that raises is whole failed rounds, every time, not a crash.
            self.failures["round"] = [traceback.format_exc()]
            self.wall = self.run_phase = time.perf_counter() - t0
            self.steps = 0
            return
        self.wall = t2 - t0
        self.run_phase = t1 - t0
        self.steps = sum(meta["num_steps"] for _, meta, err in results if meta is not None)
        for base, _, err in results:
            if err is not None:
                self.fail(base, err)
        if not audit_ok:
            self.fail("audit", "audit_directory reports a failed check")
        self.check(wl, setup, out_dir)

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, []).append(message)

    @property
    def failed(self) -> int:
        return self.ops if "round" in self.failures else len(self.failures)

    def guard(self, op: str, check, *args) -> None:
        """Run one check; a file that is missing or unreadable fails the operation."""
        try:
            messages = check(*args)
        except Exception:
            messages = [traceback.format_exc()]
        for msg in messages:
            self.fail(op, msg)

    def check(self, wl: Workload, setup: Setup, out_dir: str) -> None:
        for variant in setup.variants:
            written = []  # runs that reported no error; the program aggregates only these
            for s, g in setup.games.items():
                base = harness.run_basename(variant.method, variant.tau, s)
                if base in self.failures:
                    continue
                path = os.path.join(out_dir, base + ".csv")
                written.append(path)
                self.guard(base, checks.check_run, path,
                           os.path.join(out_dir, base + ".policy.csv"), g.potential,
                           g.utilities, variant.method, variant.tau, variant.max_iters)
                if wl.kind == "general":
                    residual = checks.potential_residual(g.potential, g.utilities)
                    if residual > checks.POTENTIAL_TOL:
                        self.fail(base, f"game {s}: potential property residual {residual:g}")
            agg = harness.agg_basename(variant.method, variant.tau) + ".csv"
            self.guard("agg:" + agg, checks.check_aggregate, os.path.join(out_dir, agg), written)
            for path in filter(os.path.exists, written):
                base = path.removesuffix(".csv")
                size = sum(os.path.getsize(base + ext) for ext in (".csv", ".meta.json", ".policy.csv")
                           if os.path.exists(base + ext))
                with open(path) as f:
                    self.io_sizes.append((size, sum(1 for _ in f) - 1))
        figures = [f for f in os.listdir(out_dir) if f.startswith("fig_") and f.endswith(".svg")]
        if len(figures) != 3:
            self.fail("plot", f"expected 3 figures, found {sorted(figures)}")
        self.digests = checks.digests(out_dir)

    def compare_digests(self, reference: dict[str, str]) -> None:
        """Every file must be byte-identical to the first round's, whatever the worker count."""
        for name in sorted(set(reference) | set(self.digests)):
            if reference.get(name) != self.digests.get(name):
                if name.startswith("agg_"):
                    op = "agg:" + name
                elif name.startswith("fig_"):
                    op = "plot"
                else:
                    op = name.split(".")[0]
                self.fail(op, f"{name} differs from the first round's bytes")


def run_round(wl, setup, work_dir, jobs, reference, rounds, tracer=None) -> Round:
    out_dir = os.path.join(work_dir, f"round{len(rounds)}")
    with tracer or contextlib.nullcontext():
        rnd = Round(wl, setup, out_dir, jobs)
    if reference is not None:
        rnd.compare_digests(reference)
    shutil.rmtree(out_dir, ignore_errors=True)
    for op, msgs in rnd.failures.items():
        print(f"FAILED {wl.name} round {len(rounds)} {op}: {msgs[0].strip()}", file=sys.stderr)
    rounds.append(rnd)
    return rnd


def peak_rss_mb() -> float:
    kib = max(getrusage(RUSAGE_SELF).ru_maxrss, getrusage(RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else float("nan")


def layer_metrics(wl: Workload, setup: Setup, tracer: spans.Tracer, traced, untraced_w,
                  untraced_1, workers: int) -> dict[str, tuple[float, str]]:
    sp = tracer.spans
    n_rounds = len(traced)
    steps = max(1, sum(r.steps for r in traced))
    m: dict[str, tuple[float, str]] = {}
    seen = {s[0] for s in sp}

    def have(*names):
        """A missing wrap point records no spans, so its metrics are left out."""
        return all(n in seen for n in names)

    def total(name):
        return sum(spans.durations(sp, name))

    if have("sweep"):
        sweep = spans.durations(sp, "sweep")
        cells = wl.actions ** wl.agents
        # Full-tensor passes per sweep: the prefix chain plus one leave-one-out
        # fold of the shared tensor, or one fold per utility tensor plus the potential.
        passes = 2 if wl.kind == "identical" else wl.agents + 1
        bytes_per_call = passes * cells * 8
        m["sweep.calls"] = (len(sweep) / n_rounds, "count")
        m["sweep.us_p50"] = (percentile(sweep, 50) * 1e6, "us")
        m["sweep.us_p99"] = (percentile(sweep, 99) * 1e6, "us")
        m["sweep.self_s"] = (sum(spans.self_times(sp, "sweep")) / n_rounds, "s")
        m["sweep.bytes_per_call"] = (float(bytes_per_call), "B")
        m["sweep.gb_per_s"] = (bytes_per_call * len(sweep) / sum(sweep) / 1e9, "GB/s")
    if have("update"):
        m["update.us_p50"] = (percentile(spans.durations(sp, "update"), 50) * 1e6, "us")
    if have("sweep", "run"):
        intervals = spans.start_intervals(sp, "sweep")
        m["step.us_p50"] = (percentile(intervals, 50) * 1e6, "us")
        m["step.us_p99"] = (percentile(intervals, 99) * 1e6, "us")
    if have("run"):
        m["run.self_us_per_step"] = (sum(spans.self_times(sp, "run")) / steps * 1e6, "us")
    for metric, name in (("gaps", "gaps"), ("entropy", "entropy"), ("jeffrey", "jeffrey")):
        if have(name):
            m[f"{metric}.us_per_step"] = (total(name) / steps * 1e6, "us")
    for metric, name in (("build", "game.build"), ("save", "game.save"), ("load", "game.load")):
        if have(name):
            m[f"game.{metric}_ms"] = (percentile(spans.durations(sp, name), 50) * 1e3, "ms")
    m["game.bytes"] = (float(statistics.median(os.path.getsize(p) for p in setup.game_files)), "B")
    for metric, name in (("csv", "io.csv_write"), ("meta", "io.meta_write"),
                         ("policy", "io.policy_write")):
        if have(name):
            m[f"io.{metric}_write_ms"] = (percentile(spans.durations(sp, name), 50) * 1e3, "ms")
    io_sizes = [x for r in traced for x in r.io_sizes]
    if io_sizes:
        m["io.bytes_per_run"] = (statistics.mean(b for b, _ in io_sizes), "B")
        m["io.rows_per_run"] = (statistics.mean(r for _, r in io_sizes), "count")
    if have("agg"):
        m["agg.ms"] = (total("agg") / n_rounds * 1e3, "ms")
        if have("csv_read"):
            m["agg.rows_read"] = (sum(spans.sizes_under(sp, "csv_read", "agg")) / n_rounds, "count")
    if have("audit"):
        m["audit.ms"] = (total("audit") / n_rounds * 1e3, "ms")
    # Summed single-worker run time over (workers x run-phase wall time).
    m["pool.busy_share"] = (
        statistics.median(r.run_phase for r in untraced_1)
        / (workers * statistics.median(r.run_phase for r in untraced_w)), "ratio")
    if have("plot"):
        m["plot.ms"] = (total("plot") / n_rounds * 1e3, "ms")
    if have("svg.chart"):
        charts = [s for s in sp if s[0] == "svg.chart"]
        m["svg.chart_ms"] = (percentile([s[3] - s[2] for s in charts], 50) * 1e3, "ms")
        m["svg.bytes"] = (statistics.mean(s[4] for s in charts), "B")
    m["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                             - statistics.median(r.wall for r in untraced_1), "s")
    return {k: v for k, v in m.items() if math.isfinite(v[0])}


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]
    os.makedirs(args.work_dir, exist_ok=True)
    try:
        return _measure(wl, args)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)


def _measure(wl: Workload, args) -> int:
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        with tracer:
            setup = Setup(wl, args.seed, args.work_dir)
            setup_fails = [] if wl.from_files else file_round_trip(setup, args.work_dir)
    else:
        setup = Setup(wl, args.seed, args.work_dir)
        setup_fails = []
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workers = worker_count(wl)
    deadline = time.perf_counter() + args.seconds
    reference = None
    untraced_w, untraced_1, traced = [], [], []
    rounds: list[Round] = []
    while True:
        rnd = run_round(wl, setup, args.work_dir, workers, reference, rounds)
        reference = reference or rnd.digests
        untraced_w.append(rnd)
        if tracer:
            # The pool's baseline and the overhead's baseline: one worker, untraced.
            untraced_1.append(run_round(wl, setup, args.work_dir, 1, reference, rounds)
                              if workers > 1 else rnd)
            traced.append(run_round(wl, setup, args.work_dir, 1, reference, rounds, tracer))
        if time.perf_counter() >= deadline:
            break

    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    for msg in setup_fails:
        print(f"FAILED {wl.name} set-up: {msg}", file=sys.stderr)
        failed = attempted  # a game that does not survive its file format taints every run
    if tracer:
        metrics = layer_metrics(wl, setup, tracer, traced, untraced_w, untraced_1, workers)
        missing = tracer.missing
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(r.wall for r in rounds), "s"),
            "steps_per_s": (statistics.median(r.steps / r.run_phase for r in rounds), "steps/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        missing = []
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "rounds": len(rounds),
        "round_wall_s": [r.wall for r in rounds],
        "workers": workers,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "missing_wrap_points": missing,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
