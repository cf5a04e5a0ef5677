"""Experiment orchestration: run files, aggregation, audits, and figures.

One learning run produces three files in the output directory:

  run_<method>_tau<tau>_seed<seed>.csv         iteration log, header
      iter,phi_tau,ne_gap,qre_gap,jeffrey_step,avg_ne_gap,avg_qre_gap
      (floats rendered with 17 significant digits; undefined cells are "nan")
  run_<method>_tau<tau>_seed<seed>.meta.json   run-level scalars used by audits
  run_<method>_tau<tau>_seed<seed>.policy.csv  final policy, one row per agent

A multi-seed experiment additionally writes agg_<method>_tau<tau>.csv with the
same columns averaged across seeds at the iterations every seed logged (so up
to the earliest early stop). Everything written here is a pure function of
the inputs, so repeated invocations are byte-identical.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import svg
from .dynamics import (
    MONOTONICITY_TOL,
    IterateLog,
    MonotonicityError,
    RunConfig,
    RunSummary,
    improvement_guaranteed,
    initial_distance_bound_sides,
    jeffrey_sum_sides,
    lockstep_run_bytes,
    predicted_iterations,
    run,
    theorem_average_gap_sides,
)
from .game import (
    PotentialGame,
    load_game,
    make_general_potential,
    make_identical_interest,
    require_capacity,
)
from .policy import policy_to_csv
from .rng import run_seed

CSV_HEADER = "iter,phi_tau,ne_gap,qre_gap,jeffrey_step,avg_ne_gap,avg_qre_gap"
CSV_COLUMNS = CSV_HEADER.split(",")[1:]  # IterateLog column names, in file order
SANDWICH_TOL = 1e-10


def run_basename(method: str, tau: float, seed: int) -> str:
    return f"run_{method}_tau{tau:g}_seed{seed}"


def agg_basename(method: str, tau: float) -> str:
    return f"agg_{method}_tau{tau:g}"


def write_csv_rows(path, iters: np.ndarray, columns: list[np.ndarray]) -> None:
    """CSV_HEADER, then one row per iteration: the integer iteration and each column's value
    with 17 significant digits (lossless for doubles)."""
    row = "%d" + ",%.17g" * len(columns)  # "%.17g" % v is format(v, ".17g"), nan and inf too
    lines = [CSV_HEADER]
    lines += [row % values for values in zip(iters.tolist(), *(col.tolist() for col in columns))]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_run_csv(log: IterateLog, path) -> None:
    write_csv_rows(path, log.iters, [getattr(log, name) for name in CSV_COLUMNS])


def read_csv_columns(path) -> dict[str, np.ndarray]:
    with open(path) as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = [line.split(",") for line in f.read().splitlines() if line]
    names = header.split(",")
    data = np.array([[float(v) for v in row] for row in rows], dtype=np.float64)
    if data.size == 0:
        data = data.reshape(0, len(names))
    return {name: data[:, j] for j, name in enumerate(names)}


def _jsonable(v):
    if isinstance(v, (np.floating, float)):
        v = float(v)
        return None if math.isnan(v) else v
    if isinstance(v, np.integer):
        return int(v)
    return v


def meta_from_log(log: RunSummary) -> dict:
    """The meta JSON object: every RunSummary field, NaN as None (null)."""
    return {f.name: _jsonable(getattr(log, f.name)) for f in fields(RunSummary)}


def summary_from_meta(meta: dict) -> RunSummary:
    """Inverse of meta_from_log; a missing or null field reads as NaN."""
    nan = float("nan")
    return RunSummary(**{
        f.name: (nan if meta.get(f.name) is None else meta[f.name]) for f in fields(RunSummary)
    })


def write_run_meta(log: IterateLog, path) -> None:
    with open(path, "w") as f:
        json.dump(meta_from_log(log), f, sort_keys=True, indent=1)
        f.write("\n")


def read_run_meta(path) -> RunSummary:
    with open(path) as f:
        return summary_from_meta(json.load(f))


# ---------------------------------------------------------------------------
# Theorem-level checks
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    """One check on one run. An empty detail marks a check that prints no line."""

    name: str
    applicable: bool
    passed: bool
    detail: str

    @property
    def ok(self) -> bool:
        return self.passed or not self.applicable


def _improvement_guaranteed(summary: RunSummary) -> bool:
    return improvement_guaranteed(summary.method, summary.eta, summary.tau,
                                  summary.num_agents, summary.phi_max)


def _verdict(name: str, passed: bool, statement: str) -> CheckResult:
    return CheckResult(name, True, bool(passed), f"{statement}: {'pass' if passed else 'FAIL'}")


def check_initial_distance(summary: RunSummary) -> CheckResult:
    sides = initial_distance_bound_sides(summary)
    if sides is None or summary.num_steps == 0:
        return CheckResult("initial_distance", False, False, "")
    d0, bound = sides
    return _verdict("initial_distance", d0 <= bound,
                    f"initial best-response log-distance {d0:.6g} <= 2/tau = {bound:.6g}")


def check_jeffrey_sum(summary: RunSummary) -> CheckResult:
    sides = jeffrey_sum_sides(summary)
    if sides is None or not _improvement_guaranteed(summary):
        return CheckResult("jeffrey_sum", False, False, "")
    total, bound = sides
    return _verdict("jeffrey_sum", total <= bound * (1 + 1e-12) + 1e-15,
                    f"total step movement sum_t J = {total:.6e} <= 2*eta*dPhi = {bound:.6e}")


def check_monotone(summary: RunSummary) -> CheckResult:
    if not _improvement_guaranteed(summary):
        return CheckResult("monotone", False, False,
                           "monotone: not applicable (needs npg with compliant eta)")
    if summary.num_steps == 0:
        return CheckResult("monotone", True, True, "monotone: no steps taken, trivially pass")
    slack = summary.min_monotonicity_slack
    return _verdict("monotone", slack >= -MONOTONICITY_TOL,
                    f"monotone: min per-step slack {slack:.3e} (tol {MONOTONICITY_TOL:g})")


def check_theorem1(summary: RunSummary) -> CheckResult:
    sides = theorem_average_gap_sides(summary)
    if sides is None or not _improvement_guaranteed(summary):
        return CheckResult("theorem1", False, False,
                           "theorem1: skipped (needs a completed npg run with compliant eta)")
    lhs, rhs = sides
    return _verdict("theorem1", lhs <= rhs * (1.0 + 1e-12) + 1e-15,
                    f"theorem1: avg qre_gap {lhs:.6e} <= bound {rhs:.6e}")


def check_sandwich(summary: RunSummary) -> CheckResult:
    if summary.tau <= 0:
        return CheckResult("sandwich", False, False,
                           "sandwich: not applicable (needs tau > 0)")
    slack = summary.max_sandwich_slack
    return _verdict("sandwich", slack <= SANDWICH_TOL,
                    f"sandwich: max (ne_gap - qre_gap - tau*log|A|) = {slack:.3e} "
                    f"(tol {SANDWICH_TOL:g})")


# Every theorem-level check, in report order; `run` and `audit` both report all of them.
CHECKS = (check_initial_distance, check_jeffrey_sum, check_monotone, check_theorem1, check_sandwich)


def audit_lines(summary: RunSummary) -> tuple[list[str], bool]:
    """Report for one completed run; returns (lines, all checks passed)."""
    head = (f"{run_basename(summary.method, summary.tau, summary.seed)}: "
            f"eta={summary.eta:g} T={summary.num_steps}")
    lines = [head]
    if summary.method == "pg_direct":
        lines.append(f"  final avg ne_gap {summary.sum_ne_gap / max(summary.num_steps, 1):.6e}; "
                     "regularized checks skipped (unregularized baseline)")
        return lines, True
    if summary.tau > 0 and summary.num_steps:
        avg = summary.sum_qre_gap / summary.num_steps
        lines.append(f"  measured avg qre_gap (iterates 1..T): {avg:.6e}; "
                     f"best single iterate: {summary.min_qre_gap:.6e}")
        sides = theorem_average_gap_sides(summary)
        if sides is not None:
            lines.append(f"  guaranteed upper bound on that average: {sides[1]:.6e}")
        if avg > 0:
            lines.append(
                f"  iteration-count scale to reach eps = this average: "
                f"{predicted_iterations(summary, avg):.4g}"
            )
    results = [check(summary) for check in CHECKS]
    lines.extend("  " + res.detail for res in results if res.detail)
    return lines, all(res.ok for res in results)


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameSpec:
    """Where a run's game comes from: a generator call or a file."""

    source: str  # "identical" | "general" | "file"
    num_agents: int = 0
    num_actions: int = 0
    seed: int = 0
    path: str = ""

    def build(self) -> PotentialGame:
        if self.source == "identical":
            return make_identical_interest(self.num_agents, self.num_actions, self.seed)
        if self.source == "general":
            return make_general_potential(self.num_agents, self.num_actions, self.seed)
        return load_game(self.path)


# Most bytes one lockstep batch may hold: its stacked potentials, which the
# sweep reads every step, and its record block (dynamics.lockstep_run_bytes),
# so a batch of long runs cannot grow without bound. Half of a core's 2 MiB L2,
# so the stack and the sweep's prefix tensors stay in cache. On a 2-core Xeon
# at one BLAS thread, 200-step batches up to the budget beat the same runs alone
# (5x6 at K=15 in 0.19 of the time, 3x30 at K=4 in 0.50, 4x15 and 6x6 at K=2
# in 0.75 and 0.78), and two stacked 4x20 games (2.6 MB) took 1.13 times as long.
LOCKSTEP_BYTES = 1 << 20

# execute_runs skips the process pool when the runs' estimated time in one
# process is below POOL_MIN_SECONDS, where the pool's start-up costs more than
# two workers save. A run-step is estimated at STEP_SECONDS plus CELL_SECONDS
# per potential entry (one BLAS thread, 2-core Xeon: about 25 us at 2x10 and
# 120 us at 4x20). Measured there in fresh processes with --jobs 2, 8 pg_direct
# 2x10 runs took 78 ms in the pool and 52 ms in one process at 200 steps
# (estimated 0.04 s), broke even at 600 (0.12 s) and took 180 against 225 ms at
# 1000 (0.2 s).
POOL_MIN_SECONDS = 0.1
STEP_SECONDS = 25e-6
CELL_SECONDS = 0.6e-9

Task = tuple[GameSpec, RunConfig, str]


def _shares_its_game(spec: GameSpec) -> bool:
    """Whether every run on this game steps as a row of one shared batch.

    A file game's shape is known only after loading, and a potential over half
    of LOCKSTEP_BYTES could never stack with another game's.
    """
    return spec.source == "file" or 8 * spec.num_actions**spec.num_agents > LOCKSTEP_BYTES // 2


def lockstep_batches(tasks: list[Task], jobs: int = 1) -> list[list[int]]:
    """Group task indices into batches that step together; every task is in one batch.

    Shared batches: every task on one game (one GameSpec and one directory)
    when _shares_its_game holds, whatever its config. The runs are rows over
    the game's single potential (`dynamics.run(game, configs)`), and a row's
    bits depend on the configs that share its game, so such a batch is never
    split.

    Lockstep batches: of the other tasks, one joins the batch before it when
    both write to one directory, their configs are equal except for `seed`,
    their games are generated by one generator at one (N, A), the batch's bytes
    stay within LOCKSTEP_BYTES, and the batch holds at most ceil(tasks / jobs)
    of these tasks, so that every worker gets a batch. Each run's output is
    the same in any lockstep batch.

    Batches are ordered by their first task. The grouping depends on the
    tasks alone, and on jobs only where it cannot change a byte.
    """
    shared: dict[tuple[GameSpec, str], list[int]] = {}
    rest = []
    for i, (spec, _, out_dir) in enumerate(tasks):
        if _shares_its_game(spec):
            shared.setdefault((spec, out_dir), []).append(i)
        else:
            rest.append(i)
    most = -(-len(rest) // max(jobs, 1))
    batches = list(shared.values())
    lockstep: list[list[int]] = []
    for i in rest:
        spec, config, out_dir = tasks[i]
        if lockstep and len(lockstep[-1]) < most:
            head_spec, head_config, head_dir = tasks[lockstep[-1][0]]
            if (out_dir == head_dir
                    and (spec.source, spec.num_agents, spec.num_actions)
                    == (head_spec.source, head_spec.num_agents, head_spec.num_actions)
                    and replace(config, seed=head_config.seed) == head_config
                    and (len(lockstep[-1]) + 1) * lockstep_run_bytes(
                        spec.num_agents, spec.num_actions, config.max_iters) <= LOCKSTEP_BYTES):
                lockstep[-1].append(i)
                continue
        lockstep.append([i])
    return sorted(batches + lockstep)


RunResult = tuple[str, dict | None, str | None, dict[str, np.ndarray] | None]


def _execute_batch(batch: list[Task]) -> list[RunResult]:
    """Worker: run one batch, write each run's CSV, meta, and final policy.

    Returns (basename, meta, error, logged columns) per task, in order; the
    columns are the run CSV's, keyed by its header, and None for a failed run.
    """
    configs = [config for _, config, _ in batch]
    spec = batch[0][0]
    if len(batch) > 1 and all(other == spec for other, _, _ in batch):  # shared: one game
        logs = run(spec.build(), configs)
    else:
        logs = run([spec.build() for spec, _, _ in batch], configs)
    results = []
    for (_, config, out_dir), log in zip(batch, logs):
        base = run_basename(config.method, config.tau, config.seed)
        if isinstance(log, MonotonicityError):
            results.append((base, None, str(log), None))
            continue
        write_run_csv(log, os.path.join(out_dir, base + ".csv"))
        write_run_meta(log, os.path.join(out_dir, base + ".meta.json"))
        policy_to_csv(log.final_policy, os.path.join(out_dir, base + ".policy.csv"))
        columns = {"iter": log.iters, **{name: getattr(log, name) for name in CSV_COLUMNS}}
        results.append((base, meta_from_log(log), None, columns))
    return results


def _serial_seconds(tasks: list[Task]) -> float:
    """Estimated time of the tasks in one process; a file game counts as too large to skip the pool."""
    if any(spec.source == "file" for spec, _, _ in tasks):
        return math.inf
    return sum(config.max_iters * (STEP_SECONDS + CELL_SECONDS * spec.num_actions**spec.num_agents)
               for spec, config, _ in tasks)


def execute_runs(tasks: list[Task], jobs: int = 1) -> list[RunResult]:
    """Run tasks in batches (in parallel for jobs > 1 unless the work is too small to pay
    for a process pool); output files are per-task. Returns _execute_batch's tuples in
    task order."""
    batches = lockstep_batches(tasks, jobs)
    work = [[tasks[i] for i in batch] for batch in batches]
    if jobs <= 1 or len(batches) <= 1 or _serial_seconds(tasks) < POOL_MIN_SECONDS:
        done = [_execute_batch(batch) for batch in work]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_execute_batch, work))
    results: list = [None] * len(tasks)
    for batch, batch_results in zip(batches, done):
        for i, result in zip(batch, batch_results):
            results[i] = result
    return results


def aggregate_csvs(runs: dict[str, dict[str, np.ndarray]], out_path: str) -> None:
    """Average each column across runs of one variant at the iterations every run logged.

    runs maps each run CSV's path to its columns, as read_csv_columns returns
    them; runs are averaged in sorted-path order.
    """
    columns = [runs[path] for path in sorted(runs)]
    common = set.intersection(*(set(cols["iter"].tolist()) for cols in columns))
    rows = [np.array([it in common for it in cols["iter"].tolist()], dtype=bool)
            for cols in columns]
    means = [np.mean([cols[name][keep] for cols, keep in zip(columns, rows)], axis=0)
             for name in CSV_COLUMNS]
    write_csv_rows(out_path, columns[0]["iter"][rows[0]], means)


def run_experiment(
    out_dir: str,
    game_specs: list[GameSpec],
    variants: list[RunConfig],
    jobs: int = 1,
) -> list[tuple[str, dict | None, str | None]]:
    """All (variant x game) runs, then one aggregate CSV per variant.

    Returns (basename, meta, error) per run. The aggregates average the
    columns the runs return, which are the values their CSVs hold.
    """
    os.makedirs(out_dir, exist_ok=True)
    tasks = []
    for variant in variants:
        for spec in game_specs:
            tasks.append((spec, replace(variant, seed=spec.seed), out_dir))
    results = execute_runs(tasks, jobs=jobs)
    logged = {base: columns for base, _, err, columns in results if err is None}
    for variant in variants:
        runs = {}
        for spec in game_specs:
            base = run_basename(variant.method, variant.tau, spec.seed)
            if base in logged:
                runs[os.path.join(out_dir, base + ".csv")] = logged[base]
        if runs:
            aggregate_csvs(runs, os.path.join(out_dir, agg_basename(variant.method, variant.tau) + ".csv"))
    return [(base, meta, err) for base, meta, err, _ in results]


def seeded_game_specs(kind: str, agents: int, actions: int, base_seed: int, runs: int) -> list[GameSpec]:
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    require_capacity(agents, actions)
    return [
        GameSpec(source=kind, num_agents=agents, num_actions=actions,
                 seed=run_seed(base_seed, k))
        for k in range(runs)
    ]


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

FIGURES = (
    ("fig_potential.svg", "phi_tau", "regularized potential", False),
    ("fig_ne_gap.svg", "ne_gap", "NE-gap", True),
    ("fig_qre_gap.svg", "qre_gap", "QRE-gap", True),
)


def _series_label(filename: str) -> str:
    stem = os.path.basename(filename)
    stem = stem.removesuffix(".csv").removeprefix("agg_").removeprefix("run_")
    method, _, rest = stem.partition("_tau")
    tau = rest.split("_seed")[0]
    return f"{method} tau={tau}" if float(tau) > 0 else method


def plot_directory(out_dir: str) -> list[str]:
    """Render the three standard figures from the aggregate (or per-run) CSVs in out_dir."""
    if not os.path.isdir(out_dir):
        raise ValueError(f"no run or aggregate CSVs found: {out_dir} is not a directory")
    files = sorted(
        f for f in os.listdir(out_dir) if f.startswith("agg_") and f.endswith(".csv")
    )
    if not files:
        files = sorted(
            f for f in os.listdir(out_dir)
            if f.startswith("run_") and f.endswith(".csv") and not f.endswith(".policy.csv")
        )
    if not files:
        raise ValueError(f"no run or aggregate CSVs found in {out_dir}")
    loaded = [(name, read_csv_columns(os.path.join(out_dir, name))) for name in files]
    written = []
    for fig_name, column, ylabel, ylog in FIGURES:
        series = []
        for name, cols in loaded:
            y = cols[column]
            keep = np.isfinite(y)
            if ylog:
                keep &= y > 0
            if not np.any(keep):
                continue  # e.g. qre_gap of an unregularized method is all-nan
            series.append((_series_label(name), cols["iter"], y))
        chart = svg.line_chart(series, title=f"{ylabel} vs iteration",
                               xlabel="iteration", ylabel=ylabel, ylog=ylog)
        path = os.path.join(out_dir, fig_name)
        with open(path, "w") as f:
            f.write(chart)
        written.append(path)
    return written


def audit_directory(out_dir: str) -> tuple[list[str], bool]:
    """Audit every run meta file in a directory; returns (report lines, all passed)."""
    if not os.path.isdir(out_dir):
        raise ValueError(f"no run meta files found: {out_dir} is not a directory")
    metas = sorted(f for f in os.listdir(out_dir) if f.endswith(".meta.json"))
    if not metas:
        raise ValueError(f"no run meta files found in {out_dir}")
    lines: list[str] = []
    all_ok = True
    for name in metas:
        summary = read_run_meta(os.path.join(out_dir, name))
        run_lines, ok = audit_lines(summary)
        lines.extend(run_lines)
        all_ok &= ok
    lines.append("audit: " + ("all checks passed" if all_ok else "SOME CHECKS FAILED"))
    return lines, bool(all_ok)
