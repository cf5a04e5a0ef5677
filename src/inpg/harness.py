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
import functools
import json
import math
import os
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import svg
from .dynamics import (
    MONOTONICITY_TOL,
    IterateLog,
    MonotonicityError,
    ParameterError,
    RunConfig,
    RunSummary,
    improvement_guaranteed,
    run,
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
    """Inverse of meta_from_log; a null field reads as NaN."""
    nan = float("nan")
    return RunSummary(**{f.name: nan if meta[f.name] is None else meta[f.name]
                         for f in fields(RunSummary)})


def write_run_meta(log: IterateLog, path) -> None:
    with open(path, "w") as f:
        json.dump(meta_from_log(log), f, sort_keys=True, indent=1)
        f.write("\n")


# The JSON types each RunSummary annotation admits in a meta file (null reads as NaN).
_META_TYPES = {"str": (str,), "float": (float, int), "int": (int,), "bool": (bool,)}


def read_run_meta(path) -> RunSummary:
    """A meta file's RunSummary; ValueError names the file and the first fault in it."""
    with open(path) as f:
        try:
            meta = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: not a JSON object")
    for f in fields(RunSummary):
        if f.name not in meta:
            raise ValueError(f"{path}: field {f.name!r} is missing")
        value = meta[f.name]
        if value is not None and type(value) not in _META_TYPES[f.type]:
            raise ValueError(f"{path}: field {f.name!r} must be {f.type}, got {value!r}")
    summary = summary_from_meta(meta)
    for name, least in (("num_agents", 1), ("num_actions", 1), ("num_steps", 0)):
        if not getattr(summary, name) >= least:
            raise ValueError(f"{path}: field {name!r} must be >= {least}, got {meta[name]!r}")
    try:  # the method, tau and eta a run could have been configured with
        RunConfig(method=summary.method, tau=summary.tau, eta=summary.eta)
    except ParameterError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return summary


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
    """Initial log-distance to the best response vs its uniform-start bound 2/tau."""
    if summary.tau <= 0 or summary.num_steps == 0:
        return CheckResult("initial_distance", False, False, "")
    d0, bound = summary.initial_br_log_distance, 2.0 / summary.tau
    return _verdict("initial_distance", d0 <= bound,
                    f"initial best-response log-distance {d0:.6g} <= 2/tau = {bound:.6g}")


def check_jeffrey_sum(summary: RunSummary) -> CheckResult:
    """Total policy movement sum_t J(step_t) vs its bound 2 eta (phi_tau[T] - phi_tau[0])."""
    if summary.num_steps == 0 or not _improvement_guaranteed(summary):
        return CheckResult("jeffrey_sum", False, False, "")
    total = summary.sum_jeffrey
    bound = 2.0 * summary.eta * (summary.phi_tau_final - summary.phi_tau_initial)
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


def theorem1_sides(summary: RunSummary) -> tuple[float, float] | None:
    """Theorem 1's measured average QRE-gap over iterates 1..T and its guaranteed upper bound.

    Bound: (2/(eta tau T)) * (tau * D0 + sqrt(2 eta T (phi_tau[T] - phi_tau[0]))),
    every quantity taken from the run itself. None where the theorem does not
    apply: no steps taken, tau <= 0 (RunConfig and read_run_meta reject it for
    npg, a RunSummary built in code may not), or no guaranteed improvement
    (npg with compliant eta).
    """
    t = summary.num_steps
    if t == 0 or summary.tau <= 0 or not _improvement_guaranteed(summary):
        return None
    eta, tau = summary.eta, summary.tau
    gain = max(summary.phi_tau_final - summary.phi_tau_initial, 0.0)
    rhs = (2.0 / (eta * tau * t)) * (
        tau * summary.initial_br_log_distance + math.sqrt(2.0 * eta * t * gain))
    return summary.sum_qre_gap / t, rhs


def check_theorem1(summary: RunSummary) -> CheckResult:
    sides = theorem1_sides(summary)
    if sides is None:
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


# Every theorem-level check, in report order. audit_lines reports all of them,
# and `run` and `audit` both print its report.
CHECKS = (check_initial_distance, check_jeffrey_sum, check_monotone, check_theorem1, check_sandwich)


def audit_lines(summary: RunSummary) -> tuple[list[str], list[str]]:
    """Report for one completed run; returns (lines, names of the checks that failed)."""
    head = (f"{run_basename(summary.method, summary.tau, summary.seed)}: "
            f"eta={summary.eta:g} T={summary.num_steps}")
    lines = [head]
    if summary.method == "pg_direct":
        lines.append(f"  final avg ne_gap {summary.sum_ne_gap / max(summary.num_steps, 1):.6e}; "
                     "regularized checks skipped (unregularized baseline)")
        return lines, []
    if summary.tau > 0 and summary.num_steps:
        avg = summary.sum_qre_gap / summary.num_steps
        lines.append(f"  measured avg qre_gap (iterates 1..T): {avg:.6e}; "
                     f"best single iterate: {summary.min_qre_gap:.6e}")
        sides = theorem1_sides(summary)
        if sides is not None:
            lines.append(f"  guaranteed upper bound on that average: {sides[1]:.6e}")
            if avg > 0:  # Theorem 1's iteration scale at eps = avg
                scale = (min(math.sqrt(summary.num_agents), summary.phi_max)
                         * summary.phi_max / (summary.tau**2 * avg**2))
                lines.append(f"  iteration-count scale to reach eps = this average: {scale:.4g}")
    results = [check(summary) for check in CHECKS]
    lines.extend("  " + res.detail for res in results if res.detail)
    return lines, [res.name for res in results if not res.ok]


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


# Most bytes of stacked potentials, which the sweep reads every step, one
# lockstep batch may hold; a run's length does not count. Half of a core's 2 MiB
# L2, so the stack and the sweep's prefix tensors stay in cache. On a 2-core Xeon
# at one BLAS thread, 200-step batches up to the budget beat the same runs alone
# (5x6 at K=15 in 0.19 of the time, 3x30 at K=4 in 0.50, 4x15 and 6x6 at K=2
# in 0.75 and 0.78), and two stacked 4x20 games (2.6 MB) took 1.13 times as long.
LOCKSTEP_BYTES = 1 << 20


def _shares_its_game(spec: GameSpec) -> bool:
    """Whether every run on this game steps as a row of one shared batch.

    A file game's shape is known only after loading, and a potential over half
    of LOCKSTEP_BYTES could never stack with another game's.
    """
    return spec.source == "file" or 8 * spec.num_actions**spec.num_agents > LOCKSTEP_BYTES // 2


def lockstep_batches(specs: list[GameSpec], jobs: int = 1) -> list[list[int]]:
    """Group the indices of runs, given by their game specs, into batches that step together.

    Every run is in one batch. One pass keys every run, whatever its config,
    and adds it to the last batch of its key:
    - Shared: when _shares_its_game holds, the key is the GameSpec. The runs
      are rows over the game's single potential (`dynamics.run(game,
      configs)`), and a row's bits depend on the configs that share its game,
      so such a batch is never split.
    - Lockstep: otherwise the key is the game's (N, A). A run starts a new
      batch when the last one holds ceil(lockstep runs / jobs) runs, so that
      every worker gets a batch, or when its potential would take the batch's
      potentials past LOCKSTEP_BYTES. Each run's output is the same in any
      lockstep batch (`dynamics.run(games, configs)`).

    Batches are ordered by their first run. The grouping depends on the specs
    alone, and on jobs only where it cannot change a byte.
    """
    most = -(-sum(not _shares_its_game(spec) for spec in specs) // max(jobs, 1))
    batches: list[list[int]] = []
    last: dict[object, list[int]] = {}  # key -> its last batch
    for i, spec in enumerate(specs):
        shared = _shares_its_game(spec)
        key = spec if shared else (spec.num_agents, spec.num_actions)
        batch = last.get(key)
        if batch is None or not shared and (
                len(batch) == most
                or (len(batch) + 1) * 8 * spec.num_actions**spec.num_agents > LOCKSTEP_BYTES):
            batch = last[key] = []
            batches.append(batch)
        batch.append(i)
    return batches


class RunOutcome(NamedTuple):
    """One run: its files' basename, and its meta object or its error, "<check>: <message>"
    ("monotone" for the runtime gate, "write" for its files)."""

    basename: str
    meta: dict | None
    error: str | None


def _execute_batch(out_dir: str, batch: list[tuple[GameSpec, RunConfig]]) -> list[IterateLog | str]:
    """Worker: run one batch, and write each completed run's CSV, final policy and meta file.

    Returns, per run in order, its IterateLog or its RunOutcome error. The
    meta file is written last, so a run whose files fail to write leaves none.
    """
    spec, configs = batch[0][0], [config for _, config in batch]
    if _shares_its_game(spec):
        logs = run(spec.build(), configs)
    else:
        logs = run([spec.build() for spec, _ in batch], configs)
    results: list[IterateLog | str] = []
    for config, log in zip(configs, logs):
        if isinstance(log, MonotonicityError):
            results.append(f"monotone: {log}")
            continue
        path = os.path.join(out_dir, run_basename(config.method, config.tau, config.seed))
        try:
            write_run_csv(log, path + ".csv")
            policy_to_csv(log.final_policy, path + ".policy.csv")
            write_run_meta(log, path + ".meta.json")
        except OSError as exc:
            results.append(f"write: {exc}")
        else:
            results.append(log)
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
) -> list[RunOutcome]:
    """All (variant x game) runs, then one aggregate CSV per variant.

    Runs step in lockstep batches, in a process pool for jobs > 1 and more
    than one batch; output files are per run. Returns one RunOutcome per run,
    variant-major. Each aggregate averages its variant's completed runs'
    logged columns, the values their CSVs hold. A run's files are named by its
    game's seed, so two game specs with one seed raise ValueError before
    anything is written.
    """
    seeds = [spec.seed for spec in game_specs]
    if len(set(seeds)) < len(seeds):
        repeated = next(seed for seed in seeds if seeds.count(seed) > 1)
        raise ValueError(f"two game specs have seed {repeated}, which names their runs' files")
    os.makedirs(out_dir, exist_ok=True)
    tasks = [(spec, replace(variant, seed=spec.seed)) for variant in variants for spec in game_specs]
    batches = lockstep_batches([spec for spec, _ in tasks], jobs)
    work = [[tasks[i] for i in batch] for batch in batches]
    execute = functools.partial(_execute_batch, out_dir)
    if jobs <= 1 or len(batches) <= 1:
        done = [execute(batch) for batch in work]
    else:
        # Under fork the first submit starts every worker, so start no more than
        # there are batches to run or cores to run them on.
        workers = min(jobs, len(batches), len(os.sched_getaffinity(0)))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(execute, work))
    logs = {i: log for batch, batch_logs in zip(batches, done) for i, log in zip(batch, batch_logs)}
    outcomes, runs = [], {}  # runs: aggregate basename -> {run CSV path: its logged columns}
    for i, (_, config) in enumerate(tasks):
        base, log = run_basename(config.method, config.tau, config.seed), logs[i]
        if isinstance(log, str):
            outcomes.append(RunOutcome(base, None, log))
            continue
        outcomes.append(RunOutcome(base, meta_from_log(log), None))
        variant_runs = runs.setdefault(agg_basename(config.method, config.tau), {})
        variant_runs[os.path.join(out_dir, base + ".csv")] = {
            "iter": log.iters, **{name: getattr(log, name) for name in CSV_COLUMNS}}
    for agg, columns in runs.items():
        aggregate_csvs(columns, os.path.join(out_dir, agg + ".csv"))
    return outcomes


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
        run_lines, failed = audit_lines(summary)
        lines.extend(run_lines)
        all_ok &= not failed
    lines.append("audit: " + ("all checks passed" if all_ok else "SOME CHECKS FAILED"))
    return lines, bool(all_ok)
