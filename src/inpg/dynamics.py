"""Learning dynamics: independent multiplicative policy updates and baselines.

Three methods over a fixed potential game, all starting from uniform policies
and updating every agent simultaneously from the same iteration's marginalized
utilities:

  npg       log pi_i <- (1 - eta*tau) log pi_i + eta r_i, renormalized.
            Each agent's update mixes its current policy with the softmax best
            response at temperature tau; requires tau > 0 and eta*tau <= 1.
  mwu       the tau = 0 limit (multiplicative weights / Hedge), tagged as its
            own method because it is the unregularized dynamic.
  pg_direct projected gradient ascent on the policy simplex with direct
            parameterization (the standard baseline).

A run records, per iteration: the regularized potential, both equilibrium
gaps, the Jeffrey divergence of the step, and running gap averages. With a
compliant learning rate the regularized potential must rise by at least
J(step)/(2 eta) every iteration; `run` enforces this for compliant npg runs
and raises MonotonicityError with full context otherwise.

Runs are independent, so `run` also steps a batch of runs together: every
array carries a leading batch axis K, and each numpy call serves all K runs.
A lockstep batch (one variant on several games) gives each run the bits of its
solo run; a shared batch (several variants on one game) reads the game's
potential once per step for all its runs, to within rounding of their solo runs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .game import PotentialGame
from .metrics import (
    best_response_log_distance,
    marginal_sweep,
    ne_gap_terms,
    policy_values,
    qre_gap_terms,
)
from .policy import (
    PROB_FLOOR,
    JointPolicy,
    jeffrey_logs,
    logsumexp,
    project_simplex,
    row_entropies,
)

METHODS = ("npg", "mwu", "pg_direct")

# Largest per-step shortfall of phi_tau below J/(2 eta) that rounding can explain.
MONOTONICITY_TOL = 1e-9

# Probabilities below this enter the sweep as 0. Under small tau, npg drives some
# log-probabilities into (-745, -708), where exp gives a subnormal and the sweep's
# products take the CPU's slow path (about 3x the step time at 4x20). A dropped
# term is below 1e-250 * max Phi while every sum it joins covers a whole opponent
# distribution, so it is far below half an ulp and the sweep's bits do not move.
# Only the sweep's input is cut: the policy, its logs, entropies and divergences
# keep every value (an entropy term of a near-pure row can itself be tiny).
SWEEP_PROB_CUT = 1e-250


class ParameterError(ValueError):
    """Run configuration outside the algorithm's admissible range."""


class MonotonicityError(RuntimeError):
    """Regularized potential failed to improve by J/(2 eta) at some step."""

    def __init__(self, t: int, phi_tau_t: float, phi_tau_next: float, jeffrey_step: float):
        self.t = t
        self.phi_tau_t = phi_tau_t
        self.phi_tau_next = phi_tau_next
        self.jeffrey_step = jeffrey_step
        super().__init__(
            f"improvement check failed at t={t}: "
            f"phi_tau[t]={phi_tau_t:.17g}, phi_tau[t+1]={phi_tau_next:.17g}, "
            f"jeffrey={jeffrey_step:.17g}"
        )


def default_learning_rate(num_agents: int, phi_max: float, tau: float) -> float:
    """Largest step size with a guaranteed per-step improvement: 1/(2(min(sqrt(N), 2 phi_max) + tau))."""
    if num_agents < 1 or phi_max <= 0 or tau < 0:
        raise ValueError("need num_agents >= 1, phi_max > 0, tau >= 0")
    return 1.0 / (2.0 * (min(math.sqrt(num_agents), 2.0 * phi_max) + tau))


def improvement_guaranteed(method: str, eta: float, tau: float, num_agents: int, phi_max: float) -> bool:
    """Whether every step must raise phi_tau by J/(2 eta): npg with eta <= default_learning_rate."""
    return method == "npg" and eta <= default_learning_rate(num_agents, phi_max, tau) * (1 + 1e-12)


def check_step_params(eta: float, tau: float) -> None:
    """Admissible update parameters: finite eta > 0, finite tau >= 0 and eta*tau <= 1."""
    if not 0.0 < eta < math.inf:
        raise ParameterError(f"eta must be positive and finite, got {eta!r}")
    if not 0.0 <= tau < math.inf:
        raise ParameterError(f"tau must be nonnegative and finite, got {tau!r}")
    if eta * tau > 1.0:
        raise ParameterError(
            f"eta*tau = {eta * tau:g} > 1: the current policy's exponent would be negative"
        )


def pg_direct_learning_rate(num_agents: int, num_actions: int) -> float:
    """Baseline step size for direct-parameterization gradient ascent: 1/(2 N |A|)."""
    return 1.0 / (2.0 * num_agents * num_actions)


def tau_for_epsilon_ne(epsilon: float, num_actions: int) -> float:
    """Regularization making an epsilon/2-accurate QRE an epsilon-accurate NE: eps/(2 log|A|)."""
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    if num_actions < 2:
        raise ParameterError("num_actions must be at least 2 (log|A| would vanish)")
    return epsilon / (2.0 * math.log(num_actions))


@dataclass(frozen=True)
class RunConfig:
    """One learning run: method, regularization, step size, budget and stopping rule.

    eta may be the string "auto": npg/mwu resolve to default_learning_rate and
    pg_direct to pg_direct_learning_rate. The logging cadence is fixed (see
    `run`); the run's scalars are reductions over every iterate, logged or not.
    """

    method: str
    tau: float = 0.0
    eta: float | str = "auto"
    max_iters: int = 1000
    seed: int = 0
    stop_qre_gap: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ParameterError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.method == "npg" and not 0.0 < self.tau < math.inf:
            raise ParameterError("npg requires a finite tau > 0 (use method='mwu' for tau = 0)")
        if self.method in ("mwu", "pg_direct") and self.tau != 0:
            raise ParameterError(f"{self.method} is unregularized; tau must be 0")
        if self.max_iters < 0:
            raise ParameterError("max_iters must be nonnegative")
        if isinstance(self.eta, str):
            if self.eta != "auto":
                raise ParameterError(f"eta must be a positive float or 'auto', got {self.eta!r}")
        else:
            check_step_params(self.eta, self.tau)

    def resolve_eta(self, game: PotentialGame) -> float:
        if self.eta == "auto":
            if self.method == "pg_direct":
                return pg_direct_learning_rate(game.num_agents, game.num_actions)
            return default_learning_rate(game.num_agents, game.phi_max, self.tau)
        return float(self.eta)


@dataclass
class RunSummary:
    """Run-level scalars of one run: its meta file holds exactly these fields.

    Each scalar is a reduction over every iterate (or every step), logged or
    not: sums run over iterates 1..T in iterate order, minima and maxima over
    iterates 0..T. qre-gap scalars are NaN for unregularized methods,
    sum_jeffrey for pg_direct (its projection can zero out actions), and
    min_monotonicity_slack unless improvement_guaranteed holds.
    """

    method: str
    tau: float
    eta: float
    seed: int
    num_agents: int
    num_actions: int
    phi_max: float
    game_kind: str
    game_seed: int
    num_steps: int
    phi_tau_initial: float
    phi_tau_final: float
    sum_ne_gap: float
    sum_qre_gap: float
    min_ne_gap: float
    min_qre_gap: float
    sum_jeffrey: float
    initial_br_log_distance: float
    min_monotonicity_slack: float
    max_sandwich_slack: float
    stopped_early: bool

    @property
    def avg_ne_gap_final(self) -> float:
        return self.sum_ne_gap / self.num_steps if self.num_steps else float("nan")

    @property
    def avg_qre_gap_final(self) -> float:
        return self.sum_qre_gap / self.num_steps if self.num_steps else float("nan")


@dataclass
class IterateLog(RunSummary):
    """Logged trajectory of one run plus its RunSummary scalars.

    Column arrays are aligned with `iters`, the logged rows of the per-iterate
    record that the scalars reduce. qre_gap columns are NaN for unregularized
    methods, jeffrey_step is NaN for pg_direct and 0.0 on the final row. avg_*
    at row t is the mean over iterates 1..t; at t = 0 it repeats the initial gap.
    """

    iters: np.ndarray
    phi_tau: np.ndarray
    ne_gap: np.ndarray
    qre_gap: np.ndarray
    jeffrey_step: np.ndarray
    avg_ne_gap: np.ndarray
    avg_qre_gap: np.ndarray
    final_policy: JointPolicy = field(repr=False)


def npg_update_logs(log_probs: np.ndarray, r: np.ndarray, eta: float, tau: float) -> np.ndarray:
    """Multiplicative update in log space; tau = 0 gives multiplicative weights."""
    z = (1.0 - eta * tau) * log_probs + eta * r
    return z - logsumexp(z, axis=-1, keepdims=True)


def step_update(
    method: str, log_probs: np.ndarray, probs: np.ndarray, r: np.ndarray, eta: float, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """New (log_probs, probs) from marginals r; pg_direct floors zeros at PROB_FLOOR before the log."""
    if method == "pg_direct":
        new_probs = pg_direct_update_probs(probs, r, eta)
        return np.log(np.maximum(new_probs, PROB_FLOOR)), new_probs
    new_lp = npg_update_logs(log_probs, r, eta, tau)
    return new_lp, np.exp(new_lp)


def _sweep_one(game: PotentialGame, policy: JointPolicy) -> np.ndarray:
    """The marginals r of one game at one policy, shape (num_agents, num_actions)."""
    return marginal_sweep(game.potential[None], policy.probs[None])[0][0]


def npg_step(game: PotentialGame, policy: JointPolicy, eta: float, tau: float) -> JointPolicy:
    """One simultaneous update of every agent."""
    check_step_params(eta, tau)
    r = _sweep_one(game, policy)
    return JointPolicy(step_update("npg", policy.log_probs, policy.probs, r, eta, tau)[0])


def pg_direct_update_probs(probs: np.ndarray, r: np.ndarray, eta: float) -> np.ndarray:
    """Projected ascent step on the simplex with direct parameterization."""
    return project_simplex(probs + eta * r)


def pg_direct_step(game: PotentialGame, policy: JointPolicy, eta: float) -> JointPolicy:
    """One projected ascent step of every agent."""
    check_step_params(eta, 0.0)
    r = _sweep_one(game, policy)
    return JointPolicy(step_update("pg_direct", policy.log_probs, policy.probs, r, eta, 0.0)[0])


def _running_sums(start: float, terms: np.ndarray) -> np.ndarray:
    """[start, start + terms[0], ...], added left to right as `+=` does (np.sum adds pairwise)."""
    sums = np.empty(len(terms) + 1)
    sums[0], sums[1:] = start, terms
    return np.cumsum(sums, out=sums)


# Rows of a batch's record block (rows, iterates, runs). Row t of the per-step
# row belongs to the step that leaves iterate t.
_PHI_TAU, _NE, _QRE, _JEFFREY = _ROWS = range(4)
_RECORD_CHUNK = 1024  # iterates a record block holds before it first doubles


def lockstep_run_bytes(num_agents: int, num_actions: int, max_iters: int) -> int:
    """Bytes one run adds to a lockstep batch: its potential and its full record column."""
    return 8 * num_actions**num_agents + 8 * len(_ROWS) * (max_iters + 1)


def run(
    game: PotentialGame | Sequence[PotentialGame], config: RunConfig | Sequence[RunConfig]
) -> IterateLog | list[IterateLog | MonotonicityError]:
    """Run the configured dynamic from uniform policies for max_iters steps.

    All metrics at an iterate come from one sweep of the potential. When
    improvement_guaranteed holds, every step must satisfy
    phi_tau[t+1] - phi_tau[t] >= J(step)/(2 eta) - MONOTONICITY_TOL, and a
    step that does not raises MonotonicityError.

    Two batch forms step several runs together. Each returns one IterateLog,
    or the MonotonicityError the run would raise, per config, and raises for
    no single run's failure. A run that stops early, fails or reaches its
    max_iters leaves the batch, and the others go on.
    - Lockstep: `run(games, configs)` with one config per game, all equal
      except for `seed`, and games of one shape and one phi_max. Every result
      is bit-identical to the solo run's.
    - Shared: `run(game, configs)` with one game and any configs. The runs
      are rows of one batch over the game's single potential, each with its
      own method, tau, eta, max_iters and stopping rule, and the sweep reads
      the potential once for all of them (`_contract.fold_shared`). A row's
      bits can differ from its solo run's by rounding, and they depend on
      the batch (the configs given), never on anything else.

    The loop records (phi_tau, ne_gap, qre_gap) of every iterate and the
    Jeffrey divergence of every step, 32 bytes per step and run, in a block
    that grows with the steps taken up to max_iters + 1 iterates
    (lockstep_run_bytes counts a run's share in full). The summary scalars,
    running averages and logged rows are all derived from that record after
    the loop. Logged rows: every iterate through 1000, every 10th after, and
    the last.
    """
    if isinstance(game, PotentialGame):
        if isinstance(config, RunConfig):
            (out,) = _run_batch(game.potential[None], [game], [config])
            if isinstance(out, MonotonicityError):
                raise out
            return out
        configs = list(config)
        return _run_batch(game.potential[None], [game] * len(configs), configs)
    games, configs = list(game), list(config)
    if len(games) != len(configs):
        raise ValueError(f"{len(games)} games but {len(configs)} configs")
    if not games:
        return []
    head, head_config = games[0], configs[0]
    if any(g.joint_shape != head.joint_shape or g.phi_max != head.phi_max for g in games) or any(
        replace(c, seed=head_config.seed) != head_config for c in configs
    ):
        raise ValueError("a lockstep batch needs games of one shape and phi_max, "
                         "and configs equal except for seed")
    potentials = head.potential[None] if len(games) == 1 else np.stack([g.potential for g in games])
    return _run_batch(potentials, games, configs)


def _sweep_input(probs: np.ndarray) -> np.ndarray:
    """The policy rows the sweep reads: probabilities below SWEEP_PROB_CUT become 0."""
    if np.minimum.reduce(probs, axis=None) >= SWEEP_PROB_CUT:  # one call where none is cut
        return probs
    return np.where(probs < SWEEP_PROB_CUT, 0.0, probs)


# A batch orders its rows by method: the regularized rows first (they alone have
# entropies and qre gaps), then every row npg_update_logs steps, then pg_direct.
_METHOD_ORDER = {"npg": 0, "mwu": 1, "pg_direct": 2}


@dataclass
class _Row:
    """One run of a batch and what the loop needs of it."""

    index: int  # position in the caller's configs
    game: PotentialGame
    config: RunConfig
    eta: float
    mono_enabled: bool
    d0: float = math.nan


def _per_row(values: list[float], trailing: int):
    """One float when every row shares the value, else a column over `trailing` broadcast axes.

    Either form gives each row the same bits, so a batch of one variant makes
    exactly the numpy calls its runs make alone.
    """
    if all(v == values[0] for v in values):
        return values[0]
    return np.array(values).reshape((-1,) + (1,) * trailing)


class _Batch:
    """The live rows of a batch in method order, and each method group's parameters.

    Rows [0, n_reg) are npg, rows [0, n_upd) take npg_update_logs (npg and
    mwu) and rows [n_upd, K) take the pg_direct step; each group is one slice
    and one numpy call per operation. Rebuilt only when rows leave.
    """

    def __init__(self, rows: list[_Row]):
        self.rows = rows
        self.n_reg = sum(row.config.method == "npg" for row in rows)
        self.n_upd = self.n_reg + sum(row.config.method == "mwu" for row in rows)
        upd, pg = rows[: self.n_upd], rows[self.n_upd :]
        self.eta_upd = _per_row([row.eta for row in upd], 2) if upd else None
        self.tau_upd = _per_row([row.config.tau for row in upd], 2) if upd else None
        self.eta_pg = _per_row([row.eta for row in pg], 2) if pg else None
        taus = [row.config.tau for row in rows[: self.n_reg]]
        self.tau_phi = _per_row(taus, 0) if taus else None  # against (K,) sums
        self.tau_gap = _per_row(taus, 1) if taus else None  # against (K, N) gaps
        self.gated = [(c, 2.0 * row.eta) for c, row in enumerate(rows) if row.mono_enabled]
        stops = [row.config.stop_qre_gap for row in rows]
        # A row without a stopping rule never stops: no gap is <= -inf.
        self.stop = None if all(s is None for s in stops) else np.array(
            [-math.inf if s is None else s for s in stops])
        self.top = max(row.config.max_iters for row in rows)
        self.end = min(row.config.max_iters for row in rows)  # the first iterate a row ends at

    def step(self, rec: np.ndarray, t: int, lp, probs, r) -> tuple[np.ndarray, np.ndarray]:
        """Every row's new (log_probs, probs); writes the Jeffrey divergence of step t."""
        n = self.n_upd
        if n == 0:
            return step_update("pg_direct", lp, probs, r, self.eta_pg, 0.0)
        if n == len(lp):
            new_lp, new_probs = step_update("npg", lp, probs, r, self.eta_upd, self.tau_upd)
            rec[_JEFFREY, t] = jeffrey_logs(new_probs, new_lp, probs, lp)
            return new_lp, new_probs
        new_lp, new_probs = np.empty_like(lp), np.empty_like(probs)
        new_lp[:n], new_probs[:n] = step_update(
            "npg", lp[:n], probs[:n], r[:n], self.eta_upd, self.tau_upd)
        new_lp[n:], new_probs[n:] = step_update(
            "pg_direct", lp[n:], probs[n:], r[n:], self.eta_pg, 0.0)
        rec[_JEFFREY, t, :n] = jeffrey_logs(new_probs[:n], new_lp[:n], probs[:n], lp[:n])
        return new_lp, new_probs

    def record(self, rec: np.ndarray, t: int, r, phi_mean, lp, probs) -> None:
        """Write iterate t's phi_tau and gaps, one column per row, into the record block.

        Per-step reductions call the ufunc's reduce, the routine ndarray.max and
        ndarray.sum wrap in Python: same bits, less overhead per call.
        """
        values = policy_values(r, probs)  # shared by both gaps
        best = np.maximum.reduce(r, axis=-1)
        rec[_NE, t] = np.maximum.reduce(ne_gap_terms(best, values), axis=-1)
        n = self.n_reg
        if n == 0:
            rec[_PHI_TAU, t] = phi_mean
            return
        if n < len(r):  # the unregularized rows: phi_tau is the expected potential
            rec[_PHI_TAU, t, n:] = phi_mean[n:]
            r, phi_mean, lp, probs, values, best = (
                r[:n], phi_mean[:n], lp[:n], probs[:n], values[:n], best[:n])
        h = row_entropies(probs, lp)  # shared by phi_tau and the qre gap
        rec[_PHI_TAU, t, :n] = phi_mean + self.tau_phi * np.add.reduce(h, axis=-1)
        rec[_QRE, t, :n] = np.maximum.reduce(qre_gap_terms(r, best, values, h, self.tau_gap), axis=-1)


def _run_batch(potentials: np.ndarray, games: Sequence[PotentialGame],
               configs: Sequence[RunConfig]) -> list:
    """Step the runs as rows of one batch; potentials holds each row's potential, or one for all."""
    nan = float("nan")
    k = len(configs)
    rows = []  # a lockstep batch has one method, so its potentials keep their order
    for c in sorted(range(k), key=lambda c: _METHOD_ORDER[configs[c].method]):
        game, config = games[c], configs[c]
        eta = config.resolve_eta(game)
        rows.append(_Row(c, game, config, eta, improvement_guaranteed(
            config.method, eta, config.tau, game.num_agents, game.phi_max)))
    batch = _Batch(rows)
    head = games[0]
    lp = np.full((k, head.num_agents, head.num_actions), -math.log(head.num_actions))
    probs = np.exp(lp)
    # Undefined quantities (qre_gap at tau = 0, Jeffrey for pg_direct) stay NaN.
    rec = np.full((len(_ROWS), min(batch.top + 1, _RECORD_CHUNK), k), nan)
    r, phi_mean = marginal_sweep(potentials, _sweep_input(probs))
    batch.record(rec, 0, r, phi_mean, lp, probs)
    for c, row in enumerate(rows):
        if row.config.tau > 0:
            row.d0 = best_response_log_distance(lp[c], r[c], row.config.tau)
    results: list = [None] * k

    def finish(col: int, steps: int, stopped_early: bool) -> None:
        row = batch.rows[col]
        results[row.index] = _iterate_log(row.game, row.config, row.eta, rec[:, : steps + 1, col],
                                          row.d0, row.mono_enabled, stopped_early, lp[col])

    t = 0  # every live row is at iterate t
    while True:
        leave = set()
        if batch.gated and t:  # in Python floats, as cheap as a solo run's check at K = 1
            (before, after), jeffrey = rec[_PHI_TAU, t - 1 : t + 1].tolist(), rec[_JEFFREY, t - 1].tolist()
            for c, two_eta in batch.gated:
                if after[c] - before[c] - jeffrey[c] / two_eta < -MONOTONICITY_TOL:
                    results[batch.rows[c].index] = MonotonicityError(
                        t - 1, before[c], after[c], jeffrey[c])
                    leave.add(c)
        if batch.stop is not None and t:
            for c in np.flatnonzero(rec[_QRE, t] <= batch.stop).tolist():  # NaN if tau = 0
                if c not in leave:  # a failing row reports its failure, as its solo run raises
                    finish(c, t, True)
                    leave.add(c)
        if t == batch.end:
            for c, row in enumerate(batch.rows):
                if row.config.max_iters == t and c not in leave:
                    finish(c, t, False)
                    leave.add(c)
        if leave:
            keep = np.array([c not in leave for c in range(len(batch.rows))])
            if not keep.any():
                return results
            batch = _Batch([row for row, kept in zip(batch.rows, keep) if kept])
            if len(potentials) > 1:
                potentials = potentials[keep]
            lp, probs, r, rec = lp[keep], probs[keep], r[keep], rec[:, :, keep]
        lp, probs = batch.step(rec, t, lp, probs, r)
        r, phi_mean = marginal_sweep(potentials, _sweep_input(probs))
        if t + 1 == rec.shape[1]:  # grow, never past the longest run's max_iters + 1 iterates
            more = min(rec.shape[1], batch.top + 1 - rec.shape[1])
            rec = np.concatenate([rec, np.full((len(_ROWS), more, len(batch.rows)), nan)], axis=1)
        t += 1
        batch.record(rec, t, r, phi_mean, lp, probs)


def _iterate_log(game: PotentialGame, config: RunConfig, eta: float, rec: np.ndarray, d0: float,
                 mono_enabled: bool, stopped_early: bool, lp: np.ndarray) -> IterateLog:
    """One run's IterateLog from its record column rec (rows, iterates 0..T) and final policy."""
    tau = config.tau
    track_jeffrey = config.method != "pg_direct"
    nan = float("nan")
    steps = rec.shape[1] - 1
    phi_tau, ne, qre = (np.array(rec[row]) for row in (_PHI_TAU, _NE, _QRE))
    jeffrey = np.array(rec[_JEFFREY, :steps])
    min_slack = nan
    if mono_enabled:
        # The gate's slack of every step; fmin skips NaN, as a running
        # min(min_slack, slack) from +inf does.
        slack = phi_tau[1:] - phi_tau[:-1] - jeffrey / (2.0 * eta)
        min_slack = float(np.fmin.reduce(slack, initial=math.inf))
    iters = np.arange(steps + 1)
    iters = iters[(iters <= 1000) | (iters % 10 == 0) | (iters == steps)]
    # Running sums over iterates 1..t. A quantity this method leaves undefined is
    # NaN and sums from NaN, so NaN carries into its sum, averages, min and max.
    ne_sums = _running_sums(0.0, ne[1:])
    qre_sums = _running_sums(0.0 if tau > 0 else nan, qre[1:])
    no_step = 0.0 if track_jeffrey else nan  # the Jeffrey sum's start; no step leaves iterate T
    jeffrey_rows = np.full(len(iters), no_step)
    jeffrey_rows[:-1] = jeffrey[iters[:-1]]
    return IterateLog(
        method=config.method,
        tau=tau,
        eta=eta,
        seed=config.seed,
        num_agents=game.num_agents,
        num_actions=game.num_actions,
        phi_max=game.phi_max,
        game_kind=game.kind,
        game_seed=game.seed,
        num_steps=steps,
        iters=iters,
        phi_tau=phi_tau[iters],
        ne_gap=ne[iters],
        qre_gap=qre[iters],
        jeffrey_step=jeffrey_rows,
        avg_ne_gap=np.where(iters > 0, ne_sums[iters] / np.maximum(iters, 1), ne[0]),
        avg_qre_gap=np.where(iters > 0, qre_sums[iters] / np.maximum(iters, 1), qre[0]),
        phi_tau_initial=float(phi_tau[0]),
        phi_tau_final=float(phi_tau[-1]),
        sum_ne_gap=float(ne_sums[-1]),
        sum_qre_gap=float(qre_sums[-1]),
        min_ne_gap=float(np.min(ne)),
        min_qre_gap=float(np.min(qre)),
        sum_jeffrey=float(_running_sums(no_step, jeffrey)[-1]),
        initial_br_log_distance=d0,
        min_monotonicity_slack=min_slack,
        max_sandwich_slack=float(np.max(ne - qre - tau * math.log(game.num_actions))),
        stopped_early=stopped_early,
        final_policy=JointPolicy(lp.copy()),
    )


def theorem_average_gap_sides(log: RunSummary) -> tuple[float, float] | None:
    """Measured average QRE-gap over iterates 1..T and its guaranteed upper bound.

    Bound: (2/(eta tau T)) * (tau * D0 + sqrt(2 eta T (phi_tau[T] - phi_tau[0]))),
    every quantity taken from the run itself. None when the bound does not
    apply (unregularized method or zero steps).
    """
    if log.method != "npg" or log.tau <= 0 or log.num_steps == 0:
        return None
    t = log.num_steps
    lhs = log.sum_qre_gap / t
    gain = max(log.phi_tau_final - log.phi_tau_initial, 0.0)
    rhs = (2.0 / (log.eta * log.tau * t)) * (
        log.tau * log.initial_br_log_distance + math.sqrt(2.0 * log.eta * t * gain)
    )
    return lhs, rhs


def initial_distance_bound_sides(log: RunSummary) -> tuple[float, float] | None:
    """Initial log-distance to the best response vs its uniform-start bound 2/tau."""
    if log.tau <= 0:
        return None
    return log.initial_br_log_distance, 2.0 / log.tau


def jeffrey_sum_sides(log: RunSummary) -> tuple[float, float] | None:
    """Total policy movement sum_t J(step_t) vs its bound 2 eta (phi_tau[T] - phi_tau[0])."""
    if log.method == "pg_direct" or log.num_steps == 0:
        return None
    return log.sum_jeffrey, 2.0 * log.eta * (log.phi_tau_final - log.phi_tau_initial)


def predicted_iterations(log: RunSummary, epsilon: float) -> float:
    """Iteration-count scale min(sqrt(N), phi_max) * phi_max / (tau^2 eps^2) for reaching eps."""
    return (
        min(math.sqrt(log.num_agents), log.phi_max)
        * log.phi_max
        / (log.tau**2 * epsilon**2)
    )
