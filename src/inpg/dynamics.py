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
A lockstep batch (any runs on games of one shape, one game each) gives each run
the bits of its solo run; a shared batch (any runs on one game) reads the game's
potential once per step for all its runs, to within rounding of their solo runs.
Every step reads its marginals from `metrics.marginal_sweep`, which decides how
the sweep runs: which kernel, and which tiny probabilities it reads as 0.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

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
        if self.stop_qre_gap is not None and not 0.0 <= self.stop_qre_gap < math.inf:
            raise ParameterError(f"stop_qre_gap must be finite and >= 0, got {self.stop_qre_gap!r}")
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


def _sweep_one(game: PotentialGame, policy: JointPolicy) -> np.ndarray:
    """The marginals r of one game at one policy, shape (num_agents, num_actions)."""
    return marginal_sweep(game.potential[None], policy.probs[None])[0][0]


def npg_step(game: PotentialGame, policy: JointPolicy, eta: float, tau: float) -> JointPolicy:
    """One simultaneous update of every agent."""
    check_step_params(eta, tau)
    r = _sweep_one(game, policy)
    return JointPolicy(npg_update_logs(policy.log_probs, r, eta, tau))


def pg_direct_update_probs(probs: np.ndarray, r: np.ndarray, eta: float) -> np.ndarray:
    """Projected ascent step on the simplex with direct parameterization."""
    return project_simplex(probs + eta * r)


def pg_direct_step(game: PotentialGame, policy: JointPolicy, eta: float) -> JointPolicy:
    """One projected ascent step of every agent."""
    check_step_params(eta, 0.0)
    r = _sweep_one(game, policy)
    return JointPolicy(np.log(np.maximum(pg_direct_update_probs(policy.probs, r, eta), PROB_FLOOR)))


def _running_sums(start: float, terms: np.ndarray) -> np.ndarray:
    """[start, start + terms[0], ...], added left to right as `+=` does (np.sum adds pairwise)."""
    sums = np.empty(len(terms) + 1)
    sums[0], sums[1:] = start, terms
    return np.cumsum(sums, out=sums)


# Rows of a batch's record block (rows, iterates, runs). Row t of the per-step
# row belongs to the step that leaves iterate t.
_PHI_TAU, _NE, _QRE, _JEFFREY = _ROWS = range(4)
_RECORD_CHUNK = 1024  # most iterates a record block holds; a full block is folded


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
    no single run's failure. Either way the runs are rows of one batch, each
    with its own method, tau, eta, max_iters and stopping rule; a run that
    stops early, fails or reaches its max_iters leaves the batch, and the
    others go on.
    - Lockstep: `run(games, configs)` with one config per game and games of
      one shape. Each row reads its own game's potential, and every result
      is bit-identical to the solo run's.
    - Shared: `run(game, configs)` with one game and any configs. The sweep
      reads the game's single potential once for all the rows (while more
      than one is live, `marginal_sweep` takes its shared kernel). A row's
      bits can differ from its solo run's by rounding, and they depend on
      the batch (the configs given), never on anything else.

    The loop records (phi_tau, ne_gap, qre_gap) of every iterate and the
    Jeffrey divergence of every step, 32 bytes per step and run, in a block
    of at most _RECORD_CHUNK iterates. A full block is folded into each run's
    running sums, minima, maxima and logged rows, so a run holds its logged
    rows and not its trajectory. Logged rows: every iterate through 1000,
    every 10th after, and the last.
    """
    if isinstance(game, PotentialGame):
        if isinstance(config, RunConfig):
            (out,) = _run_batch([game], [config], shared=True)
            if isinstance(out, MonotonicityError):
                raise out
            return out
        configs = list(config)
        return _run_batch([game] * len(configs), configs, shared=True)
    games, configs = list(game), list(config)
    if len(games) != len(configs):
        raise ValueError(f"{len(games)} games but {len(configs)} configs")
    if not games:
        return []
    if any(g.joint_shape != games[0].joint_shape for g in games):
        raise ValueError("a lockstep batch needs games of one shape")
    return _run_batch(games, configs, shared=False)


# A batch orders its rows by method: the regularized rows first (they alone have
# entropies and qre gaps), then every row npg_update_logs steps, then pg_direct.
_METHOD_ORDER = {"npg": 0, "mwu": 1, "pg_direct": 2}


@dataclass
class _Row:
    """One run of a batch, what the loop needs of it, and its record folded so far."""

    index: int  # position in the caller's configs
    game: PotentialGame
    config: RunConfig
    eta: float
    mono_enabled: bool
    d0: float = math.nan

    def __post_init__(self):
        # Sums run over iterates 1..t, minima and maxima over 0..t. A quantity the method
        # leaves undefined is NaN and sums from NaN, so NaN carries into all of them.
        self.sum_ne_gap = 0.0
        self.sum_qre_gap = 0.0 if self.config.tau > 0 else math.nan
        # The Jeffrey sum's start, and the J logged at iterate T.
        self.no_step = math.nan if self.config.method == "pg_direct" else 0.0
        self.sum_jeffrey = self.no_step
        self.min_ne_gap = self.min_qre_gap = math.inf
        self.max_sandwich_slack = -math.inf
        # fmin skips NaN, as a running min(min_slack, slack) from +inf does.
        self.min_monotonicity_slack = math.inf if self.mono_enabled else math.nan
        self.logged: list[tuple] = []  # per fold: iters, then the IterateLog columns

    def fold(self, block: np.ndarray, first: int, last: bool = False) -> None:
        """Fold record columns (rows, iterates first, first + 1, ...) into the run's state.

        Every column but the last is folded, and the last too when the run ends
        there; the last column's phi_tau serves the slack of the step before
        it. Every sum adds left to right from its carried value, as one
        _running_sums over the whole record would.
        """
        n = block.shape[1] - (not last)
        phi, ne, qre = (block[row, :n] for row in (_PHI_TAU, _NE, _QRE))
        jeffrey = block[_JEFFREY, : block.shape[1] - 1]
        if self.mono_enabled:
            slack = block[_PHI_TAU, 1:] - block[_PHI_TAU, :-1] - jeffrey / (2.0 * self.eta)
            self.min_monotonicity_slack = float(
                np.fmin.reduce(slack, initial=self.min_monotonicity_slack))
        skip = int(first == 0)  # iterate 0 starts no sum
        ne_sums = _running_sums(self.sum_ne_gap, ne[skip:])
        qre_sums = _running_sums(self.sum_qre_gap, qre[skip:])
        self.sum_ne_gap, self.sum_qre_gap = float(ne_sums[-1]), float(qre_sums[-1])
        self.sum_jeffrey = float(_running_sums(self.sum_jeffrey, jeffrey)[-1])
        self.min_ne_gap = float(np.min(ne, initial=self.min_ne_gap))
        self.min_qre_gap = float(np.min(qre, initial=self.min_qre_gap))
        gap = self.config.tau * math.log(self.game.num_actions)  # the sandwich's width
        self.max_sandwich_slack = float(np.max(ne - qre - gap, initial=self.max_sandwich_slack))
        iters = np.arange(first, first + n)
        at = (iters <= 1000) | (iters % 10 == 0)
        at[-1] |= last
        at = np.flatnonzero(at)
        jeffrey_rows = block[_JEFFREY, at]
        if last:
            jeffrey_rows[-1] = self.no_step  # no step leaves iterate T
        self.logged.append((iters[at], phi[at], ne[at], qre[at], jeffrey_rows,
                            ne_sums[at + 1 - skip], qre_sums[at + 1 - skip]))

    def finish(self, block: np.ndarray, first: int, stopped_early: bool,
               lp: np.ndarray) -> IterateLog:
        """The run's IterateLog: folds the rest of its record (iterates first..T) and
        takes its final policy lp."""
        self.fold(block, first, last=True)
        iters, phi_tau, ne, qre, jeffrey, ne_sums, qre_sums = (
            c[0] if len(c) == 1 else np.concatenate(c) for c in zip(*self.logged))
        self.logged.clear()  # the row outlives its run in the batch's list
        game, config = self.game, self.config
        return IterateLog(
            method=config.method, tau=config.tau, eta=self.eta, seed=config.seed,
            num_agents=game.num_agents, num_actions=game.num_actions, phi_max=game.phi_max,
            game_kind=game.kind, game_seed=game.seed, num_steps=int(iters[-1]),
            iters=iters, phi_tau=phi_tau, ne_gap=ne, qre_gap=qre, jeffrey_step=jeffrey,
            avg_ne_gap=np.where(iters > 0, ne_sums / np.maximum(iters, 1), ne[0]),
            avg_qre_gap=np.where(iters > 0, qre_sums / np.maximum(iters, 1), qre[0]),
            phi_tau_initial=float(phi_tau[0]), phi_tau_final=float(phi_tau[-1]),
            sum_ne_gap=self.sum_ne_gap, sum_qre_gap=self.sum_qre_gap, min_ne_gap=self.min_ne_gap,
            min_qre_gap=self.min_qre_gap, sum_jeffrey=self.sum_jeffrey,
            initial_br_log_distance=self.d0, min_monotonicity_slack=self.min_monotonicity_slack,
            max_sandwich_slack=self.max_sandwich_slack, stopped_early=stopped_early,
            final_policy=JointPolicy(lp.copy()))


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
        self.end = min(row.config.max_iters for row in rows)  # the first iterate a row ends at

    def step(self, rec: np.ndarray, j: int, lp, probs, r) -> tuple[np.ndarray, np.ndarray]:
        """Every row's new (log_probs, probs); writes the Jeffrey divergence into block column j.

        pg_direct's projection can zero out actions, so its logs floor at PROB_FLOOR.
        """
        n = self.n_upd
        if n == 0:
            new_probs = pg_direct_update_probs(probs, r, self.eta_pg)
            return np.log(np.maximum(new_probs, PROB_FLOOR)), new_probs
        if n == len(lp):
            new_lp = npg_update_logs(lp, r, self.eta_upd, self.tau_upd)
            new_probs = np.exp(new_lp)
            rec[_JEFFREY, j] = jeffrey_logs(new_probs, new_lp, probs, lp)
            return new_lp, new_probs
        new_lp, new_probs = np.empty_like(lp), np.empty_like(probs)
        new_lp[:n] = npg_update_logs(lp[:n], r[:n], self.eta_upd, self.tau_upd)
        new_probs[:n] = np.exp(new_lp[:n])
        new_probs[n:] = pg_direct_update_probs(probs[n:], r[n:], self.eta_pg)
        new_lp[n:] = np.log(np.maximum(new_probs[n:], PROB_FLOOR))
        rec[_JEFFREY, j, :n] = jeffrey_logs(new_probs[:n], new_lp[:n], probs[:n], lp[:n])
        return new_lp, new_probs

    def record(self, rec: np.ndarray, j: int, r, phi_mean, lp, probs) -> None:
        """Write an iterate's phi_tau and gaps into block column j, one entry per row.

        Per-step reductions call the ufunc's reduce, the routine ndarray.max and
        ndarray.sum wrap in Python: same bits, less overhead per call.
        """
        values = policy_values(r, probs)  # shared by both gaps
        best = np.maximum.reduce(r, axis=-1)
        rec[_NE, j] = np.maximum.reduce(ne_gap_terms(best, values), axis=-1)
        n = self.n_reg
        if n == 0:
            rec[_PHI_TAU, j] = phi_mean
            return
        if n < len(r):  # the unregularized rows: phi_tau is the expected potential
            rec[_PHI_TAU, j, n:] = phi_mean[n:]
            r, phi_mean, lp, probs, values, best = (
                r[:n], phi_mean[:n], lp[:n], probs[:n], values[:n], best[:n])
        h = row_entropies(probs, lp)  # shared by phi_tau and the qre gap
        rec[_PHI_TAU, j, :n] = phi_mean + self.tau_phi * np.add.reduce(h, axis=-1)
        rec[_QRE, j, :n] = np.maximum.reduce(qre_gap_terms(r, best, values, h, self.tau_gap), axis=-1)


def _run_batch(games: Sequence[PotentialGame], configs: Sequence[RunConfig], shared: bool) -> list:
    """Step the runs as one batch: every row reads games[0]'s potential if shared, else its own."""
    nan = float("nan")
    k = len(configs)
    rows = []
    for c in sorted(range(k), key=lambda c: _METHOD_ORDER[configs[c].method]):
        game, config = games[c], configs[c]
        eta = config.resolve_eta(game)
        rows.append(_Row(c, game, config, eta, improvement_guaranteed(
            config.method, eta, config.tau, game.num_agents, game.phi_max)))
    batch = _Batch(rows)
    if shared:
        potentials = games[0].potential[None]
    else:  # stacked in row order
        potentials = np.stack([row.game.potential for row in rows])
    head = games[0]
    lp = np.full((k, head.num_agents, head.num_actions), -math.log(head.num_actions))
    probs = np.exp(lp)
    # Undefined quantities (qre_gap at tau = 0, Jeffrey for pg_direct) stay NaN:
    # nothing writes them, in this block or after a fold.
    rec = np.full((len(_ROWS), min(max(c.max_iters for c in configs) + 1, _RECORD_CHUNK), k), nan)
    base = 0  # the iterate in the block's column 0
    r, phi_mean = marginal_sweep(potentials, probs)
    batch.record(rec, 0, r, phi_mean, lp, probs)
    for c, row in enumerate(rows):
        if row.config.tau > 0:
            row.d0 = best_response_log_distance(lp[c], r[c], row.config.tau)
    results: list = [None] * k

    def finish(col: int, stopped_early: bool) -> None:
        row = batch.rows[col]
        results[row.index] = row.finish(rec[:, : j + 1, col], base, stopped_early, lp[col])

    t = 0  # every live row is at iterate t
    while True:
        j = t - base
        leave = set()
        if batch.gated and t:  # in Python floats, as cheap as a solo run's check at K = 1
            (before, after), jeffrey = rec[_PHI_TAU, j - 1 : j + 1].tolist(), rec[_JEFFREY, j - 1].tolist()
            for c, two_eta in batch.gated:
                if after[c] - before[c] - jeffrey[c] / two_eta < -MONOTONICITY_TOL:
                    results[batch.rows[c].index] = MonotonicityError(
                        t - 1, before[c], after[c], jeffrey[c])
                    leave.add(c)
        if batch.stop is not None and t:
            for c in np.flatnonzero(rec[_QRE, j] <= batch.stop).tolist():  # NaN if tau = 0
                if c not in leave:  # a failing row reports its failure, as its solo run raises
                    finish(c, True)
                    leave.add(c)
        if t == batch.end:
            for c, row in enumerate(batch.rows):
                if row.config.max_iters == t and c not in leave:
                    finish(c, False)
                    leave.add(c)
        if leave:
            keep = np.array([c not in leave for c in range(len(batch.rows))])
            if not keep.any():
                return results
            batch = _Batch([row for row, kept in zip(batch.rows, keep) if kept])
            if len(potentials) > 1:
                potentials = potentials[keep]
            lp, probs, r, rec = lp[keep], probs[keep], r[keep], rec[:, :, keep]
        lp, probs = batch.step(rec, j, lp, probs, r)
        r, phi_mean = marginal_sweep(potentials, probs)
        if j + 1 == rec.shape[1]:  # full: fold all but iterate t, which the next gate reads
            for c, row in enumerate(batch.rows):
                row.fold(rec[:, :, c], base)
            rec[:, 0], base = rec[:, -1], t
        t += 1
        batch.record(rec, t - base, r, phi_mean, lp, probs)
