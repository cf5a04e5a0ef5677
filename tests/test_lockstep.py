"""Lockstep runs against solo runs: every field of every run must match bit for bit.

`run(games, configs)` steps a batch of runs with one numpy call per operation
for the whole batch. Each run's IterateLog (or MonotonicityError) must equal
the one `run(game, config)` gives for that run alone.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from inpg import dynamics
from inpg.dynamics import IterateLog, MonotonicityError, RunConfig, run
from inpg.game import PotentialGame, make_general_potential, make_identical_interest

METHODS = [("npg", 0.1), ("mwu", 0.0), ("pg_direct", 0.0)]
SHAPES = [("identical", 1, 3), ("identical", 2, 10), ("general", 3, 4), ("identical", 5, 6)]


def make(kind, agents, actions, seed):
    maker = make_identical_interest if kind == "identical" else make_general_potential
    return maker(agents, actions, seed)


def fields_of(log: IterateLog) -> dict:
    """Every field as bytes (or text), so NaN and -0.0 compare by their bits."""
    out = {}
    for f in dataclasses.fields(log):
        value = getattr(log, f.name)
        if f.name == "final_policy":
            value = value.log_probs
        out[f.name] = value if isinstance(value, str) else np.asarray(value).tobytes()
    return out


def assert_same_as_solo(games, configs, results):
    assert len(results) == len(games)
    for game, config, got in zip(games, configs, results):
        try:
            solo = run(game, config)
        except MonotonicityError as exc:
            assert isinstance(got, MonotonicityError)
            assert (got.t, got.phi_tau_t, got.phi_tau_next, got.jeffrey_step) == (
                exc.t, exc.phi_tau_t, exc.phi_tau_next, exc.jeffrey_step)
            continue
        assert isinstance(got, IterateLog)
        assert fields_of(got) == fields_of(solo)


def batch(kind, agents, actions, k, **config):
    games = [make(kind, agents, actions, 11 + s) for s in range(k)]
    configs = [RunConfig(seed=11 + s, **config) for s in range(k)]
    return games, configs


@pytest.mark.parametrize("k", [2, 7, 40])
@pytest.mark.parametrize("kind,agents,actions", SHAPES)
@pytest.mark.parametrize("method,tau", METHODS)
def test_batch_matches_solo_runs(method, tau, kind, agents, actions, k):
    games, configs = batch(kind, agents, actions, k, method=method, tau=tau, max_iters=40)
    assert_same_as_solo(games, configs, run(games, configs))


# Every run resolves its own eta and keeps its own tau, budget and stopping rule.
MIXED = [
    RunConfig(method="npg", tau=0.05, max_iters=400),
    RunConfig(method="npg", tau=0.1, eta=0.3, max_iters=200),
    RunConfig(method="npg", tau=0.2, max_iters=300, stop_qre_gap=1e-3),
    RunConfig(method="mwu", max_iters=80),
    RunConfig(method="pg_direct", max_iters=250),
]


@pytest.mark.parametrize("agents,actions", [(1, 3), (2, 10), (3, 4), (5, 6)])
def test_mixed_configs_match_solo_runs(agents, actions):
    # Identical and general games alternate, so each config meets both kinds.
    games = [make("identical" if s % 2 else "general", agents, actions, 30 + s) for s in range(11)]
    configs = [dataclasses.replace(MIXED[s % len(MIXED)], seed=30 + s) for s in range(11)]
    assert_same_as_solo(games, configs, run(games, configs))


def test_a_batch_past_one_fold_equals_its_runs_alone():
    steps = dynamics._RECORD_CHUNK + 300
    games, configs = batch("identical", 2, 3, 3, method="npg", tau=0.05, max_iters=steps)
    results = run(games, configs)
    assert all(log.num_steps == steps for log in results)
    assert_same_as_solo(games, configs, results)


def test_one_step_past_a_full_block_adds_no_block():
    # Runs of _RECORD_CHUNK - 1 steps fill the record block exactly. One more
    # step folds the block and reuses it, where a second block would hold
    # 1.3 MB more at K = 40.
    peaks = []
    for steps in (dynamics._RECORD_CHUNK - 1, dynamics._RECORD_CHUNK):
        games, configs = batch("identical", 2, 3, 40, method="mwu", tau=0.0, max_iters=steps)
        tracemalloc.start()
        try:
            run(games, configs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2**19


def test_rows_that_cross_two_folds_match_their_runs_alone(monkeypatch):
    # A 2,500-step run's record block fills, and is folded, at iterates 1,023 and
    # 2,046; the stopping row leaves in the third block. Each run alone below
    # holds its whole record in one block, so the folds must give the bits of a
    # record never folded.
    games = [make_identical_interest(2, 10, 11 + s) for s in range(4)]
    configs = [RunConfig(method="npg", tau=0.01, max_iters=2500, stop_qre_gap=1e-8, seed=11),
               RunConfig(method="npg", tau=0.1, max_iters=2500, seed=12),
               RunConfig(method="mwu", max_iters=2500, seed=13),
               RunConfig(method="pg_direct", max_iters=2500, seed=14)]
    results = run(games, configs)
    assert [log.num_steps for log in results] == [2197, 2500, 2500, 2500]
    monkeypatch.setattr(dynamics, "_RECORD_CHUNK", 10**6)
    assert_same_as_solo(games, configs, results)


def test_a_longer_batch_holds_only_its_extra_logged_rows():
    # From 10,000 to 20,000 steps each run logs 1,000 more rows (every 10th
    # iterate): the peak may grow by those rows, held twice while a run's
    # folds are joined, and not by 32 B per iterate and run.
    peaks, rows = [], []
    for steps in (10_000, 20_000):
        games, configs = batch("identical", 2, 10, 3, method="mwu", tau=0.0, max_iters=steps)
        tracemalloc.start()
        try:
            results = run(games, configs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        rows.append(sum(len(log.iters) for log in results))
    row_bytes = 8 * 7  # iters and the six logged columns
    assert peaks[1] - peaks[0] <= 2 * row_bytes * (rows[1] - rows[0])


def test_zero_steps():
    for method, tau in METHODS:
        games, configs = batch("identical", 2, 5, 3, method=method, tau=tau, max_iters=0)
        assert_same_as_solo(games, configs, run(games, configs))


def test_runs_that_stop_early_leave_the_batch():
    games, configs = batch("general", 3, 4, 7, method="npg", tau=0.1, max_iters=5000,
                           stop_qre_gap=1e-6)
    results = run(games, configs)
    assert all(log.stopped_early for log in results)
    assert len({log.num_steps for log in results}) > 1  # they leave at different steps
    assert_same_as_solo(games, configs, results)


def test_a_failing_run_leaves_the_batch_and_the_others_go_on(monkeypatch):
    # As in test_runtime_monotone_gate_raises: one game's sweep returns the marginals
    # of 1 - Phi (with the true expected potential), so ascent lowers its potential.
    bad = PotentialGame(num_agents=2, num_actions=2, potential=np.array([[1.0, 0.0], [0.0, 0.0]]),
                        dummies=(), phi_max=1.0)
    real_sweep = dynamics.marginal_sweep

    def sweep(potentials, probs):
        r, phi = real_sweep(potentials, probs)
        for c, potential in enumerate(potentials):
            if np.array_equal(potential, bad.potential):
                r[c] = real_sweep(1.0 - potential[None], probs[c : c + 1])[0][0]
        return r, phi

    monkeypatch.setattr(dynamics, "marginal_sweep", sweep)
    games = [make_identical_interest(2, 2, s) for s in range(3)]
    games.insert(1, bad)
    configs = [RunConfig(method="npg", tau=0.1, max_iters=50, seed=s) for s in range(4)]
    results = run(games, configs)
    assert isinstance(results[1], MonotonicityError) and results[1].t == 0
    assert all(isinstance(results[c], IterateLog) for c in (0, 2, 3))
    assert_same_as_solo(games, configs, results)
    with pytest.raises(MonotonicityError):
        run(bad, configs[1])  # the solo form still raises


def test_a_huge_budget_allocates_only_for_the_steps_taken():
    games, configs = batch("identical", 2, 4, 3, method="npg", tau=0.5, max_iters=10**8,
                           stop_qre_gap=1e-6)
    tracemalloc.start()
    try:
        results = run(games, configs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(log.stopped_early and log.num_steps < 1000 for log in results)
    assert peak < 2**20  # a record sized by max_iters would take 12 GB
    assert_same_as_solo(games, configs, results)


def test_batch_needs_one_shape():
    games, configs = batch("identical", 2, 3, 2, method="npg", tau=0.1, max_iters=5)
    with pytest.raises(ValueError):
        run([games[0], make_identical_interest(2, 4, 1)], configs)
    with pytest.raises(ValueError):
        run(games, configs[:1])
    assert run([], []) == []


@pytest.mark.parametrize("stop", [None, 1e-5])
def test_min_slack_is_the_least_per_step_slack(stop):
    # The slack is derived from the record after the loop; it must cover every
    # step, up to the last one of a run that leaves the batch early.
    games, configs = batch("identical", 3, 5, 4, method="npg", tau=0.2, max_iters=900,
                           stop_qre_gap=stop)
    for log in run(games, configs):
        assert log.stopped_early == (stop is not None)
        slack = log.phi_tau[1:] - log.phi_tau[:-1] - log.jeffrey_step[:-1] / (2.0 * log.eta)
        assert log.min_monotonicity_slack == slack.min()
