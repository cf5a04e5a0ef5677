"""Shared batches against solo runs: every variant on one game as rows of one sweep.

`run(game, configs)` steps the configs as rows over the game's single
potential, and the harness forms such a batch for every file game and every
game whose potential is too large to stack. A row's bits may differ from its
solo run's by rounding, so each row must match its solo run within ATOL in
every logged column and every RunSummary float, on the same iteration grid
with the same step count.
"""

import dataclasses
import os

import numpy as np
import pytest

from inpg import _contract, dynamics
from inpg.dynamics import IterateLog, MonotonicityError, RunConfig, run
from inpg.game import make_general_potential, make_identical_interest, save_game
from inpg.harness import (
    CSV_COLUMNS,
    GameSpec,
    lockstep_batches,
    read_csv_columns,
    read_run_meta,
    run_basename,
    run_experiment,
)

ATOL = 1e-13

MIX = [RunConfig(method="npg", tau=0.1, max_iters=60), RunConfig(method="mwu", max_iters=60),
       RunConfig(method="pg_direct", max_iters=60), RunConfig(method="npg", tau=0.02, max_iters=60)]


def assert_close_to_solo(game, config, got):
    solo = run(game, config)
    assert isinstance(got, IterateLog)
    assert np.array_equal(got.iters, solo.iters) and got.num_steps == solo.num_steps
    for f in dataclasses.fields(solo):
        a, b = getattr(got, f.name), getattr(solo, f.name)
        if f.name == "final_policy":
            a, b = a.log_probs, b.log_probs
        if isinstance(b, (str, bool, int)):
            assert a == b, f.name
        elif f.name == "initial_br_log_distance" and config.tau > 0:
            # A log-distance to softmax(r / tau): r's rounding enters divided by tau.
            np.testing.assert_allclose(a, b, rtol=0, atol=ATOL / config.tau, err_msg=f.name)
        else:
            np.testing.assert_allclose(a, b, rtol=0, atol=ATOL, err_msg=f.name)


@pytest.mark.parametrize("game", [
    make_identical_interest(2, 3, 5), make_general_potential(3, 4, 6), make_identical_interest(1, 4, 2),
    make_identical_interest(5, 3, 8)], ids=lambda g: "x".join(map(str, (g.num_agents, g.num_actions))))
@pytest.mark.parametrize("picks", [(0, 1, 2, 3), (0, 3), (1, 2), (2, 0)])
def test_rows_match_their_solo_runs(game, picks):
    configs = [MIX[i] for i in picks]
    for config, got in zip(configs, run(game, configs)):
        assert_close_to_solo(game, config, got)


def test_rows_on_a_4x20_game_match_their_solo_runs():
    game = make_identical_interest(4, 20, 7)
    configs = [RunConfig(method="npg", tau=1e-2, max_iters=50),
               RunConfig(method="npg", tau=1e-3, max_iters=50),
               RunConfig(method="pg_direct", max_iters=50), RunConfig(method="mwu", max_iters=30)]
    for config, got in zip(configs, run(game, configs)):
        assert_close_to_solo(game, config, got)


def test_rows_leave_at_their_own_max_iters():
    game = make_general_potential(3, 4, 2)
    configs = [RunConfig(method="npg", tau=0.1, max_iters=30), RunConfig(method="mwu", max_iters=10),
               RunConfig(method="pg_direct", max_iters=1500), RunConfig(method="npg", tau=0.2, max_iters=0),
               RunConfig(method="npg", tau=0.3, max_iters=10)]
    results = run(game, configs)
    assert [log.num_steps for log in results] == [30, 10, 1500, 0, 10]
    for config, got in zip(configs, results):
        assert_close_to_solo(game, config, got)


def test_a_row_stops_early_and_the_others_go_on():
    game = make_identical_interest(2, 4, 3)
    configs = [RunConfig(method="npg", tau=0.5, max_iters=5000, stop_qre_gap=1e-6),
               RunConfig(method="npg", tau=0.1, max_iters=400), RunConfig(method="pg_direct", max_iters=400),
               RunConfig(method="mwu", max_iters=300, stop_qre_gap=1e-6)]  # mwu has no qre gap
    results = run(game, configs)
    assert results[0].stopped_early and results[0].num_steps < 400
    assert [log.stopped_early for log in results[1:]] == [False] * 3
    for config, got in zip(configs, results):
        assert_close_to_solo(game, config, got)


def test_a_failing_row_returns_its_solo_error_and_the_others_go_on(monkeypatch):
    # As in test_runtime_monotone_gate_raises: the sweep returns the marginals of
    # 1 - Phi (with the true expected potential), so every gated row fails at t = 0.
    real_sweep = dynamics.marginal_sweep

    def descending_sweep(potentials, probs):
        return real_sweep(1.0 - potentials, probs)[0], real_sweep(potentials, probs)[1]

    monkeypatch.setattr(dynamics, "marginal_sweep", descending_sweep)
    game = make_identical_interest(3, 4, 1)
    configs = [RunConfig(method="mwu", max_iters=20), RunConfig(method="npg", tau=0.1, max_iters=20),
               RunConfig(method="pg_direct", max_iters=20),
               RunConfig(method="npg", tau=0.1, eta=0.9, max_iters=20)]  # eta above the gate's
    results = run(game, configs)
    assert isinstance(results[1], MonotonicityError)
    with pytest.raises(MonotonicityError) as solo:
        run(game, configs[1])
    got = results[1]
    assert got.t == solo.value.t == 0
    np.testing.assert_allclose([got.phi_tau_t, got.phi_tau_next, got.jeffrey_step],
                               [solo.value.phi_tau_t, solo.value.phi_tau_next, solo.value.jeffrey_step],
                               rtol=0, atol=ATOL)
    for c in (0, 2, 3):
        assert_close_to_solo(game, configs[c], results[c])


def test_sweep_cut_keeps_every_bit_of_a_shared_row(monkeypatch):
    # The shared-batch form of test_sweep_cut_keeps_every_bit: both rows reach
    # subnormal probabilities, and the Kronecker rows drop factors below
    # CUT ** (1/3) well before that.
    game = make_identical_interest(4, 20, 12)
    configs = [RunConfig(method="npg", tau=1e-4, max_iters=5000, seed=12),
               RunConfig(method="npg", tau=1e-3, max_iters=5000, seed=12)]
    cut = run(game, configs)
    assert np.exp(cut[0].final_policy.log_probs).min() < _contract.CUT
    monkeypatch.setattr(_contract, "CUT", 0.0)
    for got, whole in zip(cut, run(game, configs)):
        for name in vars(got):
            a, b = getattr(got, name), getattr(whole, name)
            if name == "final_policy":
                a, b = a.log_probs, b.log_probs
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


def game_files(tmp_path, count=2):
    specs = []
    for s in range(count):
        path = str(tmp_path / f"g{s}.pg")
        save_game(make_general_potential(3, 4, 20 + s), path)
        specs.append(GameSpec(source="file", path=path, seed=20 + s))
    return specs


def test_file_games_run_every_variant_in_one_batch(tmp_path):
    specs = game_files(tmp_path)
    out = tmp_path / "shared"
    run_experiment(str(out), specs, MIX)
    assert sorted(lockstep_batches(specs * len(MIX))) == [[0, 2, 4, 6], [1, 3, 5, 7]]
    alone = tmp_path / "alone"
    for config, spec in [(config, spec) for config in MIX for spec in specs]:
        base = run_basename(config.method, config.tau, spec.seed)
        (outcome,) = run_experiment(str(alone), [spec], [config])
        assert outcome.error is None
        got, solo = (read_csv_columns(d / (base + ".csv")) for d in (out, alone))
        assert np.array_equal(got["iter"], solo["iter"])
        for name in CSV_COLUMNS:
            np.testing.assert_allclose(got[name], solo[name], rtol=0, atol=ATOL, err_msg=name)
        got, solo = (dataclasses.asdict(read_run_meta(d / (base + ".meta.json"))) for d in (out, alone))
        assert got.keys() == solo.keys()
        for key, value in solo.items():
            if isinstance(value, float):
                np.testing.assert_allclose(got[key], value, rtol=0, atol=ATOL, err_msg=key)
            else:
                assert got[key] == value, key


def test_shared_experiment_bytes_do_not_depend_on_jobs(tmp_path):
    specs = game_files(tmp_path, count=3)
    outputs = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        run_experiment(str(out), specs, MIX, jobs=jobs)
        outputs[jobs] = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
    assert len(outputs[1]) == 3 * 3 * len(MIX) + len(MIX)
    assert outputs[1] == outputs[2]


def test_large_games_share_a_batch_that_jobs_never_splits():
    big = [GameSpec(source="identical", num_agents=4, num_actions=20, seed=s) for s in (1, 2)]
    small = [GameSpec(source="identical", num_agents=2, num_actions=10, seed=s) for s in (1, 2, 3)]
    specs = (big + small) * 3  # three variants' runs, variant-major
    for jobs in (1, 2, 3):
        batches = lockstep_batches(specs, jobs)
        assert batches[:2] == [[0, 5, 10], [1, 6, 11]]
        assert sorted(i for b in batches for i in b) == list(range(len(specs)))
