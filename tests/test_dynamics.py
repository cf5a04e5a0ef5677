import math

import numpy as np
import pytest

from inpg import _contract, dynamics
from inpg._contract import fold_all, fold_all_agents, fold_except
from inpg.dynamics import (
    MonotonicityError,
    ParameterError,
    RunConfig,
    default_learning_rate,
    npg_step,
    pg_direct_learning_rate,
    pg_direct_step,
    run,
    tau_for_epsilon_ne,
)
from inpg.game import PotentialGame, expected_potential, make_general_potential, make_identical_interest
from inpg.harness import check_initial_distance, check_jeffrey_sum, check_theorem1, theorem1_sides
from inpg.metrics import best_response, marginalized_utilities
from inpg.policy import JointPolicy, uniform_policy

from conftest import random_policy


class TestLearningRates:
    def test_section5_value(self):
        assert default_learning_rate(4, 1.0, 0.01) == pytest.approx(
            0.24875621890547267, abs=1e-15
        )

    def test_small_phi_max_branch(self):
        # min(sqrt(100), 2*0.1) picks the potential bound
        assert default_learning_rate(100, 0.1, 0.0) == 2.5

    def test_single_agent(self):
        assert default_learning_rate(1, 1.0, 1.0) == 0.25

    def test_pg_direct_rate(self):
        assert pg_direct_learning_rate(4, 20) == 0.00625

    def test_validation(self):
        with pytest.raises(ValueError):
            default_learning_rate(0, 1.0, 0.1)


class TestTauForEpsilon:
    def test_value(self):
        assert tau_for_epsilon_ne(0.1, 20) == pytest.approx(0.016690410034766703, abs=1e-15)

    def test_unit_result(self):
        for a in (2, 5, 50):
            assert tau_for_epsilon_ne(2.0 * math.log(a), a) == pytest.approx(1.0, rel=1e-14)

    def test_single_action_rejected(self):
        with pytest.raises(ParameterError):
            tau_for_epsilon_ne(0.1, 1)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ParameterError):
            tau_for_epsilon_ne(0.0, 4)


class TestNpgStep:
    def test_full_step_is_best_response(self, rng):
        # eta*tau = 1 removes the old policy entirely.
        game = make_general_potential(2, 4, seed=3)
        pol = random_policy(rng, 2, 4)
        tau = 0.5
        stepped = npg_step(game, pol, eta=2.0, tau=tau)
        r = marginalized_utilities(game, pol)
        for i in range(2):
            assert np.allclose(stepped.probs[i], best_response(r[i], tau), atol=1e-14)

    def test_constant_payoff_fixed_point_mwu(self):
        # tau = 0 with action-independent payoffs leaves the policy alone.
        phi = np.full((2, 2), 0.4)
        game = PotentialGame(num_agents=2, num_actions=2, potential=phi,
                             dummies=(), phi_max=1.0)
        pol = JointPolicy.from_probs(np.array([[0.3, 0.7], [0.9, 0.1]]))
        stepped = npg_step(game, pol, eta=0.25, tau=0.0)
        assert np.allclose(stepped.probs, pol.probs, atol=1e-15)

    def test_eta_tau_above_one_rejected(self, rng):
        game = make_identical_interest(2, 3, seed=0)
        with pytest.raises(ParameterError, match="negative"):
            npg_step(game, uniform_policy(2, 3), eta=3.0, tau=0.5)

    def test_agent_relabeling_equivariance(self, rng):
        # Relabeling agents before the update equals relabeling after it:
        # each agent's update reads only its own (policy, marginal) pair.
        game = make_general_potential(3, 3, seed=14)
        pol = random_policy(rng, 3, 3)
        perm = (2, 0, 1)
        perm_game = PotentialGame(
            num_agents=3, num_actions=3,
            potential=np.transpose(game.potential, perm).copy(),
            # c_p over p's opponents becomes new agent k's dummy, where perm[k] = p.
            dummies=tuple(np.transpose(np.expand_dims(game.dummies[p], p), perm).squeeze(k)
                          for k, p in enumerate(perm)),
            phi_max=game.phi_max,
        )
        perm_pol = JointPolicy(pol.log_probs[list(perm)].copy())
        stepped = npg_step(game, pol, eta=0.2, tau=0.3)
        perm_stepped = npg_step(perm_game, perm_pol, eta=0.2, tau=0.3)
        assert np.allclose(perm_stepped.probs, stepped.probs[list(perm)], atol=1e-13)


class TestPgDirectStep:
    def test_constant_payoff_fixed_point(self):
        phi = np.full((3, 3), 0.8)
        game = PotentialGame(num_agents=2, num_actions=3, potential=phi,
                             dummies=(), phi_max=1.0)
        pol = JointPolicy.from_probs(np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]]))
        stepped = pg_direct_step(game, pol, eta=0.1)
        assert np.allclose(stepped.probs, pol.probs, atol=1e-12)

    def test_matches_manual_projection(self, rng):
        game = make_identical_interest(2, 4, seed=2)
        pol = random_policy(rng, 2, 4)
        eta = 0.05
        r = marginalized_utilities(game, pol)
        from inpg.policy import project_simplex

        manual = project_simplex(pol.probs + eta * r)
        stepped = pg_direct_step(game, pol, eta=eta)
        assert np.allclose(stepped.probs, manual, atol=1e-12)


@pytest.mark.parametrize("method,tau", [("npg", 0.3), ("pg_direct", 0.0)])
def test_step_functions_match_first_step_of_run(method, tau):
    game = make_general_potential(3, 4, seed=11)
    log = run(game, RunConfig(method=method, tau=tau, max_iters=1))
    if method == "npg":
        stepped = npg_step(game, uniform_policy(3, 4), eta=log.eta, tau=tau)
    else:
        stepped = pg_direct_step(game, uniform_policy(3, 4), eta=log.eta)
    assert np.array_equal(stepped.log_probs, log.final_policy.log_probs)


class TestRunConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            RunConfig(method="sgd")

    def test_npg_needs_positive_tau(self):
        with pytest.raises(ParameterError):
            RunConfig(method="npg", tau=0.0)

    def test_mwu_must_be_unregularized(self):
        with pytest.raises(ParameterError):
            RunConfig(method="mwu", tau=0.1)

    def test_bad_eta(self):
        with pytest.raises(ParameterError):
            RunConfig(method="mwu", eta="fast")
        with pytest.raises(ParameterError):
            RunConfig(method="mwu", eta=-1.0)

    def test_eta_resolution(self):
        game = make_identical_interest(4, 20, seed=0)
        assert RunConfig(method="npg", tau=0.01).resolve_eta(game) == pytest.approx(
            1.0 / (2.0 * (2.0 + 0.01))
        )
        assert RunConfig(method="pg_direct").resolve_eta(game) == 0.00625
        assert RunConfig(method="mwu", eta=0.1).resolve_eta(game) == 0.1


class TestRun:
    def test_zero_iters_logs_initial_point_only(self):
        game = make_identical_interest(2, 5, seed=4)
        log = run(game, RunConfig(method="npg", tau=0.2, max_iters=0))
        assert len(log.iters) == 1 and log.iters[0] == 0
        pol = uniform_policy(2, 5)
        expected = expected_potential(game, pol) + 0.2 * 2 * math.log(5)
        assert log.phi_tau[0] == pytest.approx(expected, abs=1e-12)
        assert log.jeffrey_step[0] == 0.0

    def test_default_cadence(self):
        game = make_identical_interest(1, 3, seed=5)
        log = run(game, RunConfig(method="npg", tau=0.5, max_iters=1050))
        it = log.iters
        assert np.array_equal(it[:1001], np.arange(1001))
        assert np.array_equal(it[1001:], [1010, 1020, 1030, 1040, 1050])
        log = run(game, RunConfig(method="npg", tau=0.5, max_iters=1055))
        assert np.array_equal(log.iters[1001:], [1010, 1020, 1030, 1040, 1050, 1055])

    def test_monotone_improvement_tracked(self):
        game = make_identical_interest(3, 5, seed=6)
        log = run(game, RunConfig(method="npg", tau=0.05, max_iters=500))
        assert log.min_monotonicity_slack >= -1e-9
        assert np.all(np.diff(log.phi_tau) >= -1e-12)

    def test_monotone_check_inactive_for_large_eta(self):
        game = make_identical_interest(2, 4, seed=7)
        log = run(game, RunConfig(method="npg", tau=0.5, eta=1.0, max_iters=50))
        assert math.isnan(log.min_monotonicity_slack)

    def test_running_averages_match_columns(self):
        game = make_general_potential(2, 3, seed=8)
        log = run(game, RunConfig(method="npg", tau=0.3, max_iters=50))
        for k in range(1, len(log.iters)):
            assert log.avg_qre_gap[k] == pytest.approx(np.mean(log.qre_gap[1 : k + 1]), rel=1e-12)
            assert log.avg_ne_gap[k] == pytest.approx(np.mean(log.ne_gap[1 : k + 1]), rel=1e-12)
        assert log.avg_qre_gap[0] == log.qre_gap[0]
        assert log.avg_qre_gap[-1] == pytest.approx(log.sum_qre_gap / log.num_steps)

    def test_average_gap_bound_holds(self):
        game = make_identical_interest(3, 6, seed=9)
        log = run(game, RunConfig(method="npg", tau=0.1, max_iters=400))
        lhs, rhs = theorem1_sides(log)
        assert lhs <= rhs
        assert log.initial_br_log_distance <= 2.0 / log.tau
        movement_bound = 2.0 * log.eta * (log.phi_tau_final - log.phi_tau_initial)
        assert log.sum_jeffrey <= movement_bound + 1e-15
        for check in (check_initial_distance, check_jeffrey_sum, check_theorem1):
            result = check(log)
            assert result.applicable and result.passed, result.detail

    def test_stop_qre_gap(self):
        game = make_identical_interest(2, 4, seed=10)
        log = run(game, RunConfig(method="npg", tau=0.5, max_iters=10_000, stop_qre_gap=1e-6))
        assert log.stopped_early
        assert log.num_steps < 10_000
        assert log.qre_gap[-1] <= 1e-6
        assert log.iters[-1] == log.num_steps

    def test_mwu_run(self):
        game = make_identical_interest(2, 4, seed=11)
        log = run(game, RunConfig(method="mwu", max_iters=300))
        assert np.all(np.isnan(log.qre_gap))
        assert np.all(np.isfinite(log.phi_tau))
        # unregularized multiplicative weights still ascends the potential here
        assert np.all(np.diff(log.phi_tau) >= -1e-12)
        assert math.isnan(log.initial_br_log_distance)

    def test_pg_run_has_nan_divergences(self):
        game = make_identical_interest(2, 4, seed=12)
        log = run(game, RunConfig(method="pg_direct", max_iters=100))
        assert np.all(np.isnan(log.jeffrey_step[:-1])) or np.all(np.isnan(log.jeffrey_step))
        assert np.all(np.isnan(log.qre_gap))
        assert np.all(np.isfinite(log.ne_gap))

    def test_final_policy_matches_last_metrics(self):
        from inpg.metrics import qre_gap

        game = make_identical_interest(2, 4, seed=13)
        log = run(game, RunConfig(method="npg", tau=0.2, max_iters=200))
        assert qre_gap(game, log.final_policy, 0.2) == pytest.approx(
            log.qre_gap[-1], abs=1e-14
        )


@pytest.mark.parametrize("max_iters", [0, 1, 50])
@pytest.mark.parametrize("method,tau", [("npg", 0.3), ("mwu", 0.0), ("pg_direct", 0.0)])
def test_summary_scalars_reduce_the_columns(method, tau, max_iters):
    game = make_general_potential(2, 3, seed=8)
    log = run(game, RunConfig(method=method, tau=tau, max_iters=max_iters))
    assert np.array_equal(log.iters, np.arange(max_iters + 1))  # every row logged up to 1000

    def in_order(values):
        total = 0.0
        for v in values.tolist():
            total += v
        return total

    assert log.sum_ne_gap == in_order(log.ne_gap[1:])
    assert log.min_ne_gap == min(log.ne_gap.tolist())
    if tau > 0:
        assert log.sum_qre_gap == in_order(log.qre_gap[1:])
        assert log.min_qre_gap == min(log.qre_gap.tolist())
        sandwich = log.ne_gap - log.qre_gap - tau * math.log(game.num_actions)
        assert log.max_sandwich_slack == max(sandwich.tolist())
    else:
        assert math.isnan(log.sum_qre_gap) and math.isnan(log.min_qre_gap)
        assert math.isnan(log.max_sandwich_slack)
    if method == "pg_direct":
        assert math.isnan(log.sum_jeffrey)
    else:
        assert log.sum_jeffrey == in_order(log.jeffrey_step[:-1])
    assert log.phi_tau_initial == log.phi_tau[0] and log.phi_tau_final == log.phi_tau[-1]


def test_runtime_monotone_gate_raises(monkeypatch):
    # A game is a potential game by construction, so the gate is reached through an
    # identical-interest game whose sweep is replaced by the marginals of 1 - Phi
    # (with the true expected potential): ascent then lowers the potential.
    phi = np.array([[1.0, 0.0], [0.0, 0.0]])
    game = PotentialGame(num_agents=2, num_actions=2, potential=phi,
                         dummies=(), phi_max=1.0)

    def descending_sweep(potentials, probs):
        r, _ = fold_all_agents(1.0 - potentials, probs)
        return r, fold_all_agents(potentials, probs)[1]

    monkeypatch.setattr(dynamics, "marginal_sweep", descending_sweep)
    with pytest.raises(MonotonicityError) as info:
        run(game, RunConfig(method="npg", tau=0.1, max_iters=10))
    assert info.value.t == 0
    assert info.value.phi_tau_next < info.value.phi_tau_t
    for method in ("mwu", "pg_direct"):
        run(game, RunConfig(method=method, max_iters=10))


@pytest.mark.parametrize("method,tau", [("npg", 0.1), ("pg_direct", 0.0)])
def test_potential_sweep_matches_utility_sweep_trajectories(monkeypatch, method, tau):
    game = make_general_potential(3, 4, seed=11)
    config = RunConfig(method=method, tau=tau, max_iters=300)
    log = run(game, config)

    def utility_sweep(potentials, probs):
        rows = list(probs[0])
        r = np.stack([fold_except(u, rows, i) for i, u in enumerate(game.utilities)])
        return r[None], np.array([fold_all(potentials[0], rows)])

    monkeypatch.setattr(dynamics, "marginal_sweep", utility_sweep)
    reference = run(game, config)
    assert np.array_equal(log.iters, reference.iters)
    for name in ("phi_tau", "ne_gap", "qre_gap", "jeffrey_step", "avg_ne_gap", "avg_qre_gap"):
        np.testing.assert_allclose(getattr(log, name), getattr(reference, name), rtol=0, atol=1e-12)


class TestMonotonicityError:
    def test_carries_context(self):
        err = MonotonicityError(5, 0.25, 0.24, 0.001)
        assert err.t == 5
        assert err.phi_tau_t == 0.25 and err.phi_tau_next == 0.24
        assert err.jeffrey_step == 0.001
        assert "t=5" in str(err)


def test_sweep_cut_keeps_every_bit(monkeypatch):
    # Under tau = 1e-4 this run drives probabilities into the subnormal range from
    # about step 3,800, so the cut drops terms from the sweep on the later steps.
    game = make_identical_interest(4, 20, 12)
    config = RunConfig(method="npg", tau=1e-4, max_iters=5000, seed=12)
    cut = run(game, config)
    assert np.exp(cut.final_policy.log_probs).min() < _contract.CUT
    monkeypatch.setattr(_contract, "CUT", 0.0)
    whole = run(game, config)
    for name in vars(cut):
        a, b = getattr(cut, name), getattr(whole, name)
        if name == "final_policy":
            a, b = a.log_probs, b.log_probs
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


@pytest.mark.parametrize("method", ["npg", "pg_direct"])
def test_sweep_cut_keeps_every_bit_of_a_single_step(monkeypatch, method):
    # npg_step and pg_direct_step sweep through marginal_sweep as run does, so
    # their probabilities below the cut (one normal, two subnormal) enter it as 0.
    game = make_general_potential(4, 6, seed=3)
    logits = np.random.default_rng(3).normal(size=(4, 6))
    logits[:, 1:4] = [-600.0, -715.0, -740.0]
    policy = JointPolicy.from_logits(logits)
    assert 0 < policy.probs.min() < np.finfo(float).tiny and np.sum(policy.probs < _contract.CUT) == 12

    def step():
        if method == "npg":
            return npg_step(game, policy, eta=0.1, tau=0.01).log_probs
        return pg_direct_step(game, policy, eta=0.05).log_probs

    cut = step()
    monkeypatch.setattr(_contract, "CUT", 0.0)
    assert cut.tobytes() == step().tobytes()
