import math

import numpy as np
import pytest

from inpg.game import expected_utility, make_general_potential, make_identical_interest
from inpg.metrics import (
    best_response,
    best_response_log_distance,
    best_response_logs,
    marginal_sweep,
    marginalized_utilities,
    marginalized_utility,
    ne_gap,
    ne_gap_terms,
    policy_values,
    qre_gap,
    qre_gap_terms,
    regularized_potential,
    regularized_utility,
)
from inpg.policy import JointPolicy, entropy, jeffrey, kl, row_entropies, uniform_policy

from conftest import random_policy, random_small_game
from oracle import grid_gap, naive_marginal


def soft_maximum(r: np.ndarray, tau: float) -> float:
    """tau * logsumexp(r / tau): the regularized utility attained by the best response."""
    m = float(np.max(r))
    return m + tau * float(np.log(np.sum(np.exp((r - m) / tau))))


def point_mass_row(num_actions, action):
    row = np.full(num_actions, -1e4)
    row[action] = 0.0
    return row


class TestMarginalizedUtility:
    def test_point_mass_opponent(self):
        game = make_general_potential(2, 3, seed=4)
        lp = np.vstack([uniform_policy(1, 3).log_probs[0], point_mass_row(3, 2)])
        pol = JointPolicy(lp)
        r = marginalized_utility(game, 0, pol)
        assert np.allclose(r, game.utilities[0][:, 2], atol=1e-15)

    def test_uniform_opponent_is_row_mean(self):
        game = make_general_potential(2, 4, seed=5)
        pol = uniform_policy(2, 4)
        r = marginalized_utility(game, 1, pol)
        assert np.allclose(r, game.utilities[1].mean(axis=0), atol=1e-14)

    def test_sweep_matches_naive_loop(self, rng):
        for _ in range(10):
            game = random_small_game(rng)
            pol = random_policy(rng, game.num_agents, game.num_actions)
            r_all = marginalized_utilities(game, pol)
            for i in range(game.num_agents):
                assert np.allclose(r_all[i], naive_marginal(game, i, pol), atol=1e-12)

    def test_sweep_rows_are_utility_marginals_up_to_a_constant(self, rng):
        # marginal_sweep reads only the potential; in a potential game each of its
        # rows differs from the agent's utility marginal by one constant.
        for n in range(1, 4):
            for a in range(2, 6):
                game = make_general_potential(n, a, seed=int(rng.integers(0, 2**31)))
                pol = random_policy(rng, n, a)
                r = marginal_sweep(game.potential[None], pol.probs[None])[0][0]
                shift = r - marginalized_utilities(game, pol)
                assert np.max(np.ptp(shift, axis=1)) <= 1e-13

    def test_entries_in_unit_interval(self, rng):
        game = random_small_game(rng)
        r = marginalized_utilities(game, random_policy(rng, game.num_agents, game.num_actions))
        assert np.all(r >= 0.0) and np.all(r <= 1.0)

    def test_sweep_returns_expected_potential(self, rng):
        from inpg.game import expected_potential

        game = random_small_game(rng)
        pol = random_policy(rng, game.num_agents, game.num_actions)
        _, phi = marginal_sweep(game.potential[None], pol.probs[None])
        assert phi[0] == pytest.approx(expected_potential(game, pol), abs=1e-13)


class TestBestResponse:
    def test_constant_gives_uniform(self):
        br = best_response(np.full(6, 0.37), tau=1.0)
        assert np.allclose(br, 1.0 / 6.0, atol=1e-15)

    def test_direct_two_action_value(self):
        br = best_response(np.array([1.0, 0.0]), tau=1.0)
        assert np.allclose(br, [0.7310585786300049, 0.2689414213699951], atol=1e-15)

    def test_zero_tau_point_mass_lowest_index_ties(self):
        br = best_response(np.array([0.2, 0.9, 0.9]), tau=0.0)
        assert np.array_equal(br, [0.0, 1.0, 0.0])

    def test_argmax_invariant_across_tau(self, rng):
        r = rng.uniform(size=9)
        for tau in (1e-3, 1e-1, 1.0, 10.0):
            assert np.argmax(best_response(r, tau)) == np.argmax(r)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            best_response(np.ones(2), tau=-0.1)

    def test_soft_maximum_vs_dense_grid(self, rng):
        # Value of the regularized inner maximization against a 1e5-point grid.
        r = rng.uniform(size=2)
        tau = 1e-2
        p = np.linspace(0.0, 1.0, 100_001)
        rows = np.column_stack([p, 1.0 - p])
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(rows > 0, rows * np.log(np.where(rows > 0, rows, 1.0)), 0.0)
        values = rows @ r - tau * plogp.sum(axis=1)
        assert soft_maximum(r, tau) == pytest.approx(float(values.max()), abs=1e-6)


class TestRegularizedValues:
    def test_zero_tau_reduces_to_utility(self, rng):
        game = random_small_game(rng)
        pol = random_policy(rng, game.num_agents, game.num_actions)
        assert regularized_utility(game, 0, pol, 0.0) == expected_utility(game, 0, pol)

    def test_uniform_adds_log_actions(self):
        game = make_identical_interest(2, 5, seed=3)
        pol = uniform_policy(2, 5)
        base = expected_utility(game, 0, pol)
        assert regularized_utility(game, 0, pol, 0.3) == pytest.approx(
            base + 0.3 * math.log(5), abs=1e-12
        )

    def test_inner_product_cross_check(self, rng):
        game = random_small_game(rng)
        pol = random_policy(rng, game.num_agents, game.num_actions)
        tau = 0.7
        for i in range(game.num_agents):
            r = marginalized_utility(game, i, pol)
            via_r = float(np.dot(r, pol.probs[i])) + tau * entropy(pol.probs[i])
            assert regularized_utility(game, i, pol, tau) == pytest.approx(via_r, abs=1e-12)

    def test_potential_uniform(self):
        from inpg.game import expected_potential

        game = make_general_potential(3, 4, seed=6)
        pol = uniform_policy(3, 4)
        assert regularized_potential(game, pol, 0.2) == pytest.approx(
            expected_potential(game, pol) + 0.2 * 3 * math.log(4), abs=1e-12
        )
        assert regularized_potential(game, pol, 0.0) == expected_potential(game, pol)

    def test_unilateral_deviation_identity(self, rng):
        # Regularized potential and regularized utility move together under
        # one agent's deviation.
        game = make_general_potential(3, 3, seed=21)
        tau = 0.15
        for _ in range(5):
            pol = random_policy(rng, 3, 3)
            for i in range(3):
                lp = pol.log_probs.copy()
                lp[i] = random_policy(rng, 1, 3).log_probs[0]
                dev = JointPolicy(lp)
                du = regularized_utility(game, i, dev, tau) - regularized_utility(game, i, pol, tau)
                dphi = regularized_potential(game, dev, tau) - regularized_potential(game, pol, tau)
                assert du == pytest.approx(dphi, abs=1e-10)


class TestQreGap:
    def _fixed_point(self, game, tau, iters=300):
        pol = uniform_policy(game.num_agents, game.num_actions)
        for _ in range(iters):
            r = marginalized_utilities(game, pol)
            pol = JointPolicy(np.vstack([best_response_logs(r[i], tau) for i in range(game.num_agents)]))
        return pol

    def test_zero_at_fixed_point(self):
        game = make_general_potential(2, 4, seed=8)
        tau = 1.0
        pol = self._fixed_point(game, tau)
        r = marginalized_utilities(game, pol)
        for i in range(game.num_agents):
            assert np.max(np.abs(pol.probs[i] - best_response(r[i], tau))) < 1e-12
        assert qre_gap(game, pol, tau) <= 1e-10

    def test_single_agent_matches_grid(self, rng):
        game = make_identical_interest(1, 3, seed=9)
        pol = random_policy(rng, 1, 3)
        tau = 0.8
        closed = qre_gap(game, pol, tau)
        grid = grid_gap(game, 0, pol, tau, grid_resolution=1e-3)
        assert closed == pytest.approx(grid, abs=1e-6)
        assert grid <= closed + 1e-12  # grid search can only undershoot

    def test_per_agent_term_is_tau_kl_to_best_response(self, rng):
        for _ in range(10):
            game = random_small_game(rng)
            pol = random_policy(rng, game.num_agents, game.num_actions)
            tau = float(rng.uniform(0.05, 2.0))
            r = marginalized_utilities(game, pol)
            values = policy_values(r, pol.probs)
            h = row_entropies(pol.probs, pol.log_probs)
            terms = qre_gap_terms(r, r.max(axis=-1), values, h, tau)
            for i in range(game.num_agents):
                br = best_response(r[i], tau)
                assert terms[i] == pytest.approx(tau * kl(pol.probs[i], br), abs=1e-10)

    def test_requires_positive_tau(self, rng):
        game = random_small_game(rng)
        with pytest.raises(ValueError):
            qre_gap(game, uniform_policy(game.num_agents, game.num_actions), 0.0)

    def test_nonnegative(self, rng):
        game = random_small_game(rng)
        pol = random_policy(rng, game.num_agents, game.num_actions)
        assert qre_gap(game, pol, 0.5) >= 0.0


class TestNeGap:
    def test_zero_at_potential_argmax(self):
        game = make_identical_interest(3, 4, seed=10)
        joint = np.unravel_index(np.argmax(game.potential), game.joint_shape)
        lp = np.vstack([point_mass_row(4, a) for a in joint])
        pol = JointPolicy(lp)
        assert ne_gap(game, pol) <= 1e-12

    def test_matches_pure_deviation_oracle(self, rng):
        for _ in range(10):
            game = random_small_game(rng)
            pol = random_policy(rng, game.num_agents, game.num_actions)
            got = ne_gap(game, pol)
            best = 0.0
            for i in range(game.num_agents):
                current = expected_utility(game, i, pol)
                for a in range(game.num_actions):
                    lp = pol.log_probs.copy()
                    lp[i] = point_mass_row(game.num_actions, a)
                    best = max(best, expected_utility(game, i, JointPolicy(lp)) - current)
            assert got == pytest.approx(best, abs=1e-12)

    def test_sandwich_against_qre_gap(self, rng):
        for _ in range(10):
            game = random_small_game(rng)
            pol = random_policy(rng, game.num_agents, game.num_actions)
            tau = float(rng.uniform(0.01, 1.0))
            assert ne_gap(game, pol) <= qre_gap(game, pol, tau) + tau * math.log(
                game.num_actions
            ) + 1e-10

    def test_nonnegative_terms(self, rng):
        game = random_small_game(rng)
        pol = random_policy(rng, game.num_agents, game.num_actions)
        r = marginalized_utilities(game, pol)
        assert np.all(ne_gap_terms(r.max(axis=-1), policy_values(r, pol.probs)) >= 0.0)


class TestMarginalLipschitz:
    def test_r_changes_bounded_by_jeffrey(self, rng):
        # Marginalized utilities move at most sqrt(J) when the joint policy moves.
        for _ in range(25):
            game = random_small_game(rng)
            p = random_policy(rng, game.num_agents, game.num_actions)
            q = random_policy(rng, game.num_agents, game.num_actions)
            bound = math.sqrt(jeffrey(p, q))
            rp = marginalized_utilities(game, p)
            rq = marginalized_utilities(game, q)
            assert float(np.max(np.abs(rp - rq))) <= bound + 1e-12


class TestBestResponseDistance:
    def test_uniform_bound(self, rng):
        # From uniform, the log-distance to any best response is at most 2/tau.
        game = random_small_game(rng)
        pol = uniform_policy(game.num_agents, game.num_actions)
        r = marginalized_utilities(game, pol)
        for tau in (0.01, 0.1, 1.0):
            assert best_response_log_distance(pol.log_probs, r, tau) <= 2.0 / tau
