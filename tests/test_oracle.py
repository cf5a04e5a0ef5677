import numpy as np
import pytest

from inpg.dynamics import npg_step
from inpg.game import make_general_potential, make_identical_interest
from inpg.metrics import marginalized_utility, ne_gap_terms, marginalized_utilities, policy_values
from inpg.policy import JointPolicy, SoftmaxParams, row_entropies, softmax, uniform_policy

from conftest import random_policy
from oracle import (
    OracleError,
    OracleScaleError,
    _pinv_eigh,
    analytic_theta_gradient,
    fd_theta_gradient,
    fisher_matrix,
    fisher_npg_step,
    grid_gap,
    naive_marginal,
)


def point_mass_row(num_actions, action):
    row = np.full(num_actions, -1e4)
    row[action] = 0.0
    return row


class TestNaiveMarginal:
    def test_point_mass_opponent(self):
        game = make_general_potential(2, 3, seed=1)
        pol = JointPolicy(np.vstack([point_mass_row(3, 1), uniform_policy(1, 3).log_probs[0]]))
        r = naive_marginal(game, 1, pol)
        assert np.allclose(r, game.utilities[1][1, :], atol=1e-15)

    def test_uniform_opponent_row_mean(self):
        game = make_general_potential(2, 4, seed=2)
        r = naive_marginal(game, 0, uniform_policy(2, 4))
        assert np.allclose(r, game.utilities[0].mean(axis=1), atol=1e-14)

    def test_agrees_with_production_sweep(self, rng):
        game = make_general_potential(3, 4, seed=3)
        pol = random_policy(rng, 3, 4)
        for i in range(3):
            assert np.allclose(
                naive_marginal(game, i, pol),
                marginalized_utility(game, i, pol),
                atol=1e-12,
            )

    def test_scale_cap(self):
        game = make_identical_interest(4, 4, seed=0)
        with pytest.raises(OracleScaleError):
            naive_marginal(game, 0, uniform_policy(4, 4))


class TestThetaGradient:
    def test_analytic_vs_finite_difference(self, rng):
        for trial in range(20):
            n = int(rng.integers(1, 4))
            a = int(rng.integers(2, 5))
            game = make_general_potential(n, a, seed=trial)
            params = SoftmaxParams(rng.normal(size=(n, a)))
            pol = softmax(params)
            tau = float(rng.choice([0.0, 0.1, 1.0]))
            for i in range(n):
                r = naive_marginal(game, i, pol)
                grad = analytic_theta_gradient(r, pol.log_probs[i], tau)
                grad_fd = fd_theta_gradient(game, i, params, tau)
                scale = max(float(np.max(np.abs(grad))), 1e-12)
                assert float(np.max(np.abs(grad - grad_fd))) / scale <= 1e-5

    def test_gradient_sums_to_zero(self, rng):
        # Shift invariance of the softmax makes logit gradients mean-free.
        r = rng.uniform(size=5)
        lp = random_policy(rng, 1, 5).log_probs[0]
        grad = analytic_theta_gradient(r, lp, tau=0.3)
        assert abs(grad.sum()) < 1e-14


class TestFisherStep:
    def test_matches_multiplicative_update(self, rng):
        game = make_general_potential(2, 3, seed=7)
        params = SoftmaxParams(rng.normal(size=(2, 3)))
        ours = npg_step(game, softmax(params), eta=0.1, tau=0.5)
        fisher = fisher_npg_step(game, params, eta=0.1, tau=0.5)
        assert float(np.max(np.abs(ours.probs - fisher.probs))) <= 1e-6

    def test_constant_payoff_unregularized_is_stationary(self):
        from inpg.game import PotentialGame

        phi = np.full((3, 3), 0.5)
        game = PotentialGame(num_agents=2, num_actions=3, potential=phi,
                             dummies=(), phi_max=1.0)
        params = SoftmaxParams(np.array([[0.4, -0.2, 0.0], [1.0, 0.0, -1.0]]))
        stepped = fisher_npg_step(game, params, eta=0.1, tau=0.0)
        assert np.allclose(stepped.probs, softmax(params).probs, atol=1e-12)

    def test_scale_cap(self):
        game = make_identical_interest(4, 3, seed=0)
        with pytest.raises(OracleScaleError):
            fisher_npg_step(game, SoftmaxParams(np.zeros((4, 3))), eta=0.1, tau=0.1)

    def test_pseudo_inverse_centers(self, rng):
        # F+ F is the projector that removes the mean: the all-ones direction
        # is the Fisher matrix's null space.
        pi = rng.dirichlet(np.ones(5))
        f = fisher_matrix(pi)
        proj = _pinv_eigh(f) @ f
        centering = np.eye(5) - np.full((5, 5), 0.2)
        assert np.allclose(proj, centering, atol=1e-10)


class TestGridGap:
    def test_zero_tau_max_at_vertex_matches_ne_term(self, rng):
        game = make_general_potential(2, 2, seed=9)
        pol = random_policy(rng, 2, 2)
        r = marginalized_utilities(game, pol)
        terms = ne_gap_terms(r.max(axis=-1), policy_values(r, pol.probs))
        for agent in range(2):
            gg = grid_gap(game, agent, pol, tau=0.0, grid_resolution=0.25)
            # linear objective: even a coarse grid nails the vertex maximum
            assert gg == pytest.approx(terms[agent], abs=1e-12)

    def test_gap_at_best_response_within_slack(self):
        from inpg.metrics import best_response_logs

        game = make_general_potential(2, 3, seed=10)
        tau = 1.0
        pol = uniform_policy(2, 3)
        for _ in range(200):
            r = marginalized_utilities(game, pol)
            pol = JointPolicy(np.vstack([best_response_logs(r[i], tau) for i in range(2)]))
        gg = grid_gap(game, 0, pol, tau=tau, grid_resolution=1e-3)
        # the grid can undershoot the interior optimum by the spacing-induced slack
        assert abs(gg) <= 1e-5

    def test_three_action_grid(self, rng):
        from inpg.metrics import qre_gap_terms

        game = make_general_potential(2, 3, seed=11)
        pol = random_policy(rng, 2, 3)
        tau = 1.0
        r = marginalized_utilities(game, pol)
        values = policy_values(r, pol.probs)
        h = row_entropies(pol.probs, pol.log_probs)
        closed = qre_gap_terms(r, r.max(axis=-1), values, h, tau)[0]
        gg = grid_gap(game, 0, pol, tau=tau, grid_resolution=1e-3)
        assert gg <= closed + 1e-12
        assert closed - gg <= 1e-4

    def test_four_actions_rejected(self):
        game = make_general_potential(2, 4, seed=12)
        with pytest.raises(OracleScaleError):
            grid_gap(game, 0, uniform_policy(2, 4), tau=0.5, grid_resolution=1e-2)


def test_oracle_error_is_assertion_like():
    assert issubclass(OracleError, AssertionError)
