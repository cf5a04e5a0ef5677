"""Brute-force and first-principles oracles used by the test suite.

Everything here is intentionally naive and capped to small instances: a
nested-loop marginalized utility, the preconditioned-gradient update done the
long way (explicit Fisher matrix, eigendecomposition pseudo-inverse, and a
finite-difference cross-check of the analytic gradient), and dense simplex
grid search for the gap maximizations. Production code paths must agree with
these within the tolerances asserted by the tests.
"""

from __future__ import annotations

import itertools

import numpy as np

from inpg.game import PotentialGame, expected_utility
from inpg.policy import JointPolicy, SoftmaxParams, entropy, softmax

ORACLE_MAX_AGENTS = 3
ORACLE_MAX_ACTIONS = 16
GRID_MAX_ACTIONS = 3

FD_STEP = 1e-6
GRADIENT_RTOL = 1e-5
GRADIENT_ATOL = 1e-9  # central-difference noise floor at FD_STEP in double precision
PINV_EIGENVALUE_CUTOFF = 1e-12


class OracleScaleError(ValueError):
    """Instance too large for a brute-force oracle."""


class OracleError(AssertionError):
    """Internal cross-check of an oracle failed."""


def _check_scale(game: PotentialGame) -> None:
    if game.num_agents > ORACLE_MAX_AGENTS or game.num_actions > ORACLE_MAX_ACTIONS:
        raise OracleScaleError(
            f"oracle limited to N <= {ORACLE_MAX_AGENTS}, |A| <= {ORACLE_MAX_ACTIONS}; "
            f"got N = {game.num_agents}, |A| = {game.num_actions}"
        )


def naive_marginal(game: PotentialGame, agent: int, policy: JointPolicy) -> np.ndarray:
    """Defining sum of the marginalized utility, one opponent profile at a time."""
    _check_scale(game)
    probs = policy.probs
    opponents = [j for j in range(game.num_agents) if j != agent]
    u = game.utility(agent)
    r = np.zeros(game.num_actions)
    for profile in itertools.product(range(game.num_actions), repeat=len(opponents)):
        weight = 1.0
        for j, a_j in zip(opponents, profile):
            weight *= probs[j, a_j]
        idx = list(profile)
        idx.insert(agent, slice(None))
        r += weight * u[tuple(idx)]
    return r


def analytic_theta_gradient(r: np.ndarray, log_pi: np.ndarray, tau: float) -> np.ndarray:
    """Gradient of the regularized utility in an agent's logits.

    With g = r - tau * log pi, the gradient is diag(pi) (g - <pi, g> 1); the
    inner product term covers both the mean payoff and the entropy's own
    dependence on the logits.
    """
    pi = np.exp(log_pi)
    g = r - tau * log_pi
    return pi * (g - float(np.dot(pi, g)))


def fd_theta_gradient(
    game: PotentialGame, agent: int, params: SoftmaxParams, tau: float, step: float = FD_STEP
) -> np.ndarray:
    """Central finite differences of the regularized utility through the full game tensor."""
    _check_scale(game)

    def value(theta: np.ndarray) -> float:
        pol = softmax(SoftmaxParams(theta))
        h = entropy(pol.probs[agent])
        return expected_utility(game, agent, pol) + tau * h

    grad = np.zeros(game.num_actions)
    for a in range(game.num_actions):
        up = params.theta.copy()
        down = params.theta.copy()
        up[agent, a] += step
        down[agent, a] -= step
        grad[a] = (value(up) - value(down)) / (2.0 * step)
    return grad


def fisher_matrix(pi: np.ndarray) -> np.ndarray:
    """Fisher information of a softmax row: diag(pi) - pi pi^T (singular along the all-ones direction)."""
    return np.diag(pi) - np.outer(pi, pi)


def _pinv_eigh(mat: np.ndarray, cutoff: float = PINV_EIGENVALUE_CUTOFF) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    inv_w = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return (v * inv_w) @ v.T


def fisher_npg_step(
    game: PotentialGame, params: SoftmaxParams, eta: float, tau: float
) -> JointPolicy:
    """Preconditioned gradient step done explicitly in logit space.

    For each agent: form the Fisher matrix, compute the regularized-utility
    gradient both analytically and by finite differences (they must agree to
    GRADIENT_RTOL relative, else OracleError), apply the pseudo-inverse via
    eigendecomposition, and step the logits. The returned policy must match
    the multiplicative update up to softmax shift invariance.
    """
    _check_scale(game)
    policy = softmax(params)
    theta_new = params.theta.copy()
    for i in range(game.num_agents):
        log_pi = policy.log_probs[i]
        pi = np.exp(log_pi)
        r = naive_marginal(game, i, policy)
        grad = analytic_theta_gradient(r, log_pi, tau)
        grad_fd = fd_theta_gradient(game, i, params, tau)
        tol = GRADIENT_RTOL * float(np.max(np.abs(grad))) + GRADIENT_ATOL
        if float(np.max(np.abs(grad - grad_fd))) > tol:
            raise OracleError(
                f"agent {i}: analytic and finite-difference gradients disagree: "
                f"{grad} vs {grad_fd}"
            )
        theta_new[i] = params.theta[i] + eta * (_pinv_eigh(fisher_matrix(pi)) @ grad)
    return softmax(SoftmaxParams(theta_new))


def _simplex_grid(num_actions: int, resolution: float) -> np.ndarray:
    """Barycentric grid with spacing `resolution` covering the simplex, vertices included."""
    m = max(int(round(1.0 / resolution)), 1)
    if num_actions == 2:
        p = np.arange(m + 1) / m
        return np.column_stack([p, 1.0 - p])
    if num_actions == 3:
        ii, jj = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
        keep = (ii + jj) <= m
        w1 = ii[keep] / m
        w2 = jj[keep] / m
        return np.column_stack([w1, w2, 1.0 - w1 - w2])
    raise OracleScaleError(f"dense simplex grid limited to |A| <= {GRID_MAX_ACTIONS}")


def grid_gap(
    game: PotentialGame, agent: int, policy: JointPolicy, tau: float, grid_resolution: float
) -> float:
    """Gap for one agent by grid search over its deviation simplex.

    Maximizes <r_i, w> + tau*H(w) over grid rows w and subtracts the agent's
    current regularized utility. Lower-bounds the closed-form gap by at most
    the grid-spacing-induced slack.
    """
    _check_scale(game)
    grid = _simplex_grid(game.num_actions, grid_resolution)
    r = naive_marginal(game, agent, policy)
    values = grid @ r
    if tau > 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(grid > 0.0, grid * np.log(np.where(grid > 0.0, grid, 1.0)), 0.0)
        values = values + tau * (-np.sum(plogp, axis=1))
    pi = policy.probs[agent]
    current = float(np.dot(r, pi)) + tau * entropy(pi)
    return float(np.max(values)) - current
