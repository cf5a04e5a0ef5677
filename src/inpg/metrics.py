"""Measurement layer: marginalized utilities, best responses, equilibrium gaps.

The marginalized utility r_i is agent i's expected payoff per own action with
all opponents integrated out under the current policy. The dynamics compute
every metric of a joint policy exactly from one sweep of the potential
(`marginal_sweep`, which alone picks the sweep's kernel and its input cut),
whose rows equal r_i up to a constant per agent. The inner maximizations in
the gaps have closed forms: a linear function over the simplex peaks at a
vertex (NE-gap), and the entropy-regularized linear objective peaks at the
softmax of r/tau with optimal value tau*logsumexp(r/tau) (QRE-gap).
"""

from __future__ import annotations

import numpy as np

from . import _contract
from .game import PotentialGame, _check_policy_dims, expected_potential, expected_utility
from .policy import JointPolicy, normalize_logs, row_entropies


def marginalized_utility(game: PotentialGame, agent: int, policy: JointPolicy) -> np.ndarray:
    """r_i(a) = E_{a_-i ~ pi_-i} u_i(a, a_-i), exact enumeration. Entries lie in [0, 1]."""
    _check_policy_dims(game, policy)
    return _contract.fold_except(game.utility(agent), list(policy.probs), agent)


def marginal_sweep(potentials: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every agent's potential marginal plus the expected potential, in one sweep per run.

    potentials: K potentials of one shape stacked on a leading axis, or a
    single one (a leading axis of length 1) that every policy reads; probs:
    (K, N, A) policy rows. Returns (r, phi_mean) of shapes (K, N, A) and (K,).
    Row r[k, i] is run k's Phi with every agent but i integrated out: in a
    potential game it differs from agent i's marginalized utility by a
    constant, which the updates, the simplex projection and both gaps ignore.

    This is the one place that decides how a sweep runs: probabilities below
    `_contract.CUT` are read as 0, which keeps every bit (see CUT), and a single
    potential under K > 1 policies takes `fold_shared`, anything else
    `fold_all_agents`.
    """
    cut = _contract.CUT
    if not np.minimum.reduce(probs, axis=None) >= cut:  # one call where none is cut
        probs = np.where(probs < cut, 0.0, probs)
    if len(potentials) == 1 < len(probs):
        return _contract.fold_shared(potentials[0], probs)
    return _contract.fold_all_agents(potentials, probs)


def marginalized_utilities(game: PotentialGame, policy: JointPolicy) -> np.ndarray:
    """Marginalized utilities for every agent, shape (num_agents, num_actions)."""
    return np.stack([marginalized_utility(game, i, policy) for i in range(game.num_agents)])


def best_response_logs(r: np.ndarray, tau: float) -> np.ndarray:
    """Log-probabilities of the regularized best response, softmax(r / tau). Requires tau > 0."""
    if tau <= 0:
        raise ValueError("best_response_logs requires tau > 0")
    return normalize_logs(np.asarray(r, dtype=np.float64) / tau)


def best_response(r: np.ndarray, tau: float) -> np.ndarray:
    """Best-response probability row for marginalized utility r.

    tau > 0: proportional to exp(r/tau). tau = 0: point mass on the argmax,
    ties broken toward the lowest action index.
    """
    r = np.asarray(r, dtype=np.float64)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau == 0.0:
        out = np.zeros_like(r)
        out[int(np.argmax(r))] = 1.0  # np.argmax returns the first maximizer
        return out
    return np.exp(best_response_logs(r, tau))


def regularized_utility(game: PotentialGame, agent: int, policy: JointPolicy, tau: float) -> float:
    """u_i(pi) + tau * H(pi_i)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    h = row_entropies(policy.probs[agent], policy.log_probs[agent])
    return expected_utility(game, agent, policy) + tau * float(h)


def regularized_potential(game: PotentialGame, policy: JointPolicy, tau: float) -> float:
    """Phi(pi) + tau * sum_i H(pi_i)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    h = row_entropies(policy.probs, policy.log_probs)
    return expected_potential(game, policy) + tau * float(np.sum(h))


def policy_values(r: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per-agent <r_i, pi_i>: each agent's expected marginal under its own policy."""
    return np.add.reduce(r * probs, axis=-1)


def ne_gap_terms(best: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-agent unregularized improvement: max_a r_i(a) - <r_i, pi_i>. Clamped at 0.

    best: r.max(axis=-1); values: policy_values(r, probs).
    """
    return np.maximum(best - values, 0.0)


def qre_gap_terms(
    r: np.ndarray, best: np.ndarray, values: np.ndarray, entropies: np.ndarray, tau: float
) -> np.ndarray:
    """Per-agent regularized improvement: tau*LSE(r_i/tau) - <r_i, pi_i> - tau*H(pi_i).

    best: r.max(axis=-1), the shift of the log-sum-exp; values: policy_values(r,
    probs); entropies: row_entropies(probs, log_probs). tau > 0 is a float, or an
    array of temperatures that broadcasts against best (shape (K, 1) gives each
    of K runs its own); it is not checked here. Equals tau * KL(pi_i ||
    best_response(r_i, tau)). Clamped at 0 against rounding in the cancellation
    near a fixed point.
    """
    tau_r = np.asarray(tau)[..., None]  # against r
    soft_max = best + tau * np.log(np.add.reduce(np.exp((r - best[..., None]) / tau_r), axis=-1))
    return np.maximum(soft_max - (values + tau * entropies), 0.0)


def ne_gap(game: PotentialGame, policy: JointPolicy) -> float:
    """Largest utility any agent can gain by a unilateral deviation; 0 exactly at an NE."""
    r = marginalized_utilities(game, policy)
    return float(np.max(ne_gap_terms(r.max(axis=-1), policy_values(r, policy.probs))))


def qre_gap(game: PotentialGame, policy: JointPolicy, tau: float) -> float:
    """Largest regularized-utility gain available to any agent; 0 exactly at the QRE."""
    if not tau > 0:
        raise ValueError("qre_gap requires tau > 0")
    r = marginalized_utilities(game, policy)
    probs = policy.probs
    h = row_entropies(probs, policy.log_probs)
    return float(np.max(qre_gap_terms(r, r.max(axis=-1), policy_values(r, probs), h, tau)))


def best_response_log_distance(log_probs: np.ndarray, r: np.ndarray, tau: float) -> float:
    """max_i ||log pi_i - log best_response(r_i, tau)||_inf."""
    return float(np.max(np.abs(log_probs - best_response_logs(r, tau))))
