"""Product-form joint policies stored in log space, plus simplex geometry.

A joint policy is one probability vector per agent over the shared action set,
kept as log-probabilities. Multiplicative policy updates become affine
recursions in log space and cannot underflow to exact zeros, which keeps
entropies and divergences well defined throughout long runs. Probabilities are
floored (at PROB_FLOOR) only when serialized for display.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Floor applied to probabilities at serialization/display only; dynamics never clip.
PROB_FLOOR = 1e-300

_NORMALIZATION_TOL = 1e-12


def logsumexp(x: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """Max-shifted log(sum(exp(x))) along an axis."""
    m = np.maximum.reduce(x, axis=axis, keepdims=True)
    out = m + np.log(np.add.reduce(np.exp(x - m), axis=axis, keepdims=True))
    return out if keepdims else out.squeeze(axis=axis)


def normalize_logs(logits: np.ndarray) -> np.ndarray:
    """Shift rows of logits so each row is a normalized log-probability vector."""
    return logits - logsumexp(logits, axis=-1, keepdims=True)


@dataclass(frozen=True)
class JointPolicy:
    """Product policy: log_probs has shape (num_agents, num_actions), rows normalized."""

    log_probs: np.ndarray

    def __post_init__(self):
        lp = self.log_probs
        if lp.ndim != 2:
            raise ValueError(f"log_probs must be 2-D (agents x actions), got shape {lp.shape}")
        if not np.all(np.isfinite(lp)):
            raise ValueError("log_probs must be finite (policies are strictly positive)")
        norms = logsumexp(lp, axis=-1)
        if np.max(np.abs(norms)) > _NORMALIZATION_TOL:
            raise ValueError(f"rows not normalized: max |logsumexp| = {np.max(np.abs(norms)):g}")
        lp.setflags(write=False)

    @property
    def num_agents(self) -> int:
        return self.log_probs.shape[0]

    @property
    def num_actions(self) -> int:
        return self.log_probs.shape[1]

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    @classmethod
    def from_logits(cls, logits: np.ndarray) -> "JointPolicy":
        return cls(normalize_logs(np.asarray(logits, dtype=np.float64)))

    @classmethod
    def from_probs(cls, rows: np.ndarray) -> "JointPolicy":
        """Build from probability rows; entries are floored at PROB_FLOOR before the log."""
        p = np.maximum(np.asarray(rows, dtype=np.float64), PROB_FLOOR)
        return cls(normalize_logs(np.log(p)))


@dataclass(frozen=True)
class SoftmaxParams:
    """Unconstrained logits, one row per agent."""

    theta: np.ndarray

    def __post_init__(self):
        if self.theta.ndim != 2:
            raise ValueError(f"theta must be 2-D (agents x actions), got shape {self.theta.shape}")
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("theta must be finite")


def uniform_policy(num_agents: int, num_actions: int) -> JointPolicy:
    if num_agents < 1 or num_actions < 1:
        raise ValueError("num_agents and num_actions must be positive")
    lp = np.full((num_agents, num_actions), -np.log(num_actions), dtype=np.float64)
    return JointPolicy(lp)


def softmax(params: SoftmaxParams) -> JointPolicy:
    """pi_i(a) = exp(theta_i(a)) / sum_a' exp(theta_i(a')), via max-shifted normalization."""
    return JointPolicy.from_logits(params.theta)


def entropy(row: np.ndarray) -> float:
    """Shannon entropy -sum p log p of a probability row; 0 log 0 = 0."""
    p = np.asarray(row, dtype=np.float64)
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return float(-np.sum(terms))


def row_entropies(probs: np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    """Entropy of each row of a policy given as its probabilities and their logs.

    probs must be np.exp(log_probs): the caller holds both, so neither is recomputed.
    """
    return -np.add.reduce(probs * log_probs, axis=-1)


def kl(p_row: np.ndarray, q_row: np.ndarray) -> float:
    """KL(p || q) for probability rows; q must be strictly positive where p > 0.

    Sums p log(p/q) - p + q, nonnegative per entry, so nearby rows do not cancel to 0.
    """
    p = np.asarray(p_row, dtype=np.float64)
    q = np.asarray(q_row, dtype=np.float64)
    mask = p > 0.0
    d = (p[mask] - q[mask]) / q[mask]  # p/q - 1, without the rounding of p/q
    return max(float(np.sum(q[mask] * ((1.0 + d) * np.log1p(d) - d)) + np.sum(q[~mask])), 0.0)


def jeffrey_logs(p: np.ndarray, lp: np.ndarray, q: np.ndarray, lq: np.ndarray) -> np.ndarray:
    """Symmetrized KL summed over the last two axes (agents, actions) of two policies.

    p and q are the probabilities, lp and lq their logs (p must be np.exp(lp)
    and q np.exp(lq)); leading axes index independent runs. Computed
    elementwise as (p - q)(log p - log q) >= 0, so rounding can never make the
    result negative.
    """
    return np.add.reduce((p - q) * (lp - lq), axis=(-2, -1))


def jeffrey(p: JointPolicy, q: JointPolicy) -> float:
    """Jeffrey divergence of two product policies: sum_i [KL(p_i||q_i) + KL(q_i||p_i)]."""
    if p.log_probs.shape != q.log_probs.shape:
        raise ValueError("policies have different shapes")
    return float(jeffrey_logs(p.probs, p.log_probs, q.probs, q.log_probs))


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row (last axis) of v onto the probability simplex.

    Sort-based algorithm: with u = sorted(v) descending and c_k = (sum_{j<=k} u_j - 1)/k,
    the threshold is c_rho for the largest rho with u_rho > c_rho, and the projection
    is max(v - c_rho, 0). Exact up to floating point; output rows can contain zeros.
    A 1-D v is one row and gives a (1, n) result.
    """
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    rows = v.reshape(-1, v.shape[-1])
    n = rows.shape[1]
    u = np.sort(rows, axis=1)[:, ::-1]
    cssv = (np.cumsum(u, axis=1) - 1.0) / np.arange(1, n + 1)
    rho = np.add.reduce(u > cssv, axis=1, dtype=np.intp)  # count_nonzero, without its wrapper
    theta = cssv[np.arange(rows.shape[0]), rho - 1]
    return np.maximum(rows - theta[:, None], 0.0).reshape(v.shape)


def policy_to_csv(policy: JointPolicy, path) -> None:
    """One row per agent, probabilities floored at PROB_FLOOR, 17 significant digits."""
    probs = np.maximum(policy.probs, PROB_FLOOR)
    with open(path, "w") as f:
        f.write("\n".join(",".join(format(p, ".17g") for p in row) for row in probs) + "\n")


def policy_from_csv(path) -> JointPolicy:
    with open(path) as f:
        rows = [[float(tok) for tok in line.split(",")] for line in f if line.strip()]
    return JointPolicy.from_probs(np.array(rows, dtype=np.float64))
