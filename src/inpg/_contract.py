"""Dense tensor contraction kernels shared by the game and metrics layers.

A joint tensor has one axis per agent (agent 0 is the slowest-varying axis in
the row-major flat layout). Contracting an axis with that agent's probability
vector takes the expectation over that agent's action. There are two fold
steps, each one 2-D matrix-vector product on a C-contiguous view: the first
axis folds as `p.dot(T.reshape(A, -1))`, the last as `T.reshape(-1, A).dot(p)`.
(`ndarray.dot` reaches the same BLAS routine as `@` at a lower cost per call.)
Every contraction folds in a fixed order (the last axes from agent N-1 down,
the first axes from agent 0 up), and a tensor is made C-contiguous before its
first fold, so results are bit-reproducible for a given input and do not
depend on the input's memory layout.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def _fold_first(tensor: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Contract the first axis with p."""
    return p.dot(tensor.reshape(len(p), -1)).reshape(tensor.shape[1:])


def _fold_last(tensor: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Contract the last axis with p."""
    return tensor.reshape(-1, len(p)).dot(p).reshape(tensor.shape[:-1])


def _fold_suffix(tensor: np.ndarray, probs: Sequence[np.ndarray], stop: int) -> np.ndarray:
    """Contract the last axes, agents len(probs)-1 down to stop+1, one at a time."""
    for j in range(len(probs) - 1, stop, -1):
        tensor = _fold_last(tensor, probs[j])
    return tensor


def fold_all(tensor: np.ndarray, probs: Sequence[np.ndarray]) -> float:
    """Full expectation: contract every axis with the matching probability vector."""
    return float(_fold_suffix(np.ascontiguousarray(tensor), probs, -1))


def fold_except(tensor: np.ndarray, probs: Sequence[np.ndarray], keep: int) -> np.ndarray:
    """Contract every axis except `keep`; returns a vector indexed by agent `keep`'s action."""
    out = _fold_suffix(np.ascontiguousarray(tensor), probs, keep)
    for j in range(keep):
        out = _fold_first(out, probs[j])
    return out


def fold_all_agents(tensor: np.ndarray, probs: Sequence[np.ndarray]) -> tuple[np.ndarray, float]:
    """All leave-one-out contractions of a single shared tensor, plus the full expectation.

    Reuses prefix contractions (agents 0..i-1 folded) across agents, so only two
    folds read the whole tensor: the first prefix and agent 0's first suffix
    fold. Returns (marginals, mean) where marginals[i] is fold_except(tensor,
    probs, i) up to rounding.
    """
    num_agents = tensor.ndim
    prefixes = [np.ascontiguousarray(tensor)]
    for j in range(num_agents - 1):
        prefixes.append(_fold_first(prefixes[-1], probs[j]))
    marginals = np.empty((num_agents, tensor.shape[0]), dtype=np.float64)
    for i in range(num_agents):
        marginals[i] = _fold_suffix(prefixes[i], probs, i)
    mean = float(_fold_last(prefixes[-1], probs[num_agents - 1]))
    return marginals, mean
