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

`fold_all_agents` sweeps K independent runs at once: tensors and policies
carry a leading batch axis, and each fold step is one stacked `np.matmul` of
the K matrix-vector products. numpy hands each slice to the same BLAS
routine as `ndarray.dot`, so every run's bits equal its solo sweep's; at
K = 1 the solo kernel runs, because one stacked call costs more per call.
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


def _fold_suffix(tensor: np.ndarray, probs: Sequence[np.ndarray], stop: int,
                 fold_last=_fold_last) -> np.ndarray:
    """Contract the last axes, agents len(probs)-1 down to stop+1, one at a time."""
    for j in range(len(probs) - 1, stop, -1):
        tensor = fold_last(tensor, probs[j])
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


def _batch_first(tensor: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Contract axis 1 of each run's tensor (K, A, ...) with its row of p (K, A)."""
    k, a = p.shape
    return np.matmul(p[:, None, :], tensor.reshape(k, a, -1)).reshape((k,) + tensor.shape[2:])


def _batch_last(tensor: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Contract the last axis of each run's tensor (K, ..., A) with its row of p (K, A)."""
    k, a = p.shape
    return np.matmul(tensor.reshape(k, -1, a), p[:, :, None]).reshape(tensor.shape[:-1])


def fold_all_agents(tensors: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All leave-one-out contractions of each run's tensor, plus its full expectation.

    tensors: K tensors of one shape stacked on a leading axis; probs: (K, N, A),
    run k's policy rows. Reuses prefix contractions (agents 0..i-1 folded)
    across agents, so only two folds read a whole tensor: the first prefix and
    agent 0's first suffix fold. Returns (marginals, means) of shapes (K, N, A)
    and (K,), where marginals[k, i] is fold_except(tensors[k], probs[k], i) up
    to rounding.
    """
    k, num_agents, _ = probs.shape
    marginals = np.empty(probs.shape, dtype=np.float64)
    if k == 1:
        first, last, tensor = _fold_first, _fold_last, tensors[0]
        rows, out = list(probs[0]), marginals[0]
    else:
        first, last, tensor = _batch_first, _batch_last, tensors
        rows, out = list(probs.swapaxes(0, 1)), marginals.swapaxes(0, 1)  # indexed by agent
    prefixes = [np.ascontiguousarray(tensor)]
    for j in range(num_agents - 1):
        prefixes.append(first(prefixes[-1], rows[j]))
    for i in range(num_agents):
        out[i] = _fold_suffix(prefixes[i], rows, i, last)
    return marginals, last(prefixes[-1], rows[-1]).reshape(k)
