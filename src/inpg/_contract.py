"""Dense tensor contraction kernels shared by the game and metrics layers.

A joint tensor has one axis per agent (agent 0 is the slowest-varying axis in
the row-major flat layout). Contracting an axis with that agent's probability
vector takes the expectation over that agent's action. A single tensor is
folded as a flat C-contiguous vector, and each fold step is one 2-D
matrix-vector product on a view of it: the first axis folds as
`p.dot(flat.reshape(A, -1))`, the last as `flat.reshape(-1, A).dot(p)`.
(`ndarray.dot` reaches the same BLAS routine as `@` at a lower cost per call.)
Every contraction folds in a fixed order (the last axes from agent N-1 down,
the first axes from agent 0 up), and a tensor is made C-contiguous before its
first fold, so results are bit-reproducible for a given input and do not
depend on the input's memory layout.

`fold_all_agents` sweeps K independent runs at once: tensors and policies
carry a leading batch axis, and each fold step is one stacked `np.matmul` of
the K matrix-vector products. numpy hands each slice to the same BLAS
routine as `ndarray.dot`, so every run's bits equal its solo sweep's; at
K = 1 the flat single-tensor folds run, because one stacked call costs more
per call.

`fold_shared` sweeps K > 1 policies over one tensor: the two folds that read
the whole tensor become matrix-matrix products over the K policy rows, so the
tensor is read twice per sweep, not 2K times. A GEMM row can differ from the
matching solo GEMV in the last bits, and its bits can depend on the other
rows of its product (BLAS blocks a GEMM by its shape). Its results are a
function of the K policies alone.

`metrics.marginal_sweep` is the one caller that picks between the two, and it
applies CUT to the policies first.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# The least probability a sweep reads. Under small tau, npg drives some
# log-probabilities into (-745, -708), where exp gives a subnormal, and x86
# computes products with subnormals on a slow path: about 3x the step time at
# 4x20. So `metrics.marginal_sweep` reads entries below CUT as 0, and
# fold_shared drops a factor below CUT ** (1 / f) from its Kronecker rows of f
# factors, so that no product of the rows is subnormal either (unguarded, a
# 4x20 batch of two npg rows at tau = 1e-4 and 1e-3 took 2.7-2.9 s for 5,000
# steps against 1.7-1.8 s). A dropped term is below CUT * max Phi, and every
# sum it joins covers a whole opponent distribution, so it is far below half
# an ulp and the sweep's bits do not move. Only the sweep's input is cut: the
# policy, its logs, entropies and divergences keep every value (an entropy
# term of a near-pure row can itself be tiny).
CUT = 1e-250

# Most policies in one product with fold_shared's square view of the tensor.
# On OpenBLAS 0.3.31 at one thread (2-core Xeon), the 400x400 by 400xK product
# of a 4x20 potential took 25 us at K = 1 and 2, 40-56 at K = 3 and 107-118 at
# K = 4: two columns cost what one does, and more switch to a slower kernel.
GEMM_COLUMNS = 2


def fold_all(tensor: np.ndarray, probs: Sequence[np.ndarray]) -> float:
    """Full expectation: contract every axis with the matching probability vector."""
    return float(fold_except(tensor, probs, -1)[0])


def fold_except(tensor: np.ndarray, probs: Sequence[np.ndarray], keep: int) -> np.ndarray:
    """Contract every axis except `keep`; returns a vector indexed by agent `keep`'s action.

    keep = -1 contracts every axis and returns a vector of length 1.
    """
    out = np.ascontiguousarray(tensor).reshape(-1)
    for j in range(len(probs) - 1, keep, -1):
        out = out.reshape(-1, len(probs[j])).dot(probs[j])
    for j in range(keep):
        out = probs[j].dot(out.reshape(len(probs[j]), -1))
    return out


def _batch_first(tensor: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Contract axis 1 of each run's tensor (K, A, ...) with its row of p (K, A)."""
    k, a = p.shape
    return np.matmul(p[:, None, :], tensor.reshape(k, a, -1)).reshape((k,) + tensor.shape[2:])


def _batch_last(tensor: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Contract the last axis of each run's tensor (K, ..., A) with its row of p (K, A)."""
    k, a = p.shape
    return np.matmul(tensor.reshape(k, -1, a), p[:, :, None]).reshape(tensor.shape[:-1])


def _fold_suffix(tensor: np.ndarray, probs: Sequence[np.ndarray], stop: int) -> np.ndarray:
    """Contract the last axes of each run's tensor, agents len(probs)-1 down to stop+1."""
    for j in range(len(probs) - 1, stop, -1):
        tensor = _batch_last(tensor, probs[j])
    return tensor


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
    if k == 1:
        return _fold_all_agents_one(tensors[0], probs)
    marginals = np.empty(probs.shape, dtype=np.float64)
    rows, out = list(probs.swapaxes(0, 1)), marginals.swapaxes(0, 1)  # indexed by agent
    prefixes = [np.ascontiguousarray(tensors)]
    for j in range(num_agents - 1):
        prefixes.append(_batch_first(prefixes[-1], rows[j]))
    for i in range(num_agents):
        out[i] = _fold_suffix(prefixes[i], rows, i)
    return marginals, _batch_last(prefixes[-1], rows[-1]).reshape(k)


def _fold_all_agents_one(tensor: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fold_all_agents for one run, probs of shape (1, N, A): fold_except's flat GEMVs."""
    rows = list(probs[0])
    a, num_agents = len(rows[0]), len(rows)
    prefixes = [np.ascontiguousarray(tensor).reshape(-1)]
    for j in range(num_agents - 1):
        prefixes.append(rows[j].dot(prefixes[-1].reshape(a, -1)))
    marginals = np.empty(probs.shape, dtype=np.float64)
    for i in range(num_agents):
        out = prefixes[i]
        for j in range(num_agents - 1, i, -1):
            out = out.reshape(-1, a).dot(rows[j])
        marginals[0, i] = out
    return marginals, prefixes[-1].reshape(-1, a).dot(rows[-1])


def fold_shared(tensor: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All leave-one-out contractions of one tensor under each of K policies, plus each expectation.

    tensor: one joint tensor; probs: (K, N, A), policy k's rows, K > 1. Returns
    (marginals, means) as fold_all_agents does for K copies of the tensor.

    Two matrix products read the whole tensor. The first prefix (agent 0
    folded) is P_0 @ T.reshape(A, -1), one GEMM for all K policies. The other
    views T as a square-ish matrix, agents 0..m-1 by agents m..N-1 with
    m = N // 2, and multiplies it by W.T, where row k of W is the Kronecker
    product of policy k's rows for agents m..N-1 (in the tensor's layout):
    that leaves agents 0..m-1, whose small folds give agent 0's marginal. The
    rows of W also fold agents m..N-1 out of the prefixes of agents 1..m-1 in
    one product each. Factors below CUT ** (1 / (N-m)) enter W as 0.
    """
    k, num_agents, a = probs.shape
    flat = np.ascontiguousarray(tensor).reshape(a, -1)
    rows = list(probs.swapaxes(0, 1))  # indexed by agent
    marginals = np.empty(probs.shape, dtype=np.float64)
    out = marginals.swapaxes(0, 1)
    if num_agents == 1:
        out[0] = tensor
        return marginals, rows[0].dot(flat).reshape(k)
    m = num_agents // 2
    factors = probs[:, m:]
    factors = np.where(factors < CUT ** (1.0 / (num_agents - m)), 0.0, factors)
    kron = factors[:, -1]
    for j in range(num_agents - m - 2, -1, -1):  # agents N-2 down to m: the long row is innermost
        kron = (factors[:, j, :, None] * kron[:, None, :]).reshape(k, -1)
    square = flat.reshape(a**m, -1)
    if k <= GEMM_COLUMNS:
        head = square.dot(kron.T)
    else:
        head = np.concatenate([square.dot(kron[s : s + GEMM_COLUMNS].T)
                               for s in range(0, k, GEMM_COLUMNS)], axis=1)
    # prefixes[i]: agents 0..i-1 folded; the first fold is one GEMM over all K policies.
    prefixes = [flat, rows[0].dot(flat).reshape((k,) + tensor.shape[1:])]
    for j in range(1, num_agents - 1):
        prefixes.append(_batch_first(prefixes[-1], rows[j]))
    for i in range(num_agents):
        if i >= m:
            out[i] = _fold_suffix(prefixes[i], rows, i)
            continue
        # Agents m..N-1 folded by W, then agents m-1 down to i+1 one at a time.
        part = head.T if i == 0 else np.matmul(prefixes[i].reshape(k, -1, kron.shape[1]),
                                               kron[:, :, None])
        out[i] = _fold_suffix(part.reshape((k,) + (a,) * (m - i)), rows[:m], i)
    return marginals, _batch_last(prefixes[-1], rows[-1]).reshape(k)
