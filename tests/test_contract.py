"""The 2-D fold kernels against the stacked-form contractions they replaced, bit for bit.

The references below fold in the same order as `inpg._contract` but through
numpy's stacked N-D `@` and `np.tensordot`. The rewrite changed only the
layout of each fold, so every marginal, mean and expectation must be equal,
not close. The references are evaluated on a C-contiguous tensor; the kernels
must also give those bits for a non-contiguous copy of it.

`fold_all_agents` also sweeps a batch of runs through stacked matmuls; each
run of a batch must get the bits of its own sweep as a batch of one.

`fold_shared` sweeps K policies over one tensor through GEMMs, whose rows may
differ from the solo kernel's by rounding: each must be close to its solo sweep,
and its Kronecker cut must not move a bit.
"""

import numpy as np
import pytest

from inpg import _contract
from inpg._contract import fold_all, fold_all_agents, fold_except, fold_shared

SHAPES = [(n, a) for n in range(1, 6) for a in range(1, 7)] + [(4, 20)]


def stacked_fold_all_agents(tensor, probs):
    num_agents = tensor.ndim
    prefixes = [tensor]
    for j in range(num_agents - 1):
        prefixes.append(np.tensordot(probs[j], prefixes[-1], axes=([0], [0])))
    marginals = np.empty((num_agents, tensor.shape[0]), dtype=np.float64)
    for i in range(num_agents):
        out = prefixes[i]
        for j in range(num_agents - 1, i, -1):
            out = out @ probs[j]
        marginals[i] = out
    mean = float(prefixes[-1] @ probs[num_agents - 1])
    return marginals, mean


def stacked_fold_all(tensor, probs):
    out = tensor
    for j in range(tensor.ndim - 1, -1, -1):
        out = out @ probs[j]
    return float(out)


def stacked_fold_except(tensor, probs, keep):
    out = tensor
    for j in range(tensor.ndim - 1, keep, -1):
        out = out @ probs[j]
    for j in range(keep):
        out = np.tensordot(probs[j], out, axes=([0], [0]))
    return np.asarray(out, dtype=np.float64)


def policies(rng, num_agents, num_actions):
    """Random rows at several sharpnesses, then rows with entries near 1e-300 and subnormal."""
    for scale in (0.3, 1.0, 3.0, 10.0, 30.0):
        logits = scale * rng.normal(size=(num_agents, num_actions))
        p = np.exp(logits - np.max(logits, axis=1, keepdims=True))
        yield p / np.sum(p, axis=1, keepdims=True)
    for tiny in (1e-300, 3e-305, 1e-310, 5e-324):
        p = rng.dirichlet(np.ones(num_actions), size=num_agents)
        small = rng.random((num_agents, num_actions)) < 0.5
        small[:, 0] = False  # keep one ordinary entry per row
        yield np.where(small, tiny * rng.random((num_agents, num_actions)), p)


def layouts(tensor):
    """The tensor itself, a Fortran-ordered copy and a strided view of a wider array."""
    wide = np.zeros(tensor.shape[:-1] + (2 * tensor.shape[-1],))
    wide[..., ::2] = tensor
    return [tensor, np.asfortranarray(tensor), wide[..., ::2]]


@pytest.mark.parametrize("num_agents,num_actions", SHAPES)
def test_folds_match_stacked_forms_bit_for_bit(num_agents, num_actions):
    rng = np.random.default_rng(1000 * num_agents + num_actions)
    tensor = rng.random((num_actions,) * num_agents)
    copies = layouts(tensor)
    if num_actions > 1:
        assert not copies[2].flags.c_contiguous
    for p in policies(rng, num_agents, num_actions):
        probs = list(p)
        ref_marginals, ref_mean = stacked_fold_all_agents(tensor, probs)
        ref_all = stacked_fold_all(tensor, probs)
        ref_except = [stacked_fold_except(tensor, probs, k) for k in range(num_agents)]
        for copy in copies:
            marginals, mean = fold_all_agents(copy[None], p[None])
            assert np.array_equal(marginals[0], ref_marginals)
            assert mean[0] == ref_mean
            assert fold_all(copy, probs) == ref_all
            for k in range(num_agents):
                assert np.array_equal(fold_except(copy, probs, k), ref_except[k])


BATCHES = [(n, a, k) for n, a in [(1, 3), (2, 10), (3, 4), (5, 6)] for k in (2, 7, 40)]


@pytest.mark.parametrize("num_agents,num_actions,batch", BATCHES + [(4, 20, 2)])
def test_batched_sweep_matches_each_run_alone(num_agents, num_actions, batch):
    rng = np.random.default_rng(100 * batch + 10 * num_agents + num_actions)
    tensors = rng.random((batch,) + (num_actions,) * num_agents)
    # Every run gets one row set of each kind, so tiny and subnormal rows meet ordinary ones.
    kinds = [list(policies(rng, num_agents, num_actions)) for _ in range(batch)]
    for shift in range(len(kinds[0])):
        probs = np.stack([kinds[k][(k + shift) % len(kinds[k])] for k in range(batch)])
        marginals, means = fold_all_agents(tensors, probs)
        assert marginals.shape == (batch, num_agents, num_actions) and means.shape == (batch,)
        for k in range(batch):
            solo_marginals, solo_mean = fold_all_agents(tensors[k : k + 1], probs[k : k + 1])
            assert np.array_equal(marginals[k], solo_marginals[0])
            assert means[k] == solo_mean[0]


@pytest.mark.parametrize("num_agents,num_actions", [(n, a) for n in range(1, 6) for a in (1, 2, 5)]
                         + [(4, 20)])
@pytest.mark.parametrize("batch", [2, 3, 5])
def test_shared_sweep_is_close_to_each_solo_sweep(monkeypatch, num_agents, num_actions, batch):
    rng = np.random.default_rng(100 * batch + 10 * num_agents + num_actions)
    copies = layouts(rng.random((num_actions,) * num_agents))
    kinds = [list(policies(rng, num_agents, num_actions)) for _ in range(batch)]
    for shift in range(len(kinds[0])):
        probs = np.stack([kinds[k][(k + shift) % len(kinds[k])] for k in range(batch)])
        solo = [fold_all_agents(copies[0][None], probs[k : k + 1]) for k in range(batch)]
        for copy in copies:
            marginals, means = fold_shared(copy, probs)
            assert marginals.shape == (batch, num_agents, num_actions) and means.shape == (batch,)
            for k, (solo_marginals, solo_mean) in enumerate(solo):
                np.testing.assert_allclose(marginals[k], solo_marginals[0], rtol=1e-13, atol=0)
                np.testing.assert_allclose(means[k], solo_mean[0], rtol=1e-13, atol=0)
        with monkeypatch.context() as m:
            m.setattr(_contract, "KRON_CUT", 0.0)
            uncut = fold_shared(copies[0], probs)
        cut = fold_shared(copies[0], probs)
        assert np.array_equal(cut[0], uncut[0]) and np.array_equal(cut[1], uncut[1])
