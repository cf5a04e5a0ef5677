"""Deterministic random number generation.

Every random quantity in this package is derived from a 64-bit splitmix-style
generator that is fully specified by its constants, so that identical seeds
produce bitwise-identical tensors on any platform:

    state_k = seed + k * 0x9E3779B97F4A7C15          (mod 2^64, k = 1, 2, ...)
    z = state_k
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9          (mod 2^64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB          (mod 2^64)
    output_k = z ^ (z >> 31)

Uniform doubles in [0, 1) take the top 53 bits: (output_k >> 11) * 2^-53.

Because output_k depends only on (seed, k), the sequence is counter-based and
can be produced either sequentially or as a vectorized batch; both paths are
tested to agree exactly.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_INV_2POW53 = 1.0 / (1 << 53)


def mix64(state: int) -> int:
    """Scalar finalizer: map a 64-bit state to a decorrelated 64-bit output."""
    z = state & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential view of the generator (scalar, pure Python)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def next_float(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _INV_2POW53


def uniform_array(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Vectorized batch of uniforms: outputs offset+1 .. offset+count of SplitMix64(seed).

    `offset` lets callers consume one logical stream in several chunks.
    """
    if count == 0:
        return np.empty(0, dtype=np.float64)
    ks = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + ks * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * _INV_2POW53


def beta_half_half(u: np.ndarray) -> np.ndarray:
    """Map uniforms to Beta(1/2, 1/2) via the arcsine inverse CDF, sin^2(pi*u/2)."""
    return np.sin(0.5 * np.pi * u) ** 2


def check_seed(seed: int) -> int:
    """The seed itself; ValueError unless it is in [0, 2^64), the seeds a game file stores."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def run_seed(base_seed: int, index: int) -> int:
    """Seed for the index-th run of an experiment: base_seed + index (mod 2^64).

    base_seed must itself be a seed (check_seed). Nearby seeds yield
    decorrelated streams because the generator mixes seed + counter*gamma
    before output.
    """
    return (check_seed(base_seed) + index) & _MASK64
