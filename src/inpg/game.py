"""Finite potential games as dense joint-action tensors.

A game holds a potential tensor and one utility tensor per agent, all of shape
(num_actions,) * num_agents with agent 0 as the slowest-varying (row-major)
axis. Unilateral deviations must change every agent's utility exactly as they
change the potential; `check_potential_property` scans for violations.

Generators draw the potential i.i.d. Beta(1/2, 1/2) through the seeded
generator in `rng`, so identical (num_agents, num_actions, seed) inputs yield
bitwise-identical tensors.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import _contract
from .rng import beta_half_half, uniform_array

DEFAULT_DENSE_CAP = 2**24
MAX_AGENTS = 64  # numpy's limit on the number of array dimensions

_MAGIC = b"INPGGAME"
_FORMAT_VERSION = 1


class GameSizeError(ValueError):
    """Joint action space exceeds the dense-tensor capacity."""


@dataclass(frozen=True)
class PotentialGame:
    """Dense potential game.

    potential: shape (num_actions,)*num_agents, entries in [0, phi_max].
    utilities: one tensor per agent, same shape, entries in [0, 1].
    kind: generator tag ("identical", "general", or "custom").
    """

    num_agents: int
    num_actions: int
    potential: np.ndarray
    utilities: tuple[np.ndarray, ...]
    phi_max: float
    seed: int = 0
    kind: str = "custom"

    def __post_init__(self):
        shape = (self.num_actions,) * self.num_agents
        if self.potential.shape != shape:
            raise ValueError(f"potential shape {self.potential.shape} != {shape}")
        if len(self.utilities) != self.num_agents:
            raise ValueError(f"need {self.num_agents} utility tensors, got {len(self.utilities)}")
        for u in self.utilities:
            if u.shape != shape:
                raise ValueError(f"utility shape {u.shape} != {shape}")
        self.potential.setflags(write=False)
        for u in self.utilities:
            u.setflags(write=False)

    @property
    def joint_shape(self) -> tuple[int, ...]:
        return (self.num_actions,) * self.num_agents

    @property
    def num_entries(self) -> int:
        return self.num_actions**self.num_agents

    @property
    def is_identical_interest(self) -> bool:
        return all(u is self.potential for u in self.utilities)


@dataclass(frozen=True)
class PotentialViolation:
    """First violating unilateral deviation found by check_potential_property."""

    agent: int
    action: int
    other_action: int
    opponents: tuple[int, ...]  # opponent actions in agent order, agent's own slot removed
    residual: float


def require_capacity(num_agents: int, num_actions: int, max_entries: int = DEFAULT_DENSE_CAP) -> int:
    """Joint-action entry count under the cap; num_agents is bounded before the power is formed."""
    if num_agents < 1 or num_actions < 1:
        raise ValueError("num_agents and num_actions must be positive")
    if num_agents > MAX_AGENTS:
        raise GameSizeError(f"{num_agents} agents exceed the limit of {MAX_AGENTS} tensor axes")
    entries = num_actions**num_agents
    if entries > max_entries:
        raise GameSizeError(
            f"joint action space has {num_actions}^{num_agents} = {entries} entries, "
            f"exceeding the dense cap of {max_entries}"
        )
    return entries


def make_identical_interest(
    num_agents: int, num_actions: int, seed: int, max_entries: int = DEFAULT_DENSE_CAP
) -> PotentialGame:
    """Identical-interest game: all agents share the Beta(1/2,1/2) potential; phi_max = 1."""
    entries = require_capacity(num_agents, num_actions, max_entries)
    shape = (num_actions,) * num_agents
    phi = beta_half_half(uniform_array(seed, entries)).reshape(shape)
    return PotentialGame(
        num_agents=num_agents,
        num_actions=num_actions,
        potential=phi,
        utilities=(phi,) * num_agents,
        phi_max=1.0,
        seed=seed,
        kind="identical",
    )


def make_general_potential(
    num_agents: int, num_actions: int, seed: int, max_entries: int = DEFAULT_DENSE_CAP
) -> PotentialGame:
    """Potential game with non-identical utilities.

    Raw potential entries are Beta(1/2,1/2); each agent adds a dummy term
    c_i over opponent profiles, Uniform[0, 1/2]. Both are divided by 3/2 so
    utilities u_i = (raw_phi + c_i)/1.5 stay in [0, 1]; the stored potential
    is raw_phi/1.5 (the shared scaling preserves the deviation identity) and
    phi_max = 2/3. The seed stream is consumed as: entries for the potential,
    then entries/num_actions dummies per agent in agent order.
    """
    entries = require_capacity(num_agents, num_actions, max_entries)
    shape = (num_actions,) * num_agents
    opp_shape = (num_actions,) * (num_agents - 1)
    opp_entries = num_actions ** (num_agents - 1)

    raw_phi = beta_half_half(uniform_array(seed, entries)).reshape(shape)
    offset = entries
    utilities = []
    for i in range(num_agents):
        c_i = 0.5 * uniform_array(seed, opp_entries, offset=offset).reshape(opp_shape)
        offset += opp_entries
        utilities.append((raw_phi + np.expand_dims(c_i, axis=i)) / 1.5)
    return PotentialGame(
        num_agents=num_agents,
        num_actions=num_actions,
        potential=raw_phi / 1.5,
        utilities=tuple(utilities),
        phi_max=2.0 / 3.0,
        seed=seed,
        kind="general",
    )


def check_potential_property(
    game: PotentialGame, tol: float = 1e-12
) -> tuple[bool, PotentialViolation | None]:
    """Check u_i(a_i, a_-i) - u_i(a_i', a_-i) == Phi(a_i, a_-i) - Phi(a_i', a_-i) for all tuples.

    Equivalent to u_i - Phi being constant along agent i's axis, so the scan
    costs O(N * |A|^N); an agent whose utility tensor is the potential itself
    is skipped. Returns (True, None) or (False, first violation found).
    """
    for i in range(game.num_agents):
        if game.utilities[i] is game.potential:
            continue
        lines = np.moveaxis(game.utilities[i] - game.potential, i, -1)  # agent i's axis last
        spread = np.ptp(lines, axis=-1)
        worst = float(spread.max())
        if worst > tol:
            opponents = np.unravel_index(int(np.argmax(spread)), spread.shape)
            line = lines[opponents]
            return False, PotentialViolation(
                agent=i,
                action=int(np.argmax(line)),
                other_action=int(np.argmin(line)),
                opponents=tuple(int(a) for a in opponents),
                residual=worst,
            )
    return True, None


def _check_policy_dims(game: PotentialGame, policy) -> None:
    if policy.num_agents != game.num_agents or policy.num_actions != game.num_actions:
        raise ValueError(
            f"policy dims ({policy.num_agents}, {policy.num_actions}) do not match "
            f"game dims ({game.num_agents}, {game.num_actions})"
        )


def expected_potential(game: PotentialGame, policy) -> float:
    """Phi(pi) = sum_a Phi(a) * prod_i pi_i(a_i)."""
    _check_policy_dims(game, policy)
    return _contract.fold_all(game.potential, list(policy.probs))


def expected_utility(game: PotentialGame, agent: int, policy) -> float:
    """u_i(pi) = sum_a u_i(a) * prod_j pi_j(a_j)."""
    _check_policy_dims(game, policy)
    return _contract.fold_all(game.utilities[agent], list(policy.probs))


def save_game(game: PotentialGame, path) -> None:
    """Write the binary game format (documented in README; stable across versions).

    Layout, all little-endian:
      8s    magic "INPGGAME"
      u32   format version (1)
      u32   num_agents
      u32   num_actions
      f64   phi_max
      u64   seed
      u32   tag length, then tag bytes (utf-8 generator tag)
      f64[] potential then each utility tensor, row-major
    """
    tag = game.kind.encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IIIdQI", _FORMAT_VERSION, game.num_agents, game.num_actions,
                            game.phi_max, game.seed, len(tag)))
        f.write(tag)
        f.write(np.ascontiguousarray(game.potential, dtype="<f8").tobytes())
        for u in game.utilities:
            f.write(np.ascontiguousarray(u, dtype="<f8").tobytes())


def load_game(path) -> PotentialGame:
    """Read a game file, rejecting it (ValueError naming the path) unless it is well formed.

    Besides the layout, a file must declare a finite phi_max > 0, hold
    potential entries in [0, phi_max] and utility entries in [0, 1], pass
    check_potential_property, and, if tagged "identical", store utility copies
    equal to the potential.
    """
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a game file (bad magic {magic!r})")
        header = f.read(32)
        if len(header) != 32:
            raise ValueError(f"{path}: truncated header")
        version, num_agents, num_actions, phi_max, seed, tag_len = struct.unpack("<IIIdQI", header)
        if version != _FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        if not 0.0 < phi_max < math.inf:
            raise ValueError(f"{path}: phi_max must be finite and > 0, got {phi_max!r}")
        entries = require_capacity(num_agents, num_actions)
        shape = (num_actions,) * num_agents
        kind = f.read(tag_len).decode("utf-8")
        payload = f.read()
    expected = 8 * entries * (1 + num_agents)
    if len(payload) != expected:
        raise ValueError(f"{path}: payload has {len(payload)} bytes, expected {expected}")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    # min/max propagate NaN and NaN fails every comparison, so NaN entries are rejected too.
    potential, utils = flat[:entries], flat[entries:]
    if not (potential.min() >= 0.0 and potential.max() <= phi_max):
        raise ValueError(f"{path}: potential entries must lie in [0, phi_max = {phi_max!r}]")
    if not (utils.min() >= 0.0 and utils.max() <= 1.0):
        raise ValueError(f"{path}: utility entries must lie in [0, 1]")
    if kind == "identical" and not all(
        np.array_equal(u, potential) for u in utils.reshape(num_agents, entries)
    ):
        raise ValueError(f"{path}: an identical-interest utility tensor differs from the potential")
    phi = potential.reshape(shape)
    if kind == "identical":
        utilities = (phi,) * num_agents
    else:
        # Views of the payload array, which the potential keeps alive anyway.
        utilities = tuple(u.reshape(shape) for u in utils.reshape(num_agents, entries))
    game = PotentialGame(
        num_agents=num_agents,
        num_actions=num_actions,
        potential=phi,
        utilities=utilities,
        phi_max=phi_max,
        seed=seed,
        kind=kind,
    )
    ok, violation = check_potential_property(game)
    if not ok:
        raise ValueError(f"{path}: not a potential game: {violation}")
    return game


def summarize_game(game: PotentialGame) -> str:
    """Human-readable summary written next to generated game files."""
    phi = game.potential
    lines = [
        f"kind: {game.kind}",
        f"num_agents: {game.num_agents}",
        f"num_actions: {game.num_actions}",
        f"joint_entries: {game.num_entries}",
        f"seed: {game.seed}",
        f"phi_max (declared bound): {game.phi_max:.17g}",
        f"phi empirical min: {phi.min():.17g}",
        f"phi empirical max: {phi.max():.17g}",
        f"phi empirical mean: {phi.mean():.17g}",
    ]
    return "\n".join(lines) + "\n"
