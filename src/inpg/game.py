"""Finite potential games as dense joint-action tensors.

A game holds a potential tensor Phi of shape (num_actions,) * num_agents, with
agent 0 as the slowest-varying (row-major) axis, and one dummy term c_i per
agent over the opponents' actions. Agent i's utility is u_i = Phi + c_i(a_-i):
a unilateral deviation changes u_i exactly as it changes Phi, so every game
this module can represent is a potential game.

Generators draw the potential i.i.d. Beta(1/2, 1/2) through the seeded
generator in `rng`, so identical (num_agents, num_actions, seed) inputs yield
bitwise-identical tensors.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import _contract
from .rng import beta_half_half, check_seed, uniform_array

DEFAULT_DENSE_CAP = 2**24
MAX_AGENTS = 64  # numpy's limit on the number of array dimensions

_MAGIC = b"INPGGAME"
_FORMAT_VERSION = 2
_V1_POTENTIAL_TOL = 1e-12  # largest spread of u_i - Phi along agent i's axis a v1 file may have


class GameSizeError(ValueError):
    """Joint action space exceeds the dense-tensor capacity."""


@dataclass(frozen=True)
class PotentialGame:
    """Dense potential game.

    potential: shape (num_actions,)*num_agents, entries in [0, phi_max].
    dummies: one term c_i of shape (num_actions,)*(num_agents-1) per agent,
        indexed by the opponents' actions in agent order, or () when every
        agent's utility is the potential itself (identical interest).
    kind: generator tag ("identical", "general", or "custom").
    """

    num_agents: int
    num_actions: int
    potential: np.ndarray
    dummies: tuple[np.ndarray, ...]
    phi_max: float
    seed: int = 0
    kind: str = "custom"

    def __post_init__(self):
        shape = (self.num_actions,) * self.num_agents
        if self.potential.shape != shape:
            raise ValueError(f"potential shape {self.potential.shape} != {shape}")
        if self.dummies and (len(self.dummies) != self.num_agents
                             or any(c.shape != shape[1:] for c in self.dummies)):
            raise ValueError(f"need no dummy terms or {self.num_agents} of shape {shape[1:]}")
        check_seed(self.seed)
        for t in (self.potential, *self.dummies):
            t.setflags(write=False)

    @property
    def joint_shape(self) -> tuple[int, ...]:
        return (self.num_actions,) * self.num_agents

    @property
    def num_entries(self) -> int:
        return self.num_actions**self.num_agents

    def utility(self, agent: int) -> np.ndarray:
        """u_i = Phi + c_i, computed on every call; the potential itself when there are no dummies."""
        if not self.dummies:
            return self.potential
        return self.potential + np.expand_dims(self.dummies[agent], agent)

    @property
    def utilities(self) -> tuple[np.ndarray, ...]:
        """Every agent's utility tensor, computed on every access and never cached."""
        return tuple(self.utility(i) for i in range(self.num_agents))


def require_capacity(num_agents: int, num_actions: int) -> int:
    """Joint-action entry count under the cap; num_agents is bounded before the power is formed."""
    if num_agents < 1 or num_actions < 1:
        raise ValueError("num_agents and num_actions must be positive")
    if num_agents > MAX_AGENTS:
        raise GameSizeError(f"{num_agents} agents exceed the limit of {MAX_AGENTS} tensor axes")
    entries = num_actions**num_agents
    if entries > DEFAULT_DENSE_CAP:
        raise GameSizeError(
            f"joint action space has {num_actions}^{num_agents} = {entries} entries, "
            f"exceeding the dense cap of {DEFAULT_DENSE_CAP}"
        )
    return entries


def make_identical_interest(num_agents: int, num_actions: int, seed: int) -> PotentialGame:
    """Identical-interest game: all agents share the Beta(1/2,1/2) potential; phi_max = 1."""
    entries = require_capacity(num_agents, num_actions)
    shape = (num_actions,) * num_agents
    phi = beta_half_half(uniform_array(seed, entries)).reshape(shape)
    return PotentialGame(
        num_agents=num_agents,
        num_actions=num_actions,
        potential=phi,
        dummies=(),
        phi_max=1.0,
        seed=seed,
        kind="identical",
    )


def make_general_potential(num_agents: int, num_actions: int, seed: int) -> PotentialGame:
    """Potential game with non-identical utilities.

    Raw potential entries are Beta(1/2,1/2); each agent adds a dummy term
    c_i over opponent profiles, Uniform[0, 1/2]. Both are divided by 3/2 so
    utilities Phi + c_i stay in [0, 1]; the stored potential is raw_phi/1.5,
    the stored dummies c_i/1.5, and phi_max = 2/3. The seed stream is
    consumed as: entries for the potential, then entries/num_actions dummies
    per agent in agent order.
    """
    entries = require_capacity(num_agents, num_actions)
    shape = (num_actions,) * num_agents
    opp_entries = num_actions ** (num_agents - 1)

    raw_phi = beta_half_half(uniform_array(seed, entries)).reshape(shape)
    dummies = []
    for i in range(num_agents):
        c_i = 0.5 * uniform_array(seed, opp_entries, offset=entries + i * opp_entries)
        dummies.append(c_i.reshape(shape[1:]) / 1.5)
    return PotentialGame(
        num_agents=num_agents,
        num_actions=num_actions,
        potential=raw_phi / 1.5,
        dummies=tuple(dummies),
        phi_max=2.0 / 3.0,
        seed=seed,
        kind="general",
    )


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
    return _contract.fold_all(game.utility(agent), list(policy.probs))


def save_game(game: PotentialGame, path) -> None:
    """Write the binary game format (documented in README; stable across versions).

    Layout, all little-endian:
      8s    magic "INPGGAME"
      u32   format version (2)
      u32   num_agents
      u32   num_actions
      f64   phi_max
      u64   seed
      u32   tag length, then tag bytes (utf-8 generator tag)
      f64[] potential, then each agent's dummy term (zeros when the game has
            none), row-major
    """
    tag = game.kind.encode("utf-8")
    zeros = np.zeros(game.joint_shape[1:])
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IIIdQI", _FORMAT_VERSION, game.num_agents, game.num_actions,
                            game.phi_max, game.seed, len(tag)))
        f.write(tag)
        for t in (game.potential, *(game.dummies or (zeros,) * game.num_agents)):
            f.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def _read_tensor(f, shape: tuple[int, ...]) -> np.ndarray:
    """The next row-major f64 tensor of the file, a read-only view of the bytes read."""
    return np.frombuffer(f.read(8 * math.prod(shape)), "<f8").reshape(shape)


def _v1_dummy(path, phi: np.ndarray, u: np.ndarray, agent: int) -> np.ndarray:
    """Agent's dummy term u - Phi, which a potential game keeps constant along the agent's axis."""
    d = u - phi
    spread = np.ptp(d, axis=agent)
    worst = float(spread.max())
    if worst > _V1_POTENTIAL_TOL:
        opponents = tuple(int(a) for a in np.unravel_index(int(np.argmax(spread)), spread.shape))
        raise ValueError(f"{path}: not a potential game: u_{agent} - Phi varies by {worst!r} "
                         f"along agent {agent}'s actions at opponent actions {opponents}")
    return np.asarray(d.mean(axis=agent))


def _read_v1_dummies(f, path, phi: np.ndarray, kind: str) -> tuple[np.ndarray, ...]:
    """Dummy terms from v1's N utility tensors, read one at a time."""
    dummies = []
    for i in range(phi.ndim):
        u = _read_tensor(f, phi.shape)
        if not (u.min() >= 0.0 and u.max() <= 1.0):
            raise ValueError(f"{path}: utility entries must lie in [0, 1]")
        if kind == "identical":
            if not np.array_equal(u, phi):
                raise ValueError(f"{path}: an identical-interest utility tensor differs from the potential")
        else:
            dummies.append(_v1_dummy(path, phi, u, i))
    return tuple(dummies)


def _read_v2_dummies(f, path, phi: np.ndarray, kind: str) -> tuple[np.ndarray, ...]:
    """v2's N dummy terms, each checked to keep Phi + c_i in [0, 1] without forming it."""
    dummies = []
    for i in range(phi.ndim):
        c = _read_tensor(f, phi.shape[1:])
        # Rounding is monotone, so Phi + c_i peaks where Phi does along agent i's axis.
        if not ((phi.min(axis=i) + c).min() >= 0.0 and (phi.max(axis=i) + c).max() <= 1.0):
            raise ValueError(f"{path}: utility entries (potential plus dummy {i}) must lie in [0, 1]")
        if kind == "identical":
            if np.any(c != 0.0):
                raise ValueError(f"{path}: an identical-interest file has a nonzero dummy term {i}")
        else:
            dummies.append(c)
    return tuple(dummies)


def load_game(path) -> PotentialGame:
    """Read a game file, rejecting it (ValueError naming the path) unless it is well formed.

    Besides the layout, a file must declare a finite phi_max > 0, hold
    potential entries in [0, phi_max] and utility entries in [0, 1], and, if
    tagged "identical", have utilities equal to the potential. Format 1 files,
    which store whole utility tensors, must also be potential games: each
    u_i - Phi must be constant along agent i's axis to within 1e-12.
    """
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a game file (bad magic {magic!r})")
        header = f.read(32)
        if len(header) != 32:
            raise ValueError(f"{path}: truncated header")
        version, num_agents, num_actions, phi_max, seed, tag_len = struct.unpack("<IIIdQI", header)
        if version not in (1, 2):
            raise ValueError(f"{path}: unsupported format version {version}")
        if not 0.0 < phi_max < math.inf:
            raise ValueError(f"{path}: phi_max must be finite and > 0, got {phi_max!r}")
        entries = require_capacity(num_agents, num_actions)
        shape = (num_actions,) * num_agents
        size = os.fstat(f.fileno()).st_size - f.tell()
        per_agent = entries if version == 1 else entries // num_actions
        expected = tag_len + 8 * (entries + num_agents * per_agent)
        if size != expected:
            raise ValueError(f"{path}: tag and payload have {size} bytes, expected {expected}")
        kind = f.read(tag_len).decode("utf-8")
        phi = _read_tensor(f, shape)
        # min/max propagate NaN and NaN fails every comparison, so NaN entries are rejected too.
        if not (phi.min() >= 0.0 and phi.max() <= phi_max):
            raise ValueError(f"{path}: potential entries must lie in [0, phi_max = {phi_max!r}]")
        read_dummies = _read_v1_dummies if version == 1 else _read_v2_dummies
        dummies = read_dummies(f, path, phi, kind)
    return PotentialGame(
        num_agents=num_agents,
        num_actions=num_actions,
        potential=phi,
        dummies=dummies,
        phi_max=phi_max,
        seed=seed,
        kind=kind,
    )


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
