import struct

import numpy as np
import pytest

from inpg.game import make_general_potential, make_identical_interest
from inpg.policy import JointPolicy


def random_policy(rng: np.random.Generator, num_agents: int, num_actions: int,
                  scale: float = 1.0) -> JointPolicy:
    return JointPolicy.from_logits(scale * rng.normal(size=(num_agents, num_actions)))


def random_small_game(rng: np.random.Generator, max_agents: int = 3, max_actions: int = 5):
    n = int(rng.integers(1, max_agents + 1))
    a = int(rng.integers(2, max_actions + 1))
    seed = int(rng.integers(0, 2**31))
    maker = make_identical_interest if rng.integers(2) == 0 else make_general_potential
    return maker(n, a, seed)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def write_v1_game(path, potential, utilities, phi_max, seed=0, kind="custom"):
    """Write the format 1 layout byte for byte: header, then Phi and N whole utility tensors."""
    num_agents, num_actions = potential.ndim, potential.shape[0]
    tag = kind.encode("utf-8")
    with open(path, "wb") as f:
        f.write(b"INPGGAME")
        f.write(struct.pack("<IIIdQI", 1, num_agents, num_actions, phi_max, seed, len(tag)))
        f.write(tag)
        for t in (potential, *utilities):
            f.write(np.ascontiguousarray(t, dtype="<f8").tobytes())
