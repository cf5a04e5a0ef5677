import itertools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inpg.game import (
    DEFAULT_DENSE_CAP,
    GameSizeError,
    PotentialGame,
    expected_potential,
    expected_utility,
    load_game,
    make_general_potential,
    make_identical_interest,
    require_capacity,
    save_game,
    summarize_game,
)
from inpg.metrics import marginalized_utility
from inpg.policy import JointPolicy, uniform_policy

from conftest import random_policy, write_v1_game


def exhaustive_potential_scan(game, tol=1e-12):
    """Independent check of the unilateral-deviation identity, tuple by tuple."""
    a_range = range(game.num_actions)
    for i in range(game.num_agents):
        for opp in itertools.product(a_range, repeat=game.num_agents - 1):
            for a, b in itertools.combinations(a_range, 2):
                idx_a = list(opp)
                idx_a.insert(i, a)
                idx_b = list(opp)
                idx_b.insert(i, b)
                du = game.utilities[i][tuple(idx_a)] - game.utilities[i][tuple(idx_b)]
                dphi = game.potential[tuple(idx_a)] - game.potential[tuple(idx_b)]
                if abs(du - dphi) > tol:
                    return False
    return True


class TestIdenticalInterest:
    def test_section5_size_and_range(self):
        game = make_identical_interest(4, 20, seed=7)
        assert game.num_entries == 160_000
        assert game.potential.shape == (20, 20, 20, 20)
        assert 0.0 < game.potential.min() and game.potential.max() < 1.0
        assert game.phi_max == 1.0
        assert all(u is game.potential for u in game.utilities)

    def test_degenerate_single_cell(self):
        game = make_identical_interest(1, 1, seed=0)
        assert game.potential.shape == (1,)
        assert 0.0 < float(game.potential[0]) < 1.0
        assert game.utilities[0] is game.potential

    def test_seeded_determinism(self):
        a = make_identical_interest(2, 3, seed=42)
        b = make_identical_interest(2, 3, seed=42)
        assert np.array_equal(a.potential, b.potential)
        assert not np.array_equal(a.potential, make_identical_interest(2, 3, seed=43).potential)

    def test_potential_property_trivial(self):
        game = make_identical_interest(2, 4, seed=3)
        assert game.dummies == ()
        assert exhaustive_potential_scan(game)


class TestGeneralPotential:
    def test_property_by_exhaustive_scan(self):
        game = make_general_potential(2, 2, seed=1)
        assert exhaustive_potential_scan(game)

    def test_single_agent_dummy_is_constant(self):
        game = make_general_potential(1, 5, seed=11)
        shift = game.utilities[0] - game.potential
        assert np.ptp(shift) < 1e-15  # one dummy entry when there are no opponents
        assert 0.0 < shift[0] < 1.0 / 3.0  # c_1/(3/2) with c_1 in [0, 1/2]

    def test_utilities_differ_between_agents(self):
        game = make_general_potential(3, 2, seed=5)
        assert not np.array_equal(game.utilities[0], game.utilities[1])
        assert not np.array_equal(game.utilities[1], game.utilities[2])

    def test_ranges_and_phi_max(self):
        game = make_general_potential(3, 3, seed=8)
        assert game.phi_max == pytest.approx(2.0 / 3.0)
        assert 0.0 <= game.potential.min() and game.potential.max() <= game.phi_max
        for u in game.utilities:
            assert 0.0 <= u.min() and u.max() <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=3),
        a=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_every_generated_game_is_potential(self, n, a, seed):
        for maker in (make_identical_interest, make_general_potential):
            assert exhaustive_potential_scan(maker(n, a, seed))


class TestPotentialCheck:
    """A format 1 file stores whole utility tensors, so its reader checks the potential property."""

    def test_detects_perturbation(self, tmp_path):
        base = make_identical_interest(2, 3, seed=9)
        utilities = [u.copy() for u in base.utilities]
        utilities[1][2, 1] += 1e-3 if utilities[1][2, 1] < 0.5 else -1e-3  # stays in [0, 1]
        path = tmp_path / "broken.pg"
        write_v1_game(path, base.potential, utilities, phi_max=1.0)
        with pytest.raises(ValueError, match="not a potential game") as info:
            load_game(path)
        message = str(info.value)
        assert "u_1 - Phi varies by" in message and "at opponent actions (2,)" in message
        residual = float(message.split("varies by ")[1].split()[0])
        assert residual == pytest.approx(1e-3, rel=1e-9)

    def test_residual_below_tol_passes(self, tmp_path):
        base = make_identical_interest(2, 3, seed=9)
        utilities = [u.copy() for u in base.utilities]
        utilities[0][0, 0] += 1e-14
        path = tmp_path / "nudged.pg"
        write_v1_game(path, base.potential, utilities, phi_max=1.0)
        loaded = load_game(path)
        assert np.array_equal(loaded.potential, base.potential)
        assert np.max(np.abs(loaded.utilities[0] - utilities[0])) <= 1e-14


class TestCapacity:
    def test_cap_error_names_sizes(self):
        with pytest.raises(GameSizeError) as err:
            make_identical_interest(9, 7, seed=0)
        assert str(7**9) in str(err.value)
        assert str(DEFAULT_DENSE_CAP) in str(err.value)

    def test_cap_admits_its_own_size(self):
        assert require_capacity(24, 2) == DEFAULT_DENSE_CAP == 2**24
        with pytest.raises(GameSizeError):
            make_identical_interest(25, 2, seed=0)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            make_identical_interest(0, 3, seed=0)


class TestExpectedValues:
    def test_point_mass_policies(self):
        game = make_identical_interest(3, 4, seed=2)
        joint = (1, 3, 0)
        lp = np.full((3, 4), -1e4)
        for i, a in enumerate(joint):
            lp[i, a] = 0.0
        pol = JointPolicy(lp)
        assert expected_potential(game, pol) == pytest.approx(game.potential[joint], abs=1e-15)
        assert expected_utility(game, 2, pol) == pytest.approx(game.utilities[2][joint], abs=1e-15)

    def test_uniform_is_mean(self):
        game = make_general_potential(2, 5, seed=4)
        pol = uniform_policy(2, 5)
        assert expected_potential(game, pol) == pytest.approx(game.potential.mean(), abs=1e-13)

    def test_two_by_two_hand_sum(self, rng):
        game = make_identical_interest(2, 2, seed=6)
        pol = random_policy(rng, 2, 2)
        p, q = pol.probs
        phi = game.potential
        hand = (
            p[0] * q[0] * phi[0, 0] + p[0] * q[1] * phi[0, 1]
            + p[1] * q[0] * phi[1, 0] + p[1] * q[1] * phi[1, 1]
        )
        assert expected_potential(game, pol) == pytest.approx(hand, abs=1e-14)

    def test_identical_interest_utility_equals_potential(self, rng):
        game = make_identical_interest(3, 3, seed=1)
        pol = random_policy(rng, 3, 3)
        phi = expected_potential(game, pol)
        for i in range(3):
            assert expected_utility(game, i, pol) == pytest.approx(phi, abs=1e-14)

    def test_utility_equals_marginal_inner_product(self, rng):
        game = make_general_potential(3, 4, seed=12)
        pol = random_policy(rng, 3, 4)
        for i in range(3):
            r = marginalized_utility(game, i, pol)
            assert expected_utility(game, i, pol) == pytest.approx(
                float(np.dot(r, pol.probs[i])), abs=1e-12
            )

    def test_mixed_strategy_potential_identity(self, rng):
        # Unilateral policy change moves utility and potential by the same amount.
        game = make_general_potential(3, 3, seed=13)
        for _ in range(5):
            pol = random_policy(rng, 3, 3)
            for i in range(3):
                lp = pol.log_probs.copy()
                lp[i] = random_policy(rng, 1, 3).log_probs[0]
                dev = JointPolicy(lp)
                du = expected_utility(game, i, dev) - expected_utility(game, i, pol)
                dphi = expected_potential(game, dev) - expected_potential(game, pol)
                assert du == pytest.approx(dphi, abs=1e-10)

    def test_dimension_mismatch(self):
        game = make_identical_interest(2, 3, seed=0)
        with pytest.raises(ValueError):
            expected_potential(game, uniform_policy(2, 4))
        with pytest.raises(ValueError):
            expected_utility(game, 0, uniform_policy(3, 3))


class TestSerialization:
    def test_round_trip_identical(self, tmp_path):
        game = make_identical_interest(3, 4, seed=77)
        path = tmp_path / "g.pg"
        save_game(game, path)
        loaded = load_game(path)
        assert np.array_equal(loaded.potential, game.potential)
        assert loaded.dummies == ()
        assert all(u is loaded.potential for u in loaded.utilities)
        assert (loaded.num_agents, loaded.num_actions) == (3, 4)
        assert loaded.phi_max == game.phi_max
        assert loaded.seed == 77 and loaded.kind == "identical"

    def test_round_trip_general(self, tmp_path):
        game = make_general_potential(2, 5, seed=3)
        path = tmp_path / "g.pg"
        save_game(game, path)
        loaded = load_game(path)
        assert np.array_equal(loaded.potential, game.potential)
        assert len(loaded.dummies) == 2
        for c, d in zip(loaded.dummies, game.dummies):
            assert np.array_equal(c, d)
        for u, v in zip(loaded.utilities, game.utilities):
            assert np.array_equal(u, v)

    def test_resave_is_byte_identical(self, tmp_path):
        game = make_general_potential(2, 3, seed=5)
        p1, p2 = tmp_path / "a.pg", tmp_path / "b.pg"
        save_game(game, p1)
        save_game(load_game(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("maker", [make_identical_interest, make_general_potential])
    def test_v1_file_loads(self, tmp_path, maker):
        game = maker(4, 20, seed=7)
        path = tmp_path / "v1.pg"
        write_v1_game(path, game.potential, game.utilities, game.phi_max, game.seed, game.kind)
        loaded = load_game(path)
        assert np.array_equal(loaded.potential, game.potential)
        assert (loaded.seed, loaded.kind, loaded.phi_max) == (7, game.kind, game.phi_max)
        assert len(loaded.dummies) == len(game.dummies)
        for u, v in zip(loaded.utilities, game.utilities):
            assert np.max(np.abs(u - v)) <= 1e-15

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pg"
        path.write_bytes(b"NOTAGAME" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_game(path)

    # Format 1 cases set utility u_1 at joint action (1, 2); format 2 cases set dummy c_1
    # at agent 0's action 2.
    @pytest.mark.parametrize("version,phi_max,phi_entry,entry,kind,match", [
        pytest.param(1, 0.0, 0.0, 0.0, "custom", "phi_max must", id="phi_max-zero"),
        pytest.param(1, math.inf, 0.5, 0.5, "custom", "phi_max must", id="phi_max-inf"),
        pytest.param(1, math.nan, 0.5, 0.5, "custom", "phi_max must", id="phi_max-nan"),
        pytest.param(1, 0.4, 0.5, 0.5, "custom", "potential entries", id="potential-above-phi_max"),
        pytest.param(1, 1.0, -0.1, 0.5, "custom", "potential entries", id="potential-negative"),
        pytest.param(1, 1.0, math.nan, 0.5, "custom", "potential entries", id="potential-nan"),
        pytest.param(1, 1.0, 0.5, 1.5, "custom", "utility entries", id="utility-above-one"),
        pytest.param(1, 1.0, 0.5, math.nan, "custom", "utility entries", id="utility-nan"),
        pytest.param(1, 1.0, 0.5, 0.25, "identical", "differs from the potential",
                     id="identical-copy-differs"),
        pytest.param(1, 1.0, 0.5, 0.25, "custom", "not a potential game", id="not-potential"),
        pytest.param(2, 1.0, 0.5, 0.6, "custom", r"utility entries \(potential plus dummy 1\)",
                     id="v2-dummy-above-one"),
        pytest.param(2, 1.0, 0.5, -0.6, "custom", "utility entries", id="v2-dummy-below-zero"),
        pytest.param(2, 1.0, 0.5, math.nan, "custom", "utility entries", id="v2-dummy-nan"),
        pytest.param(2, 1.0, 0.5, 0.25, "identical", "nonzero dummy term 1",
                     id="v2-identical-nonzero-dummy"),
    ])
    def test_bad_content_rejected(self, tmp_path, version, phi_max, phi_entry, entry, kind, match):
        phi = np.full((3, 3), 0.5)
        phi[0, 0] = phi_entry
        path = tmp_path / "bad.pg"
        if version == 1:
            u = phi.copy()
            u[1, 2] = entry
            write_v1_game(path, phi, (phi, u), phi_max=phi_max, kind=kind)
        else:
            c = np.zeros(3)
            c[2] = entry
            save_game(PotentialGame(2, 3, phi, (np.zeros(3), c), phi_max=phi_max, kind=kind), path)
        with pytest.raises(ValueError, match=match) as info:
            load_game(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("extra", [b"\x00", b"\x00" * 8])
    def test_trailing_bytes_rejected(self, tmp_path, version, extra):
        game = make_general_potential(2, 3, seed=5)
        path = tmp_path / "long.pg"
        if version == 1:
            write_v1_game(path, game.potential, game.utilities, game.phi_max)
        else:
            save_game(game, path)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(ValueError, match="payload have") as info:
            load_game(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("version,bound", [(1, 1.5), (2, 1.25)])
    def test_load_peak_memory(self, tmp_path, version, bound):
        # v1 is streamed one utility tensor at a time: its peak is bounded by the file's
        # payload. v2 reads each tensor straight into the game: its peak is bounded by
        # the loaded game.
        game = make_general_potential(4, 20, seed=7)
        path = tmp_path / "g.pg"
        if version == 1:
            write_v1_game(path, game.potential, game.utilities, game.phi_max, game.seed, game.kind)
        else:
            save_game(game, path)
        tracemalloc.start()
        try:
            loaded = load_game(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        game_bytes = loaded.potential.nbytes + sum(c.nbytes for c in loaded.dummies)
        payload = 8 * (1 + 4) * 20**4
        assert game_bytes == 8 * (20**4 + 4 * 20**3)
        assert peak <= bound * (payload if version == 1 else game_bytes)

    @pytest.mark.parametrize("num_agents,num_actions", [(64, 20), (65, 1)])
    def test_oversized_header_rejected_before_allocating(self, tmp_path, num_agents, num_actions):
        path = tmp_path / "huge.pg"
        header = struct.pack("<IIIdQI", 1, num_agents, num_actions, 1.0, 0, 0)
        path.write_bytes(b"INPGGAME" + header + b"\x00" * 64)
        with pytest.raises(GameSizeError):
            load_game(path)

    def test_oversized_tag_rejected_before_reading(self, tmp_path):
        path = tmp_path / "long_tag.pg"
        header = struct.pack("<IIIdQI", 2, 2, 3, 1.0, 0, 2**32 - 1)
        path.write_bytes(b"INPGGAME" + header + b"\x00" * 64)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="tag and payload have 64 bytes"):
                load_game(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.pg"
        path.write_bytes(b"INPGGAME" + b"\x00" * 10)
        with pytest.raises(ValueError, match="truncated"):
            load_game(path)

    def test_summary_mentions_empirical_max(self):
        game = make_identical_interest(2, 4, seed=1)
        text = summarize_game(game)
        assert "phi empirical max" in text
        assert "phi_max (declared bound): 1" in text
