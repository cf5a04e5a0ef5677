import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from inpg.policy import (
    PROB_FLOOR,
    JointPolicy,
    SoftmaxParams,
    entropy,
    jeffrey,
    jeffrey_logs,
    kl,
    logsumexp,
    normalize_logs,
    policy_from_csv,
    policy_to_csv,
    project_simplex,
    softmax,
    uniform_policy,
)


def entropy_logs(log_row: np.ndarray) -> float:
    """Entropy straight from log-probabilities."""
    return float(-np.sum(np.exp(log_row) * log_row))


def total_variation(p_row: np.ndarray, q_row: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.asarray(p_row) - np.asarray(q_row))))


finite_logits = arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 6)),
    elements=st.floats(-30, 30),
)


class TestConstruction:
    def test_uniform_probs(self):
        pol = uniform_policy(2, 4)
        assert np.allclose(pol.probs, 0.25)
        assert entropy(pol.probs[0]) == pytest.approx(math.log(4), abs=1e-12)

    def test_uniform_degenerate(self):
        pol = uniform_policy(1, 1)
        assert pol.probs[0, 0] == 1.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            JointPolicy(np.log(np.array([[0.5, 0.6]])))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            JointPolicy(np.array([[0.0, -np.inf]]))

    def test_from_probs_floors_zeros(self):
        pol = JointPolicy.from_probs(np.array([[1.0, 0.0]]))
        assert np.all(np.isfinite(pol.log_probs))
        assert pol.probs[0, 0] == pytest.approx(1.0)

    def test_policy_is_immutable(self):
        pol = uniform_policy(2, 2)
        with pytest.raises(ValueError):
            pol.log_probs[0, 0] = 0.0


class TestSoftmax:
    def test_constant_logits_give_uniform(self):
        pol = softmax(SoftmaxParams(np.full((3, 5), 2.7)))
        assert np.allclose(pol.probs, 0.2, atol=1e-15)

    def test_direct_evaluation(self):
        pol = softmax(SoftmaxParams(np.array([[0.0, math.log(3.0)]])))
        assert np.allclose(pol.probs, [[0.25, 0.75]], atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(theta=finite_logits, c=st.floats(-50, 50))
    def test_shift_invariance(self, theta, c):
        base = softmax(SoftmaxParams(theta))
        shifted = softmax(SoftmaxParams(theta + c))
        assert np.allclose(base.probs, shifted.probs, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(theta=finite_logits)
    def test_rows_normalized(self, theta):
        pol = softmax(SoftmaxParams(theta))
        assert np.max(np.abs(logsumexp(pol.log_probs, axis=-1))) <= 1e-12


class TestEntropy:
    def test_uniform_twenty(self):
        assert entropy(np.full(20, 0.05)) == pytest.approx(2.995732273553991, abs=1e-12)

    def test_quarter_three_quarters(self):
        # 0.25 log 4 + 0.75 log(4/3), by scalar arithmetic
        assert entropy(np.array([0.25, 0.75])) == pytest.approx(0.5623351446188083, abs=1e-12)

    def test_near_point_mass(self):
        row = np.array([1.0 - 1e-12, 1e-12])
        assert 0.0 <= entropy(row) < 1e-10

    def test_logs_variant_matches(self, rng):
        lp = normalize_logs(rng.normal(size=6))
        assert entropy_logs(lp) == pytest.approx(entropy(np.exp(lp)), abs=1e-12)

    def test_boundary_zero_prob(self):
        assert entropy(np.array([1.0, 0.0])) == 0.0


class TestDivergences:
    def test_kl_self_is_zero(self, rng):
        p = rng.dirichlet(np.ones(5))
        assert kl(p, p) == 0.0

    def test_kl_hand_value(self):
        got = kl(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert got == pytest.approx(0.14384103622589042, abs=1e-12)

    def test_kl_of_rows_a_rounding_error_apart(self):
        # Pinsker is tight near p = q: KL = 2 TV^2 to leading order, TV = 2.5e-11 here.
        p = np.array([0.5, 0.5])
        q = np.exp(normalize_logs(np.array([1e-10, 0.0])))
        assert kl(p, q) == pytest.approx(2.0 * total_variation(p, q) ** 2, rel=1e-4, abs=0.0)

    @settings(max_examples=80, deadline=None)
    @given(logits=arrays(np.float64, st.tuples(st.just(2), st.integers(2, 6)),
                         elements=st.floats(-10, 10)))
    def test_kl_nonnegative(self, logits):
        # policy.kl against an exactly summed p log(p/q), in both directions. Each
        # reference term is rounded once, so the reference is off the true
        # divergence by a few ulps of the sum of |terms|.
        p, q = np.exp(normalize_logs(logits))
        for a, b in ((p, q), (q, p)):
            terms = [x * math.log(x / y) for x, y in zip(a.tolist(), b.tolist())]
            reference = math.fsum(terms)
            got = kl(a, b)
            assert got >= 0.0
            assert abs(got - reference) <= 1e-14 * (1.0 + math.fsum(abs(t) for t in terms))

    def test_jeffrey_symmetric(self, rng):
        p = JointPolicy.from_logits(rng.normal(size=(3, 4)))
        q = JointPolicy.from_logits(rng.normal(size=(3, 4)))
        assert jeffrey(p, q) == pytest.approx(jeffrey(q, p), rel=1e-12)
        assert jeffrey(p, p) == 0.0

    def test_jeffrey_additive_over_product(self, rng):
        # Jeffrey of the joint product distribution equals the sum over agents,
        # verified against the dense joint tensors.
        p = JointPolicy.from_logits(rng.normal(size=(2, 3)))
        q = JointPolicy.from_logits(rng.normal(size=(2, 3)))
        joint_p = np.multiply.outer(p.probs[0], p.probs[1]).ravel()
        joint_q = np.multiply.outer(q.probs[0], q.probs[1]).ravel()
        joint_j = kl(joint_p, joint_q) + kl(joint_q, joint_p)
        per_agent = sum(
            kl(p.probs[i], q.probs[i]) + kl(q.probs[i], p.probs[i]) for i in range(2)
        )
        assert jeffrey(p, q) == pytest.approx(joint_j, rel=1e-10)
        assert jeffrey(p, q) == pytest.approx(per_agent, rel=1e-12)

    def test_jeffrey_logs_never_negative(self, rng):
        lp = normalize_logs(rng.normal(size=(4, 6)))
        lq = normalize_logs(lp + 1e-16 * rng.normal(size=(4, 6)))
        assert jeffrey_logs(np.exp(lp), lp, np.exp(lq), lq) >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(logits=arrays(np.float64, st.tuples(st.just(2), st.integers(2, 6)),
                         elements=st.floats(-8, 8)))
    def test_pinsker(self, logits):
        lp, lq = normalize_logs(logits)
        p, q = np.exp(lp), np.exp(lq)
        assert total_variation(p, q) <= math.sqrt(kl(p, q) / 2.0) + 1e-12


class TestLogPolicyDistanceBound:
    @settings(max_examples=100, deadline=None)
    @given(x=arrays(np.float64, st.tuples(st.just(2), st.integers(2, 8)),
                    elements=st.floats(-20, 20)))
    def test_log_softmax_is_two_lipschitz(self, x):
        x1, x2 = x
        l1 = normalize_logs(x1)
        l2 = normalize_logs(x2)
        assert np.max(np.abs(l1 - l2)) <= 2.0 * np.max(np.abs(x1 - x2)) + 1e-12


class TestSimplexProjection:
    def test_known_points(self):
        assert np.allclose(project_simplex(np.array([0.9, 0.9])), [0.5, 0.5])
        assert np.allclose(project_simplex(np.array([1.2, -0.3])), [1.0, 0.0])

    def test_already_on_simplex(self, rng):
        p = rng.dirichlet(np.ones(6))
        assert np.allclose(project_simplex(p), p, atol=1e-12)

    def test_kkt_conditions(self, rng):
        # Optimality of the projection: active coordinates share one shift
        # v - theta, inactive ones satisfy v <= theta, and the result is feasible.
        for _ in range(50):
            v = rng.normal(scale=2.0, size=8)
            p = project_simplex(v)[0]
            assert np.all(p >= 0.0)
            assert np.sum(p) == pytest.approx(1.0, abs=1e-12)
            active = p > 0
            shifts = v[active] - p[active]
            theta = shifts[0]
            assert np.allclose(shifts, theta, atol=1e-10)
            assert np.all(v[~active] <= theta + 1e-10)

    def test_beats_random_feasible_points(self, rng):
        # Sampled quadratic-program check: no simplex point is closer to v.
        v = rng.normal(size=5)
        p = project_simplex(v)[0]
        d_star = np.sum((p - v) ** 2)
        for _ in range(200):
            q = rng.dirichlet(np.ones(5))
            assert d_star <= np.sum((q - v) ** 2) + 1e-12


class TestSerialization:
    def test_csv_round_trip(self, rng, tmp_path):
        pol = JointPolicy.from_logits(rng.normal(size=(3, 4)))
        policy_to_csv(pol, tmp_path / "p.csv")
        back = policy_from_csv(tmp_path / "p.csv")
        assert np.allclose(back.probs, pol.probs, rtol=0, atol=1e-16)

    def test_csv_floors_underflow(self, tmp_path):
        lp = normalize_logs(np.array([[0.0, -800.0]]))
        policy_to_csv(JointPolicy(lp), tmp_path / "p.csv")
        row = (tmp_path / "p.csv").read_text().splitlines()[0].split(",")
        assert float(row[1]) == PROB_FLOOR

    def test_csv_17_digits(self, tmp_path):
        policy_to_csv(uniform_policy(1, 3), tmp_path / "p.csv")
        text = (tmp_path / "p.csv").read_text()
        assert text.splitlines()[0].split(",")[0] == "0.33333333333333331"
