"""Acceptance suite: one test per release criterion, printed as it passes.

The first four criteria share one ensemble: the 4-agent, 20-action
identical-interest benchmark with Beta(1/2,1/2) payoffs, run for three
regularization levels and the projected-gradient baseline, ten seeds each.
The ensemble takes a few minutes; run with `pytest tests/test_acceptance.py -v -s`
to watch the per-criterion lines.
"""

import itertools
import math
import time

import numpy as np
import pytest

from inpg.dynamics import RunConfig, npg_step, run
from inpg.game import expected_utility, make_general_potential, make_identical_interest
from inpg.harness import (
    agg_basename,
    plot_directory,
    read_csv_columns,
    read_run_meta,
    run_basename,
    run_experiment,
    seeded_game_specs,
    theorem1_sides,
)
from inpg.metrics import (
    best_response,
    marginalized_utilities,
    ne_gap,
    policy_values,
    qre_gap,
    qre_gap_terms,
)
from inpg.policy import (
    JointPolicy,
    SoftmaxParams,
    jeffrey,
    kl,
    normalize_logs,
    row_entropies,
    softmax,
    uniform_policy,
)

from oracle import (
    analytic_theta_gradient,
    fd_theta_gradient,
    fisher_npg_step,
    grid_gap,
    naive_marginal,
)

BASE_SEED = 7
NUM_SEEDS = 10
TAUS = (1e-2, 1e-3, 1e-4)
ITERS = {1e-2: 10_000, 1e-3: 30_000, 1e-4: 10_000}
PG_ITERS = 10_000


def _passed(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion:2d}] PASS  {detail}")


@pytest.fixture(scope="session")
def ensemble_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ensemble"))
    specs = seeded_game_specs("identical", 4, 20, base_seed=BASE_SEED, runs=NUM_SEEDS)
    variants = [RunConfig(method="npg", tau=tau, eta="auto", max_iters=ITERS[tau])
                for tau in TAUS]
    variants.append(RunConfig(method="pg_direct", eta="auto", max_iters=PG_ITERS))
    outcomes = run_experiment(out, specs, variants, jobs=2)
    errors = [outcome for outcome in outcomes if outcome.error is not None]
    assert not errors, f"runs failed during the ensemble: {errors}"
    return out


def _npg_summaries(ensemble_dir):
    for tau in TAUS:
        for k in range(NUM_SEEDS):
            seed = BASE_SEED + k
            yield tau, seed, read_run_meta(
                f"{ensemble_dir}/{run_basename('npg', tau, seed)}.meta.json"
            )


def test_criterion_1_monotone_regularized_potential(ensemble_dir):
    """Every step of every compliant run improves the regularized potential by
    at least the step's Jeffrey divergence over twice the learning rate."""
    worst = math.inf
    for tau, seed, summary in _npg_summaries(ensemble_dir):
        assert summary.num_steps >= 10_000, (tau, seed)
        assert summary.min_monotonicity_slack >= -1e-9, (tau, seed, summary.min_monotonicity_slack)
        worst = min(worst, summary.min_monotonicity_slack)
    _passed(1, f"30 runs x >=1e4 steps; worst per-step slack {worst:.3e} >= -1e-9")


def test_criterion_2_average_gap_bound(ensemble_dir):
    """Measured average QRE-gap never exceeds the run's own guaranteed bound."""
    tightest = math.inf
    for tau, seed, summary in _npg_summaries(ensemble_dir):
        lhs, rhs = theorem1_sides(summary)
        assert lhs <= rhs, (tau, seed, lhs, rhs)
        tightest = min(tightest, rhs / lhs)
    _passed(2, f"0 violations across 30 runs; smallest bound/measured ratio {tightest:.3g}")


def test_criterion_3_initial_distance_bound(ensemble_dir):
    """From uniform policies the log-distance to the best response is at most 2/tau."""
    for tau, seed, summary in _npg_summaries(ensemble_dir):
        assert summary.initial_br_log_distance <= 2.0 / tau, (tau, seed)
    _passed(3, "initial best-response log-distance <= 2/tau for all 30 runs")


def test_criterion_4_gap_sandwich(ensemble_dir):
    """ne_gap <= qre_gap + tau*log|A| at every iterate of every regularized run."""
    worst = -math.inf
    for tau, seed, summary in _npg_summaries(ensemble_dir):
        assert summary.max_sandwich_slack <= 1e-10, (tau, seed, summary.max_sandwich_slack)
        worst = max(worst, summary.max_sandwich_slack)
    _passed(4, f"max sandwich slack {worst:.3e} <= 1e-10 over every step of 30 runs")


def test_criterion_5_fisher_oracle_equivalence():
    """The log-space multiplicative update equals the explicit Fisher-preconditioned
    gradient step, and the analytic gradient matches finite differences."""
    rng = np.random.default_rng(501)
    checked = 0
    worst_policy = 0.0
    worst_grad = 0.0
    grid = list(itertools.product((1, 2, 3), (2, 3, 4), (0.01, 0.1), (0.0, 0.1, 1.0)))
    for idx, (n, a, eta, tau) in enumerate(grid * 2):
        maker = make_identical_interest if idx % 2 else make_general_potential
        game = maker(n, a, seed=1000 + idx)
        params = SoftmaxParams(rng.normal(size=(n, a)))
        pol = softmax(params)
        stepped = npg_step(game, pol, eta=eta, tau=tau)
        fisher = fisher_npg_step(game, params, eta=eta, tau=tau)
        worst_policy = max(worst_policy, float(np.max(np.abs(stepped.probs - fisher.probs))))
        for i in range(n):
            r = naive_marginal(game, i, pol)
            grad = analytic_theta_gradient(r, pol.log_probs[i], tau)
            grad_fd = fd_theta_gradient(game, i, params, tau)
            rel = float(np.max(np.abs(grad - grad_fd))) / max(float(np.max(np.abs(grad))), 1e-8)
            worst_grad = max(worst_grad, rel)
        checked += 1
    assert checked >= 100
    assert worst_policy <= 1e-6
    assert worst_grad <= 1e-5
    _passed(5, f"{checked} instances; max policy diff {worst_policy:.2e} <= 1e-6, "
               f"max gradient rel err {worst_grad:.2e} <= 1e-5")


def test_criterion_6_brute_force_equivalence():
    """Marginalized utilities, NE-gap, and QRE-gap agree with their brute-force oracles."""
    rng = np.random.default_rng(601)

    worst_marginal = 0.0
    for idx in range(100):
        n = int(rng.integers(1, 4))
        a = int(rng.integers(2, 6))
        maker = make_identical_interest if idx % 2 else make_general_potential
        game = maker(n, a, seed=2000 + idx)
        pol = JointPolicy.from_logits(rng.normal(size=(n, a)))
        r_all = marginalized_utilities(game, pol)
        for i in range(n):
            worst_marginal = max(
                worst_marginal, float(np.max(np.abs(r_all[i] - naive_marginal(game, i, pol))))
            )
    assert worst_marginal <= 1e-12

    # NE-gap: the inner simplex maximization reduces to pure actions exactly,
    # and agrees with deviations evaluated through the full joint tensor.
    worst_ne = 0.0
    for idx in range(30):
        n = int(rng.integers(1, 4))
        a = int(rng.integers(2, 5))
        game = make_general_potential(n, a, seed=3000 + idx)
        pol = JointPolicy.from_logits(rng.normal(size=(n, a)))
        r_all = marginalized_utilities(game, pol)
        got = ne_gap(game, pol)
        vertex_max = max(
            max(float(np.dot(np.eye(a)[v], r_all[i])) for v in range(a))
            - float(np.sum(r_all[i] * pol.probs[i]))
            for i in range(n)
        )
        assert got == max(vertex_max, 0.0)  # vertex reduction is exact, no tolerance
        best = 0.0
        for i in range(n):
            current = expected_utility(game, i, pol)
            for v in range(a):
                lp = pol.log_probs.copy()
                lp[i] = np.full(a, -1e4)
                lp[i, v] = 0.0
                best = max(best, expected_utility(game, i, JointPolicy(lp)) - current)
        worst_ne = max(worst_ne, abs(got - best))
    assert worst_ne <= 1e-12

    worst_grid = -math.inf
    for idx in range(20):
        game = make_general_potential(2, 2, seed=4000 + idx)
        pol = JointPolicy.from_logits(rng.normal(size=(2, 2)))
        tau = float(rng.uniform(0.5, 1.0))
        r_all = marginalized_utilities(game, pol)
        values = policy_values(r_all, pol.probs)
        h = row_entropies(pol.probs, pol.log_probs)
        terms = qre_gap_terms(r_all, r_all.max(axis=-1), values, h, tau)
        for i in range(2):
            diff = terms[i] - grid_gap(game, i, pol, tau, grid_resolution=1e-4)
            assert -1e-10 <= diff <= 1e-6  # grid search may undershoot by the spacing slack
            worst_grid = max(worst_grid, diff)
    _passed(6, f"marginals within {worst_marginal:.1e} of nested loops (100 games); "
               f"NE-gap exact vs pure deviations; QRE terms within {worst_grid:.1e} of grid")


def test_criterion_7_lemma_property_suites():
    """Scalar and vector inequalities the convergence analysis rests on."""
    # log-softmax is 2-Lipschitz from logits, uniformly over coordinates
    t0 = time.perf_counter()
    rng = np.random.default_rng(701)
    x1 = rng.normal(scale=5.0, size=(2000, 8))
    x2 = rng.normal(scale=5.0, size=(2000, 8))
    lhs = np.max(np.abs(normalize_logs(x1) - normalize_logs(x2)), axis=1)
    rhs = 2.0 * np.max(np.abs(x1 - x2), axis=1)
    assert np.all(lhs <= rhs + 1e-12)
    t_logts = time.perf_counter() - t0
    assert t_logts < 5.0

    # marginalized utilities are sqrt(Jeffrey)-Lipschitz in the joint policy
    t0 = time.perf_counter()
    games = [make_general_potential(int(n), int(a), seed=int(50 * n + a))
             for n in (2, 3) for a in (2, 3, 4, 5)]
    violations = 0
    for case in range(500):
        game = games[case % len(games)]
        p = JointPolicy.from_logits(rng.normal(size=(game.num_agents, game.num_actions)))
        q = JointPolicy.from_logits(rng.normal(size=(game.num_agents, game.num_actions)))
        bound = math.sqrt(jeffrey(p, q))
        gap = float(np.max(np.abs(marginalized_utilities(game, p) - marginalized_utilities(game, q))))
        if gap > bound + 1e-12:
            violations += 1
    assert violations == 0
    t_rlip = time.perf_counter() - t0
    assert t_rlip < 5.0

    # scalar inequality 0 <= x - log(1+x) <= x log(1+x) on (-1, inf)
    t0 = time.perf_counter()
    xs = np.concatenate([
        -1.0 + np.logspace(-9, 0, 600, endpoint=False),
        np.array([0.0]),
        np.logspace(-12, 6, 600),
    ])
    mid = xs - np.log1p(xs)
    upper = xs * np.log1p(xs)
    assert np.all(mid >= -1e-16)
    assert np.all(mid <= upper * (1 + 1e-12) + 1e-15)
    t_scalar = time.perf_counter() - t0
    assert t_scalar < 5.0

    # Jeffrey divergence of a product policy equals the sum over agents,
    # cross-checked against the dense joint distributions
    t0 = time.perf_counter()
    violations = 0
    for case in range(500):
        n = 2 if case % 2 else 3
        a = 2 + case % 3
        p = JointPolicy.from_logits(rng.normal(size=(n, a)))
        q = JointPolicy.from_logits(rng.normal(size=(n, a)))
        joint_p = p.probs[0]
        joint_q = q.probs[0]
        for i in range(1, n):
            joint_p = np.multiply.outer(joint_p, p.probs[i])
            joint_q = np.multiply.outer(joint_q, q.probs[i])
        joint = kl(joint_p.ravel(), joint_q.ravel()) + kl(joint_q.ravel(), joint_p.ravel())
        if not math.isclose(jeffrey(p, q), joint, rel_tol=1e-10, abs_tol=1e-12):
            violations += 1
    assert violations == 0
    t_add = time.perf_counter() - t0
    assert t_add < 5.0
    _passed(7, f"0 violations (2000 logit pairs {t_logts:.2f}s, 500 policy pairs {t_rlip:.2f}s, "
               f"scalar grid {t_scalar:.2f}s, 500 product cases {t_add:.2f}s)")


def _agg(ensemble_dir, method, tau):
    return read_csv_columns(f"{ensemble_dir}/{agg_basename(method, tau)}.csv")


def test_criterion_8_figure_reproduction(ensemble_dir):
    """Qualitative shape of the benchmark figures, on 10-seed averages."""
    # (a) the regularized potential curves never decrease
    for tau in TAUS:
        agg = _agg(ensemble_dir, "npg", tau)
        assert np.all(np.diff(agg["phi_tau"]) >= -1e-12), tau

    # (b) stronger regularization closes its own average equilibrium gap faster:
    # the reported certificate (running average of the gap) is strictly smaller
    # for tau=1e-2 than for tau=1e-3 at every matched logged iteration
    a2 = _agg(ensemble_dir, "npg", 1e-2)
    a3 = _agg(ensemble_dir, "npg", 1e-3)
    m = len(a2["iter"])
    assert np.array_equal(a2["iter"], a3["iter"][:m])
    margin = a3["avg_qre_gap"][:m] - a2["avg_qre_gap"]
    assert np.all(margin > 0.0)
    assert a2["qre_gap"][m - 1] < a3["qre_gap"][m - 1]  # and the final iterates agree in order

    # (c) weaker regularization wins on the unregularized gap in the long run,
    # and both beat the direct-parameterization baseline to any level that sits
    # meaningfully inside every curve's range
    plateau_12 = float(np.mean(a2["ne_gap"][a2["iter"] >= 0.9 * a2["iter"][-1]]))
    final_13 = float(a3["ne_gap"][-1])
    assert final_13 < plateau_12

    pg = _agg(ensemble_dir, "pg_direct", 0.0)

    def first_reach(cols, level):
        hits = np.nonzero(cols["ne_gap"] <= level)[0]
        return float(cols["iter"][hits[0]]) if len(hits) else math.inf

    for label, npg_cols in (("1e-2", a2), ("1e-3", a3)):
        floor = 1.1 * max(float(npg_cols["ne_gap"].min()), float(pg["ne_gap"].min()))
        ceiling = 0.9 * float(pg["ne_gap"][0])
        for level in np.geomspace(floor, ceiling, 8):
            t_npg = first_reach(npg_cols, level)
            t_pg = first_reach(pg, level)
            assert t_npg < t_pg, (label, level, t_npg, t_pg)
    _passed(8, f"potential curves monotone; avg gap ordering margin >= {margin.min():.2e}; "
               f"long-run ne_gap {final_13:.2e} < plateau {plateau_12:.2e}; "
               "both variants beat the baseline to every tested level")


def test_criterion_9_qre_fixed_point():
    """Full-strength updates (eta*tau = 1) are damped best responses; at
    convergence the policy satisfies the softmax fixed-point equation."""
    rng = np.random.default_rng(901)
    cases = [
        (make_identical_interest(4, 20, seed=BASE_SEED), 1.0),
        (make_identical_interest(4, 20, seed=BASE_SEED), 0.25),
        (make_general_potential(3, 4, seed=3), 2.0),
        (make_general_potential(2, 5, seed=9), 1.0),
    ]
    worst_gap = 0.0
    worst_residual = 0.0
    for game, tau in cases:
        starts = [
            uniform_policy(game.num_agents, game.num_actions),
            JointPolicy.from_logits(rng.normal(size=(game.num_agents, game.num_actions))),
        ]
        for pol in starts:
            # one full-strength step must equal the best response exactly
            stepped = npg_step(game, pol, eta=1.0 / tau, tau=tau)
            r = marginalized_utilities(game, pol)
            for i in range(game.num_agents):
                assert np.allclose(stepped.probs[i], best_response(r[i], tau), atol=1e-13)
            for _ in range(5000):
                new = npg_step(game, pol, eta=1.0 / tau, tau=tau)
                moved = jeffrey(new, pol)
                pol = new
                if moved <= 1e-24:
                    break
            gap = qre_gap(game, pol, tau)
            r = marginalized_utilities(game, pol)
            residual = max(
                float(np.max(np.abs(pol.probs[i] - best_response(r[i], tau))))
                for i in range(game.num_agents)
            )
            assert gap <= 1e-8
            assert residual <= 1e-6
            worst_gap = max(worst_gap, gap)
            worst_residual = max(worst_residual, residual)
    _passed(9, f"8 starts converged; worst qre_gap {worst_gap:.1e} <= 1e-8, "
               f"worst fixed-point residual {worst_residual:.1e} <= 1e-6")


def test_criterion_10_pipeline_determinism(tmp_path):
    """Two executions of the benchmark pipeline (all methods, 10 seeds, figures)
    produce byte-identical CSVs and SVGs, independent of worker count."""
    import os

    def pipeline(out, jobs):
        specs = seeded_game_specs("identical", 4, 20, base_seed=BASE_SEED, runs=NUM_SEEDS)
        variants = [
            RunConfig(method="npg", tau=1e-2, eta="auto", max_iters=1500),
            RunConfig(method="npg", tau=1e-3, eta="auto", max_iters=1500),
            RunConfig(method="pg_direct", eta="auto", max_iters=1500),
        ]
        run_experiment(out, specs, variants, jobs=jobs)
        plot_directory(out)

    d1, d2 = str(tmp_path / "first"), str(tmp_path / "second")
    pipeline(d1, jobs=2)
    pipeline(d2, jobs=1)
    names1 = sorted(os.listdir(d1))
    assert names1 == sorted(os.listdir(d2))
    assert any(n.endswith(".svg") for n in names1)
    for name in names1:
        with open(os.path.join(d1, name), "rb") as f1, open(os.path.join(d2, name), "rb") as f2:
            assert f1.read() == f2.read(), name
    _passed(10, f"{len(names1)} files byte-identical across repeated executions "
                "(including different worker counts)")
