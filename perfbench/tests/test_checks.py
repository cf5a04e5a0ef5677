"""Tests of the benchmark's own correctness checks and span tracer.

Run with: python3 -m pytest perfbench/tests
"""

import itertools
import math
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import spans  # noqa: E402
from inpg import harness  # noqa: E402
from inpg.dynamics import RunConfig  # noqa: E402
from inpg.game import make_general_potential, make_identical_interest  # noqa: E402


def random_probs(rng, agents, actions):
    p = rng.random((agents, actions)) + 0.05
    return p / p.sum(axis=1, keepdims=True)


def brute_marginal(tensor, probs, agent):
    out = np.zeros(tensor.shape[agent])
    for idx in itertools.product(*(range(n) for n in tensor.shape)):
        weight = math.prod(probs[j][a] for j, a in enumerate(idx) if j != agent)
        out[idx[agent]] += tensor[idx] * weight
    return out


def brute_final_values(potential, utilities, probs, tau):
    """phi_tau and both gaps straight from their definitions, by enumeration."""
    entropy = [-sum(p * math.log(p) for p in row) for row in probs]
    phi = sum(potential[idx] * math.prod(probs[j][a] for j, a in enumerate(idx))
              for idx in itertools.product(*(range(n) for n in potential.shape)))
    ne, qre = 0.0, 0.0
    for i, u in enumerate(utilities):
        r = brute_marginal(u, probs, i)
        value = sum(r[a] * probs[i][a] for a in range(len(r)))
        ne = max(ne, max(r) - value)
        soft = tau * math.log(sum(math.exp(x / tau) for x in r))
        qre = max(qre, soft - value - tau * entropy[i])
    return phi + tau * sum(entropy), ne, qre


@pytest.mark.parametrize("make,agents,actions", [
    (make_identical_interest, 3, 3), (make_general_potential, 3, 2), (make_general_potential, 2, 4),
])
def test_einsum_recomputation_matches_brute_force(make, agents, actions):
    game = make(agents, actions, 5)
    probs = random_probs(np.random.default_rng(1), agents, actions)
    for i in range(agents):
        np.testing.assert_allclose(checks.marginal(game.utilities[i], probs, i),
                                   brute_marginal(game.utilities[i], probs, i), rtol=0, atol=1e-14)
    got = checks.final_values(game.potential, game.utilities, probs, 0.3)
    want = brute_final_values(game.potential, game.utilities, probs, 0.3)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.fixture
def experiment(tmp_path):
    specs = harness.seeded_game_specs("general", 2, 3, base_seed=3, runs=2)
    variant = RunConfig(method="npg", tau=0.1, eta="auto", max_iters=40)
    harness.run_experiment(str(tmp_path), specs, [variant])
    games = {s.seed: s.build() for s in specs}
    return tmp_path, games, variant


def run_files(out_dir, variant, seed):
    base = os.path.join(out_dir, harness.run_basename(variant.method, variant.tau, seed))
    return base + ".csv", base + ".policy.csv"


def check(out_dir, games, variant, seed):
    csv_path, policy_path = run_files(out_dir, variant, seed)
    g = games[seed]
    return checks.check_run(csv_path, policy_path, g.potential, g.utilities,
                            variant.method, variant.tau, variant.max_iters)


def agg_check(out_dir, games, variant):
    agg = os.path.join(out_dir, harness.agg_basename(variant.method, variant.tau) + ".csv")
    return checks.check_aggregate(agg, [run_files(out_dir, variant, s)[0] for s in sorted(games)])


def alter_cell(path, row, column, transform):
    with open(path) as f:
        lines = f.read().splitlines()
    cells = lines[row].split(",")
    cells[column] = format(transform(float(cells[column])), ".17g")
    lines[row] = ",".join(cells)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def test_program_outputs_pass(experiment):
    out_dir, games, variant = experiment
    for seed in games:
        assert check(out_dir, games, variant, seed) == []
    assert agg_check(out_dir, games, variant) == []


@pytest.mark.parametrize("row,column,transform,expected", [
    (-1, 2, lambda x: x + 1e-6, "final ne_gap"),
    (-1, 1, lambda x: x * (1 + 1e-9), "final phi_tau"),
    (20, 1, lambda x: x - 0.5, "phi_tau falls"),
    (5, 2, lambda x: x + 1.0, "ne_gap > qre_gap"),
])
def test_hand_altered_run_row_is_a_failure(experiment, row, column, transform, expected):
    out_dir, games, variant = experiment
    seed = min(games)
    alter_cell(run_files(out_dir, variant, seed)[0], row, column, transform)
    fails = check(out_dir, games, variant, seed)
    assert any(expected in msg for msg in fails), fails
    assert agg_check(out_dir, games, variant) != []


def test_hand_altered_aggregate_row_is_a_failure(experiment):
    out_dir, games, variant = experiment
    agg = os.path.join(out_dir, harness.agg_basename(variant.method, variant.tau) + ".csv")
    alter_cell(agg, 3, 5, lambda x: x * (1 + 1e-12))
    assert agg_check(out_dir, games, variant) != []


def test_policy_off_the_simplex_is_a_failure(experiment):
    out_dir, games, variant = experiment
    seed = min(games)
    alter_cell(run_files(out_dir, variant, seed)[1], 0, 0, lambda x: x + 1e-6)
    assert any("simplex" in msg for msg in check(out_dir, games, variant, seed))


def test_potential_residual_detects_a_broken_game():
    game = make_general_potential(3, 3, 9)
    assert checks.potential_residual(game.potential, game.utilities) <= checks.POTENTIAL_TOL
    broken = [u.copy() for u in game.utilities]
    broken[1][0, 2, 1] += 1e-6
    assert checks.potential_residual(game.potential, broken) > checks.POTENTIAL_TOL


def test_tracer_self_time_and_missing_wrap_point():
    points = spans.WRAP_POINTS + (("inpg.dynamics", "no_such_layer", "gone"),)
    tracer = spans.Tracer(points)
    game = make_identical_interest(2, 3, 1)
    with tracer:
        log = harness.run(game, RunConfig(method="mwu", max_iters=5))
    assert tracer.missing == ["inpg.dynamics.no_such_layer"]
    assert harness.run.__name__ == "run"  # restored on exit
    assert len(spans.durations(tracer.spans, "sweep")) == log.num_steps + 1
    (run_self,) = spans.self_times(tracer.spans, "run")
    (run_total,) = spans.durations(tracer.spans, "run")
    children = sum(s[3] - s[2] for s in tracer.spans if s[1] == 0)
    assert run_self == pytest.approx(run_total - children)
    assert len(spans.start_intervals(tracer.spans, "sweep")) == log.num_steps
