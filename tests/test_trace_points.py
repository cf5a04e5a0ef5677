"""The benchmark's traced run must find every wrap point it times, and see it called.

`perfbench/spans.py` times the program's layers by replacing module attributes
that the program calls through at run time. A wrap point that no longer exists
is listed in `Tracer.missing`; one that exists but is never called records no
spans. Either way the benchmark silently leaves that layer's metrics out, so
this test runs a small experiment that reaches every layer and requires a span
from each wrap point.
"""

import os
import sys

from inpg import game as game_mod
from inpg import harness
from inpg.dynamics import RunConfig

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import spans  # noqa: E402


def test_every_wrap_point_records_a_span(tmp_path):
    # One span name per wrap point, so each one's calls can be told apart.
    points = [(module, attr, f"{module}.{attr}") for module, attr, _ in spans.WRAP_POINTS]
    tracer = spans.Tracer(points)
    with tracer:
        game_mod.make_identical_interest(2, 3, 4)
        path = str(tmp_path / "game.pg")
        game_mod.save_game(game_mod.make_general_potential(2, 3, 4), path)
        game_mod.load_game(path)
        specs = harness.seeded_game_specs("identical", 2, 3, base_seed=1, runs=2) + [
            harness.GameSpec(source="general", num_agents=2, num_actions=3, seed=3),
            harness.GameSpec(source="file", path=path, seed=4),
        ]
        variants = [RunConfig(method="npg", tau=0.1, max_iters=5),
                    RunConfig(method="mwu", max_iters=5),
                    RunConfig(method="pg_direct", max_iters=5)]
        out = str(tmp_path / "out")
        harness.run_experiment(out, specs, variants)
        harness.plot_directory(out)
        harness.audit_directory(out)
    assert tracer.missing == []
    recorded = {span[0] for span in tracer.spans}
    assert [name for _, _, name in points if name not in recorded] == []


def test_a_shared_batch_calls_every_dynamics_wrap_point(tmp_path):
    # A file game's variants step as rows of one shared batch, a loop of its own
    # sweep kernel and method groups; it must call through the same wrap points.
    points = [(module, attr, f"{module}.{attr}") for module, attr, _ in spans.WRAP_POINTS
              if module == "inpg.dynamics"]
    path = str(tmp_path / "game.pg")
    game_mod.save_game(game_mod.make_general_potential(3, 4, 4), path)
    variants = [RunConfig(method="npg", tau=0.1, max_iters=5),
                RunConfig(method="mwu", max_iters=5),
                RunConfig(method="pg_direct", max_iters=5)]
    spec = harness.GameSpec(source="file", path=path, seed=4)
    out = str(tmp_path / "out")
    assert harness.lockstep_batches([spec] * len(variants)) == [[0, 1, 2]]
    tracer = spans.Tracer(points)
    with tracer:
        harness.run_experiment(out, [spec], variants)
    recorded = {span[0] for span in tracer.spans}
    assert [name for _, _, name in points if name not in recorded] == []
