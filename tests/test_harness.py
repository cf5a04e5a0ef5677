import concurrent.futures
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from inpg import dynamics, harness
from inpg.cli import main as cli_main
from inpg.dynamics import RunConfig, RunSummary, run
from inpg.game import PotentialGame, make_general_potential, make_identical_interest, save_game
from inpg.harness import (
    CHECKS,
    CSV_COLUMNS,
    CSV_HEADER,
    LOCKSTEP_BYTES,
    GameSpec,
    agg_basename,
    aggregate_csvs,
    audit_directory,
    audit_lines,
    check_monotone,
    check_sandwich,
    check_theorem1,
    lockstep_batches,
    meta_from_log,
    plot_directory,
    read_csv_columns,
    read_run_meta,
    run_basename,
    run_experiment,
    seeded_game_specs,
    summary_from_meta,
    theorem1_sides,
    write_csv_rows,
    write_run_csv,
    write_run_meta,
)
from inpg.svg import line_chart

from conftest import write_v1_game


@pytest.fixture
def pool_starts(monkeypatch):
    """Swap the process pool for one that maps in this process; returns each start's worker count."""
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return started


@pytest.fixture
def small_log():
    game = make_identical_interest(2, 4, seed=3)
    return run(game, RunConfig(method="npg", tau=0.2, max_iters=40))


class TestRunFiles:
    def test_csv_round_trip_is_lossless(self, small_log, tmp_path):
        path = tmp_path / "r.csv"
        write_run_csv(small_log, path)
        cols = read_csv_columns(path)
        assert np.array_equal(cols["iter"], small_log.iters.astype(float))
        for name, arr in (("phi_tau", small_log.phi_tau), ("qre_gap", small_log.qre_gap),
                          ("jeffrey_step", small_log.jeffrey_step)):
            assert np.array_equal(cols[name], arr)  # 17 significant digits round-trip doubles

    def test_csv_values_are_written_as_format_17g(self, tmp_path):
        # One "%" call per row must give the bytes of format(v, ".17g") for every double.
        rng = np.random.default_rng(5)
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                   1.7976931348623157e308, 0.1, 1 / 3, -1e16, 123456789.0]
        values = np.concatenate([special, rng.standard_normal(600) * 10.0 ** rng.integers(-320, 300, 600),
                                 rng.integers(-2**53, 2**53, 100).astype(float)])
        columns = [np.roll(values, j) for j in range(len(CSV_COLUMNS))]
        path = tmp_path / "values.csv"
        write_csv_rows(path, np.arange(len(values)), columns)
        expected = [CSV_HEADER] + [f"{t}," + ",".join(format(v, ".17g") for v in row)
                                   for t, row in enumerate(zip(*(c.tolist() for c in columns)))]
        assert path.read_text() == "\n".join(expected) + "\n"

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_csv_columns(path)

    def test_meta_round_trip(self, small_log, tmp_path):
        path = tmp_path / "r.meta.json"
        write_run_meta(small_log, path)
        summary = read_run_meta(path)
        assert summary.method == "npg"
        assert summary.tau == 0.2
        assert summary.num_steps == 40
        assert summary.sum_qre_gap == small_log.sum_qre_gap

    def test_meta_keys_are_run_summary_fields(self, small_log, tmp_path):
        path = tmp_path / "r.meta.json"
        write_run_meta(small_log, path)
        assert sorted(json.loads(path.read_text())) == sorted(f.name for f in fields(RunSummary))

    def test_meta_nan_becomes_null(self, tmp_path):
        game = make_identical_interest(2, 3, seed=5)
        log = run(game, RunConfig(method="mwu", max_iters=10))
        path = tmp_path / "m.meta.json"
        write_run_meta(log, path)
        raw = json.loads(path.read_text())
        assert raw["sum_qre_gap"] is None
        assert math.isnan(read_run_meta(path).sum_qre_gap)


class TestAggregate:
    def test_mean_of_columns(self, tmp_path):
        game_a = make_identical_interest(2, 4, seed=1)
        game_b = make_identical_interest(2, 4, seed=2)
        paths = []
        for k, g in enumerate((game_a, game_b)):
            log = run(g, RunConfig(method="npg", tau=0.2, max_iters=20))
            p = tmp_path / f"run_{k}.csv"
            write_run_csv(log, p)
            paths.append(str(p))
        out = tmp_path / "agg.csv"
        aggregate_csvs({p: read_csv_columns(p) for p in paths}, str(out))
        agg = read_csv_columns(out)
        a = read_csv_columns(paths[0])
        b = read_csv_columns(paths[1])
        assert np.allclose(agg["phi_tau"], (a["phi_tau"] + b["phi_tau"]) / 2, rtol=0, atol=0)

    def test_mismatched_grids_average_common_iterations(self, tmp_path):
        game = make_identical_interest(2, 4, seed=1)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_run_csv(run(game, RunConfig(method="npg", tau=0.2, max_iters=10)), p1)
        write_run_csv(run(game, RunConfig(method="npg", tau=0.2, max_iters=12)), p2)
        out = tmp_path / "agg.csv"
        aggregate_csvs({str(p): read_csv_columns(p) for p in (p1, p2)}, str(out))
        agg, a, b = (read_csv_columns(p) for p in (out, p1, p2))
        assert agg["iter"].tolist() == list(range(11))
        for name in CSV_COLUMNS:
            assert np.array_equal(agg[name], (a[name] + b[name][:11]) / 2)


class TestChecks:
    def test_all_pass_on_compliant_run(self, small_log):
        meta = meta_from_log(small_log)
        summary = summary_from_meta(meta)
        assert check_monotone(summary).ok
        assert check_theorem1(summary).passed
        assert check_sandwich(summary).passed

    def test_monotone_not_applicable_for_large_eta(self):
        game = make_identical_interest(2, 4, seed=3)
        log = run(game, RunConfig(method="npg", tau=0.2, eta=1.2, max_iters=10))
        summary = summary_from_meta(meta_from_log(log))
        res = check_monotone(summary)
        assert not res.applicable and res.ok
        res_t = check_theorem1(summary)
        assert not res_t.applicable  # premise violated, skipped with notice
        assert "skip" in res_t.detail or "not applicable" in res_t.detail


class TestExperiment:
    def test_runs_and_aggregates(self, tmp_path):
        out = str(tmp_path / "exp")
        specs = seeded_game_specs("identical", 2, 4, base_seed=5, runs=3)
        outcomes = run_experiment(out, specs, [RunConfig(method="npg", tau=0.2, max_iters=30)])
        assert all(outcome.error is None for outcome in outcomes)
        files = sorted(os.listdir(out))
        assert "agg_npg_tau0.2.csv" in files
        assert sum(f.endswith(".meta.json") for f in files) == 3
        assert sum(f.endswith(".policy.csv") for f in files) == 3
        assert sum(f.endswith(".csv") and not f.endswith(".policy.csv") for f in files) == 4

    def test_parallel_matches_serial_bytes(self, tmp_path):
        variants = [RunConfig(method="npg", tau=0.2, max_iters=25),
                    RunConfig(method="mwu", max_iters=25)]
        specs = seeded_game_specs("identical", 2, 4, base_seed=9, runs=2)
        d1, d2 = str(tmp_path / "serial"), str(tmp_path / "parallel")
        run_experiment(d1, specs, variants, jobs=1)
        run_experiment(d2, specs, variants, jobs=2)
        for name in sorted(os.listdir(d1)):
            with open(os.path.join(d1, name), "rb") as f1, open(os.path.join(d2, name), "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_file_game_spec(self, tmp_path):
        from inpg.game import save_game

        game = make_identical_interest(2, 3, seed=4)
        path = str(tmp_path / "g.pg")
        save_game(game, path)
        spec = GameSpec(source="file", path=path, seed=4)
        rebuilt = spec.build()
        assert np.array_equal(rebuilt.potential, game.potential)

    def test_file_format_does_not_change_results(self, tmp_path):
        game = make_general_potential(3, 4, seed=6)
        v1, v2 = str(tmp_path / "v1.pg"), str(tmp_path / "v2.pg")
        write_v1_game(v1, game.potential, game.utilities, game.phi_max, game.seed, game.kind)
        save_game(game, v2)
        variants = [RunConfig(method="npg", tau=0.1, max_iters=300)]
        specs = {
            "memory": GameSpec(source="general", num_agents=3, num_actions=4, seed=6),
            "v2": GameSpec(source="file", path=v2, seed=6),
            "v1": GameSpec(source="file", path=v1, seed=6),
        }
        outputs = {}
        for label, spec in specs.items():
            out = tmp_path / label
            run_experiment(str(out), [spec], variants)
            outputs[label] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert len(outputs["memory"]) == 4  # run CSV, meta, policy and aggregate
        assert outputs["v2"] == outputs["memory"]
        assert outputs["v1"] == outputs["memory"]


class TestLockstepBatches:
    def test_batches_split_at_the_byte_budget(self):
        specs = seeded_game_specs("identical", 5, 6, base_seed=1, runs=20)
        assert LOCKSTEP_BYTES // (8 * 6**5) == 16
        assert [len(b) for b in lockstep_batches(specs)] == [16, 4]

    @pytest.mark.parametrize("steps", [(40_000,), (200, 16_000)], ids=["40000", "200+16000"])
    def test_long_runs_batch_by_their_potentials_alone(self, steps, tmp_path, monkeypatch):
        # Batching reads only the game specs, never a run's length: a run's
        # record keeps a fixed size, and forty 800-byte 2x10 potentials fit one
        # batch. The batches run_experiment hands its workers are recorded, not run.
        sizes = []
        def record(out_dir, batch):
            sizes.append(len(batch))
            return ["not run"] * len(batch)
        monkeypatch.setattr("inpg.harness._execute_batch", record)
        specs = seeded_game_specs("identical", 2, 10, base_seed=1, runs=40 // len(steps))
        variants = [RunConfig(method="npg", tau=0.1, max_iters=n) for n in steps]
        assert [len(b) for b in lockstep_batches(specs * len(steps))] == [40]
        run_experiment(str(tmp_path), specs, variants)
        assert sizes == [40]

    @pytest.mark.parametrize("jobs,sizes", [(1, [40]), (2, [20, 20]), (3, [14, 14, 12])])
    def test_every_worker_gets_a_batch(self, jobs, sizes):
        specs = seeded_game_specs("identical", 2, 10, base_seed=1, runs=40)
        assert [len(b) for b in lockstep_batches(specs, jobs)] == sizes

    def test_runs_of_one_shape_share_a_batch_whatever_their_config(self):
        small = seeded_game_specs("identical", 2, 10, base_seed=1, runs=3)
        specs = small + small + [GameSpec(source="general", num_agents=2, num_actions=10, seed=9)]
        specs += [GameSpec(source="file", path="g.pg", seed=s) for s in (1, 2)]
        specs += seeded_game_specs("identical", 4, 20, base_seed=1, runs=2)  # 1.28 MB each
        assert [len(b) for b in lockstep_batches(specs)] == [7, 1, 1, 1, 1]

    def test_variants_of_one_small_game_keep_their_bytes_for_any_jobs(self, tmp_path):
        # Both runs read one 2x10 spec. At --jobs 1 they share a lockstep batch,
        # and at --jobs 2 each runs alone; a lockstep batch gives every run the
        # bits of its run alone, so neither may take the shared (folded) form.
        variants = [RunConfig(method="npg", tau=0.1, max_iters=300),
                    RunConfig(method="mwu", max_iters=300)]
        specs = [GameSpec(source="identical", num_agents=2, num_actions=10, seed=4)]
        outputs = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            run_experiment(str(out), specs, variants, jobs=jobs)
            outputs[jobs] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert len(outputs[1]) == 2 * (3 + 1)
        assert outputs[1] == outputs[2]
        alone = tmp_path / "alone"
        for variant in variants:
            (outcome,) = run_experiment(str(alone), specs, [variant])
            assert outcome.error is None
        assert outputs[1] == {f.name: f.read_bytes() for f in sorted(alone.iterdir())}

    def test_two_specs_with_one_seed_raise_before_writing(self, tmp_path):
        # Run files are named by the game's seed, so the second run would
        # overwrite the first's files and the aggregate would average one run.
        specs = []
        for g in range(2):
            path = str(tmp_path / f"g{g}.pg")
            save_game(make_identical_interest(2, 3, seed=g), path)
            specs.append(GameSpec(source="file", path=path, seed=0))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="seed 0"):
            run_experiment(str(out), specs, [RunConfig(method="npg", tau=0.1, max_iters=20)])
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batched_files_equal_runs_alone(self, tmp_path, jobs):
        variants = [RunConfig(method="npg", tau=0.1, max_iters=30),
                    RunConfig(method="pg_direct", max_iters=30)]
        specs = seeded_game_specs("identical", 5, 6, base_seed=3, runs=20)
        batched, alone = tmp_path / "batched", tmp_path / "alone"
        run_experiment(str(batched), specs, variants, jobs=jobs)
        alone.mkdir()
        for variant in variants:
            for spec in specs:
                (outcome,) = run_experiment(str(alone), [spec], [variant])
                assert outcome.error is None
            csvs = [str(alone / (run_basename(variant.method, variant.tau, spec.seed) + ".csv"))
                    for spec in specs]
            aggregate_csvs({p: read_csv_columns(p) for p in csvs},
                           str(alone / (agg_basename(variant.method, variant.tau) + ".csv")))
        files = {f.name: f.read_bytes() for f in sorted(batched.iterdir())}
        assert len(files) == 2 * (3 * 20 + 1)  # three files per run, one aggregate per variant
        assert files == {f.name: f.read_bytes() for f in sorted(alone.iterdir())}


class TestPlot:
    def test_figures_written_and_deterministic(self, tmp_path):
        out = str(tmp_path / "exp")
        specs = seeded_game_specs("identical", 2, 4, base_seed=5, runs=2)
        run_experiment(out, specs, [RunConfig(method="npg", tau=0.2, max_iters=30),
                                    RunConfig(method="pg_direct", max_iters=30)])
        written = plot_directory(out)
        assert sorted(os.path.basename(p) for p in written) == [
            "fig_ne_gap.svg", "fig_potential.svg", "fig_qre_gap.svg",
        ]
        first = {p: open(p, "rb").read() for p in written}
        plot_directory(out)
        for p, blob in first.items():
            assert open(p, "rb").read() == blob

    def test_empty_directory_errors(self, tmp_path):
        with pytest.raises(ValueError, match="no run"):
            plot_directory(str(tmp_path))

    def test_qre_figure_excludes_unregularized_series(self, tmp_path):
        out = str(tmp_path / "exp")
        specs = seeded_game_specs("identical", 2, 4, base_seed=5, runs=1)
        run_experiment(out, specs, [RunConfig(method="npg", tau=0.2, max_iters=20),
                                    RunConfig(method="mwu", max_iters=20)])
        plot_directory(out)
        text = open(os.path.join(out, "fig_qre_gap.svg")).read()
        assert "npg" in text and "mwu" not in text

    def test_line_chart_rejects_empty(self):
        with pytest.raises(ValueError, match="no series"):
            line_chart([], title="t", xlabel="x", ylabel="y")
        with pytest.raises(ValueError, match="no plottable"):
            line_chart([("s", np.array([0.0, 1.0]), np.array([np.nan, np.nan]))],
                       title="t", xlabel="x", ylabel="y")


class TestAudit:
    def test_directory_report(self, tmp_path):
        out = str(tmp_path / "exp")
        specs = seeded_game_specs("identical", 2, 4, base_seed=5, runs=2)
        run_experiment(out, specs, [RunConfig(method="npg", tau=0.2, max_iters=30),
                                    RunConfig(method="pg_direct", max_iters=30)])
        lines, ok = audit_directory(out)
        assert ok
        report = "\n".join(lines)
        assert "measured avg qre_gap" in report
        assert "regularized checks skipped" in report
        assert "all checks passed" in report

    def test_empty_directory_errors(self, tmp_path):
        with pytest.raises(ValueError, match="no run meta"):
            audit_directory(str(tmp_path))

    def test_failed_check_flips_exit_contract(self, tmp_path):
        out = str(tmp_path / "exp")
        specs = seeded_game_specs("identical", 2, 4, base_seed=5, runs=1)
        run_experiment(out, specs, [RunConfig(method="npg", tau=0.2, max_iters=20)])
        meta_path = os.path.join(out, "run_npg_tau0.2_seed5.meta.json")
        meta = json.loads(open(meta_path).read())
        meta["max_sandwich_slack"] = 1.0  # corrupt the recorded slack
        with open(meta_path, "w") as f:
            json.dump(meta, f)
        lines, ok = audit_directory(out)
        assert not ok
        assert any("FAIL" in line for line in lines)
        assert cli_main(["audit", "--out", out]) == 1


@pytest.mark.parametrize("field,value", [
    ("initial_br_log_distance", 2.0 / 0.2 + 1.0),  # above 2/tau
    ("sum_jeffrey", 1e3),  # above 2*eta*(phi_tau[T] - phi_tau[0])
])
def test_failed_bound_check_flips_exit_contract(tmp_path, field, value):
    out = str(tmp_path / "exp")
    specs = seeded_game_specs("identical", 2, 4, base_seed=5, runs=1)
    run_experiment(out, specs, [RunConfig(method="npg", tau=0.2, max_iters=20)])
    meta_path = os.path.join(out, "run_npg_tau0.2_seed5.meta.json")
    meta = json.loads(open(meta_path).read())
    meta[field] = value
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    lines, ok = audit_directory(out)
    assert not ok
    assert sum("FAIL" in line for line in lines) == 2  # the corrupted check and the summary
    assert cli_main(["audit", "--out", out]) == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["--tau", "0.2"], id="npg-auto-eta"),
    pytest.param(["--tau", "0.2", "--eta", "1.2"], id="npg-eta-1.2"),
    pytest.param(["--method", "mwu"], id="mwu"),
    pytest.param(["--method", "pg_direct"], id="pg_direct"),
    pytest.param(["--tau", "0.2", "--iters", "0"], id="npg-iters-0"),
])
def test_run_prints_the_block_audit_prints(tmp_path, capsys, argv):
    out = str(tmp_path / "res")
    assert cli_main(["run", "--agents", "2", "--actions", "3", "--seed", "1", "--iters", "20",
                     *argv, "--out", out]) == 0
    run_out = capsys.readouterr().out
    assert cli_main(["audit", "--out", out]) == 0
    *block, last = capsys.readouterr().out.splitlines()
    assert last == "audit: all checks passed"
    assert run_out.splitlines() == block


def test_audit_prints_the_bound_only_where_theorem1_applies(tmp_path):
    specs = seeded_game_specs("identical", 2, 4, base_seed=3, runs=1)
    for eta, applies in (("auto", True), (1.2, False)):
        out = str(tmp_path / f"eta{eta}")
        run_experiment(out, specs, [RunConfig(method="npg", tau=0.2, eta=eta, max_iters=10)])
        lines, ok = audit_directory(out)
        assert ok
        assert any("guaranteed upper bound" in line for line in lines) == applies
        assert any("iteration-count scale" in line for line in lines) == applies
        assert any(line.startswith("  theorem1: avg qre_gap") for line in lines) == applies


def test_no_theorem1_bound_for_a_meta_file_claiming_npg_at_tau_0():
    # RunConfig rejects npg at tau = 0, but a meta file can claim it; the bound divides by tau.
    log = run(make_identical_interest(2, 4, seed=3), RunConfig(method="npg", tau=0.2, max_iters=10))
    summary = replace(log, tau=0.0)
    assert theorem1_sides(summary) is None
    lines, _ = audit_lines(summary)
    assert not any("guaranteed upper bound" in line for line in lines)


ALL_CHECKS = "initial_distance jeffrey_sum monotone theorem1 sandwich"


@pytest.mark.parametrize("config,applies,printed", [
    pytest.param(RunConfig(method="npg", tau=0.2, max_iters=10), ALL_CHECKS, ALL_CHECKS,
                 id="npg-auto-eta"),
    pytest.param(RunConfig(method="npg", tau=0.2, eta=1.2, max_iters=10), "initial_distance sandwich",
                 "initial_distance monotone theorem1 sandwich", id="npg-eta-1.2"),
    pytest.param(RunConfig(method="mwu", max_iters=10), "", "monotone theorem1 sandwich", id="mwu"),
    pytest.param(RunConfig(method="pg_direct", max_iters=10), "", "", id="pg_direct"),
    pytest.param(RunConfig(method="npg", tau=0.2, max_iters=0), "monotone sandwich",
                 "monotone theorem1 sandwich", id="npg-iters-0"),
])
def test_which_checks_apply_and_which_print_a_line(config, applies, printed):
    summary = run(make_identical_interest(2, 4, seed=3), config)
    lines, failed = audit_lines(summary)
    results = [check(summary) for check in CHECKS]
    assert not failed
    assert [res.name for res in results if res.applicable] == applies.split()
    assert [res.name for res in results if "  " + res.detail in lines] == printed.split()


@pytest.mark.parametrize("argv", [
    pytest.param(["--agents", "2", "--actions", "3"], id="npg-default-tau0"),
    pytest.param(["--agents", "2", "--actions", "3", "--tau", "5", "--eta", "1"], id="eta-tau-above-1"),
    pytest.param(["--agents", "2", "--actions", "3", "--tau", "0.1", "--eta", "abc"], id="eta-abc"),
    pytest.param(["--agents", "2", "--actions", "3", "--tau", "0.1", "--eta", "nan"], id="eta-nan"),
    pytest.param(["--agents", "30", "--actions", "20", "--tau", "0.1"], id="above-dense-cap"),
    pytest.param(["--game", "{tmp}/missing.pg", "--tau", "0.1"], id="missing-game"),
    pytest.param(["--game", "{tmp}/bad.pg", "--tau", "0.1"], id="bad-magic"),
    pytest.param(["--game", "{tmp}/short.pg", "--tau", "0.1"], id="truncated-header"),
    pytest.param(["--game", "{tmp}/phi_max0.pg", "--tau", "0.1"], id="zero-phi-max"),
    pytest.param(["--game", "{tmp}/nan.pg", "--tau", "0.1"], id="nan-entries"),
    pytest.param(["--game", "{tmp}/non_potential.pg", "--tau", "0.1"], id="non-potential"),
    pytest.param(["--game", "{tmp}/v3.pg", "--tau", "0.1"], id="format-version-3"),
    pytest.param(["--agents", "2", "--actions", "3", "--tau", "0.1", "--iters", "-1"], id="iters-negative"),
    pytest.param(["--agents", "2", "--actions", "3", "--tau", "0.1", "--runs", "0"], id="runs-0"),
    pytest.param(["--agents", "2", "--actions", "3", "--tau", "0.1", "--jobs", "0"], id="jobs-0"),
    pytest.param(["--agents", "2", "--actions", "3", "--tau", "0.1", "--jobs", "-3"], id="jobs-negative"),
    pytest.param(["--agents", "2", "--actions", "3", "--tau", "0.1", "--seed", "-1"], id="seed-negative"),
    pytest.param(["--agents", "2", "--actions", "3", "--tau", "0.1", "--seed", str(2**64)],
                 id="seed-2**64"),
    pytest.param(["--agents", "2", "--actions", "3", "--tau", "0.1", "--stop-qre-gap", "nan"],
                 id="stop-nan"),
    pytest.param(["--agents", "2", "--actions", "3", "--tau", "0.1", "--stop-qre-gap", "-1"],
                 id="stop-negative"),
])
def test_run_misuse_exits_2_before_writing(tmp_path, capsys, argv):
    (tmp_path / "bad.pg").write_bytes(b"NOTAGAME" + b"\x00" * 64)
    (tmp_path / "short.pg").write_bytes(b"INPGGAME\x01")
    zeros, nans = np.zeros((3, 3)), np.full((3, 3), np.nan)
    save_game(PotentialGame(2, 3, zeros, (), phi_max=0.0), tmp_path / "phi_max0.pg")
    save_game(PotentialGame(2, 3, nans, (), phi_max=1.0), tmp_path / "nan.pg")
    phi = np.array([[1.0, 0.0], [0.0, 0.0]])  # both agents get 1 - phi: not a potential game
    write_v1_game(tmp_path / "non_potential.pg", phi, (1.0 - phi, 1.0 - phi), phi_max=1.0)
    save_game(make_identical_interest(2, 3, 0), tmp_path / "v3.pg")
    with open(tmp_path / "v3.pg", "r+b") as f:  # the version field follows the 8-byte magic
        f.seek(8)
        f.write((3).to_bytes(4, "little"))
    out = tmp_path / "res"
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert cli_main(["run", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("run: ")
    assert not out.exists()


def test_early_stopped_runs_aggregate_up_to_the_earliest_stop(tmp_path):
    out = tmp_path / "res"
    assert cli_main(["run", "--agents", "2", "--actions", "3", "--runs", "3", "--tau", "0.1",
                     "--stop-qre-gap", "1e-6", "--iters", "5000", "--out", str(out)]) == 0
    metas = [read_run_meta(out / f"run_npg_tau0.1_seed{k}.meta.json") for k in range(3)]
    assert all(meta.stopped_early for meta in metas)
    stops = [meta.num_steps for meta in metas]
    assert len(set(stops)) == 3  # ragged iteration grids
    agg = read_csv_columns(out / "agg_npg_tau0.1.csv")
    assert agg["iter"].tolist() == list(range(min(stops) + 1))


@pytest.mark.parametrize("argv", [
    ["run", "--agents", "2", "--actions", "3", "--tau", "0.1"],
    ["generate", "--agents", "2", "--actions", "3"],
])
def test_out_that_cannot_be_made_exits_2(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "file", tmp_path / "file" / "sub"):
        assert cli_main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(argv[0] + ": ")
    assert [f.name for f in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("corrupt,match", [
    (lambda meta: {**meta, "num_steps": "x"}, "field 'num_steps' must be int"),
    (lambda meta: [meta], "not a JSON object"),
    # Fields of the right type that no run could have written: RunConfig's rules, and sizes.
    (lambda meta: {**meta, "tau": 0.0}, "npg requires a finite tau > 0"),
    (lambda meta: {**meta, "method": "bogus"}, "unknown method 'bogus'"),
    (lambda meta: {**meta, "num_steps": -5}, "field 'num_steps' must be >= 0, got -5"),
    (lambda meta: {**meta, "eta": 10.0}, r"eta\*tau = 2 > 1"),
    (lambda meta: {**meta, "num_agents": 0}, "field 'num_agents' must be >= 1, got 0"),
    (lambda meta: {**meta, "seed": 9}, "field 'seed' is 9 but 'game_seed' is 5"),
])
def test_ill_typed_meta_file_fails_audit_in_one_line(tmp_path, capsys, corrupt, match):
    out = str(tmp_path / "exp")
    run_experiment(out, seeded_game_specs("identical", 2, 4, base_seed=5, runs=1),
                   [RunConfig(method="npg", tau=0.2, max_iters=20)])
    meta_path = os.path.join(out, "run_npg_tau0.2_seed5.meta.json")
    meta = json.loads(open(meta_path).read())
    with open(meta_path, "w") as f:
        json.dump(corrupt(meta), f)
    with pytest.raises(ValueError, match=match):
        read_run_meta(meta_path)
    assert cli_main(["audit", "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("audit: ") and meta_path in err[0]


@pytest.mark.parametrize("text,match", [
    pytest.param(lambda meta: json.dumps({k: v for k, v in meta.items() if k != "method"}),
                 "field 'method' is missing", id="missing-field"),
    pytest.param(lambda meta: "{", "not JSON", id="truncated"),
])
def test_broken_meta_file_fails_audit_naming_it(tmp_path, capsys, text, match):
    out = str(tmp_path / "exp")
    run_experiment(out, seeded_game_specs("identical", 2, 4, base_seed=5, runs=1),
                   [RunConfig(method="npg", tau=0.2, max_iters=20)])
    meta_path = os.path.join(out, "run_npg_tau0.2_seed5.meta.json")
    meta = json.loads(open(meta_path).read())
    with open(meta_path, "w") as f:
        f.write(text(meta))
    with pytest.raises(ValueError, match=match) as exc:
        read_run_meta(meta_path)
    assert meta_path in str(exc.value)
    assert cli_main(["audit", "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("audit: ") and meta_path in err[0]


def test_a_failing_run_leaves_no_files_and_the_others_aggregate(tmp_path, monkeypatch, capsys):
    # test_runtime_monotone_gate_raises's descending sweep, on the second game's rows only:
    # its gated run fails at t = 0 and the other two run as before.
    specs = seeded_game_specs("identical", 2, 3, base_seed=1, runs=3)
    bad = specs[1].build().potential
    real_sweep = dynamics.marginal_sweep

    def sweep(potentials, probs):
        r, phi_mean = real_sweep(potentials, probs)
        flip = np.array([np.array_equal(p, bad) for p in potentials])[:, None, None]
        return np.where(flip, real_sweep(1.0 - potentials, probs)[0], r), phi_mean

    monkeypatch.setattr(dynamics, "marginal_sweep", sweep)
    out = tmp_path / "res"
    outcomes = run_experiment(str(out), specs, [RunConfig(method="npg", tau=0.1, max_iters=30)])
    bases = [run_basename("npg", 0.1, spec.seed) for spec in specs]
    assert [outcome.basename for outcome in outcomes] == bases
    assert [outcome.error is None for outcome in outcomes] == [True, False, True]
    assert "improvement check failed at t=0" in outcomes[1].error
    assert not list(out.glob(bases[1] + ".*"))
    kept = {str(out / (base + ".csv")): read_csv_columns(out / (base + ".csv"))
            for base in (bases[0], bases[2])}
    aggregate_csvs(kept, str(tmp_path / "agg.csv"))
    assert (tmp_path / "agg.csv").read_bytes() == (out / "agg_npg_tau0.1.csv").read_bytes()
    assert cli_main(["run", "--agents", "2", "--actions", "3", "--seed", "1", "--runs", "3",
                     "--tau", "0.1", "--iters", "30", "--out", str(tmp_path / "cli")]) == 1
    captured = capsys.readouterr()
    assert f"{bases[1]}: FAILED check monotone: " in captured.out
    assert captured.err.splitlines() == [f"FAILED: monotone ({bases[1]})"]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("blocked", [".csv", ".policy.csv"])
def test_a_failed_write_fails_its_run_and_the_others_aggregate(tmp_path, capsys, jobs, blocked):
    # A directory where a run's file goes: that run fails with a "write" error and
    # leaves no meta file for audit, and the other run (a batch of its own at
    # --jobs 2) still writes its files and the aggregate.
    out, base = tmp_path / "out", "run_npg_tau0.1_seed1"
    (out / (base + blocked)).mkdir(parents=True)
    assert cli_main(["run", "--agents", "2", "--actions", "3", "--tau", "0.1", "--iters", "5",
                     "--runs", "2", "--jobs", str(jobs), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"FAILED: write ({base})"]
    failed = [line for line in captured.out.splitlines() if "FAILED" in line]
    assert len(failed) == 1 and failed[0].startswith(f"{base}: FAILED check write: ")
    assert not (out / (base + ".meta.json")).exists()
    specs, config = seeded_game_specs("identical", 2, 3, base_seed=0, runs=1), RunConfig(
        method="npg", tau=0.1, max_iters=5)
    (outcome,) = run_experiment(str(tmp_path / "alone"), specs, [config])
    assert outcome.error is None and outcome.meta["num_steps"] == 5
    for name in ("run_npg_tau0.1_seed0.csv", "run_npg_tau0.1_seed0.meta.json", "agg_npg_tau0.1.csv"):
        assert (out / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def _one_small_run(out):
    run_experiment(str(out), seeded_game_specs("identical", 2, 3, base_seed=0, runs=1),
                   [RunConfig(method="npg", tau=0.1, max_iters=5)])


@pytest.mark.parametrize("argv,blocked,setup,code", [
    pytest.param(["generate", "--agents", "2", "--actions", "3"],
                 "game_identical_N2_A3_seed0.pg", None, 2, id="generate-game"),
    pytest.param(["generate", "--agents", "2", "--actions", "3"],
                 "game_identical_N2_A3_seed0.summary.txt", None, 2, id="generate-summary"),
    pytest.param(["plot"], "agg_npg_tau0.1.csv", None, 1, id="plot-reads-agg"),
    pytest.param(["plot"], "fig_ne_gap.svg", _one_small_run, 1, id="plot-writes-fig"),
    pytest.param(["audit"], "run_npg_tau0.1_seed9.meta.json", _one_small_run, 1, id="audit-meta"),
    pytest.param(["run", "--agents", "2", "--actions", "3", "--tau", "0.1", "--iters", "5"],
                 "agg_npg_tau0.1.csv", None, 1, id="run-writes-agg"),
])
def test_a_file_that_cannot_be_read_or_written_ends_in_one_line(tmp_path, argv, blocked, setup, code):
    # A directory where the command reads or writes a file. The CLI runs in a
    # subprocess, so a traceback would show on its stderr.
    out = tmp_path / "out"
    if setup is not None:
        setup(out)
    (out / blocked).mkdir(parents=True)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "inpg", *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith(argv[0] + ": ") and blocked in err[0]
    if argv[0] == "run":  # the runs finished and their files stay for audit
        assert cli_main(["audit", "--out", str(out)]) == 0


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("broken", ["missing", "corrupt", "other-seed"])
def test_a_game_that_cannot_be_loaded_fails_its_runs_and_the_others_aggregate(
        tmp_path, jobs, broken):
    path = tmp_path / "game.pg"
    if broken == "corrupt":
        path.write_bytes(b"NOTAGAME" + b"\x00" * 64)
    if broken == "other-seed":  # a sound file whose seed is not its spec's
        save_game(make_identical_interest(2, 3, 4), path)
    specs = [GameSpec(source="file", path=str(path), seed=1),
             GameSpec(source="identical", num_agents=2, num_actions=3, seed=2)]
    config = RunConfig(method="npg", tau=0.1, max_iters=5)
    out = tmp_path / "out"
    bad, good = run_experiment(str(out), specs, [config], jobs=jobs)
    assert bad.basename == "run_npg_tau0.1_seed1" and bad.meta is None
    assert bad.error.startswith("game: ") and str(path) in bad.error
    assert good.error is None
    run_experiment(str(tmp_path / "alone"), specs[1:], [config])
    written = sorted(f.name for f in out.iterdir())
    assert written == sorted(f.name for f in (tmp_path / "alone").iterdir())
    for name in written:
        assert (out / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


@pytest.mark.parametrize("make", [
    pytest.param(lambda: GameSpec(source="identicial", num_agents=2, num_actions=3, seed=1), id="spec"),
    pytest.param(lambda: seeded_game_specs("bogus", 2, 3, 0, 1), id="seeded"),
])
def test_an_unknown_game_source_is_rejected(make):
    with pytest.raises(ValueError, match="unknown game source"):
        make()


def test_run_reports_a_game_its_worker_cannot_load(tmp_path, monkeypatch, capsys):
    # The file passes run's own check, then is gone when the worker loads it.
    path = str(tmp_path / "game.pg")
    save_game(make_identical_interest(2, 3, 7), path)

    def gone(p):
        raise FileNotFoundError(f"No such file or directory: {p!r}")

    monkeypatch.setattr(harness, "load_game", gone)
    out = tmp_path / "out"
    assert cli_main(["run", "--game", path, "--tau", "0.1", "--iters", "5", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    base = "run_npg_tau0.1_seed7"
    assert captured.out.splitlines() == [f"{base}: FAILED check game: No such file or directory: {path!r}"]
    assert captured.err.splitlines() == [f"FAILED: game ({base})"]
    assert list(out.iterdir()) == []


def test_pool_starts_no_more_workers_than_batches(tmp_path, pool_starts):
    specs = []
    for seed in range(3):  # each file game is a batch of its own
        path = str(tmp_path / f"g{seed}.pg")
        save_game(make_identical_interest(2, 3, seed), path)
        specs.append(GameSpec(source="file", path=path, seed=seed))
    config = RunConfig(method="npg", tau=0.1, max_iters=5)
    outcomes = run_experiment(str(tmp_path / "out"), specs, [config], jobs=10_000)
    assert all(outcome.error is None for outcome in outcomes)
    assert len(pool_starts) == 1 and 1 <= pool_starts[0] <= 3


def test_small_games_take_the_pool_for_jobs_above_1(tmp_path, pool_starts):
    specs = seeded_game_specs("identical", 2, 3, base_seed=1, runs=4)
    config = RunConfig(method="npg", tau=0.1, max_iters=5)
    assert len(lockstep_batches(specs, jobs=2)) == 2
    outcomes = run_experiment(str(tmp_path), specs, [config], jobs=2)
    assert all(outcome.error is None for outcome in outcomes)
    assert len(pool_starts) == 1


def test_generate_misuse_exits_2(tmp_path, capsys):
    out = tmp_path / "games"
    for argv in (["--agents", "30", "--actions", "20"],
                 ["--agents", "2", "--actions", "3", "--seed", "-5"],
                 ["--agents", "2", "--actions", "3", "--seed", str(2**64)]):
        assert cli_main(["generate", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("generate: ")
        assert not out.exists()


class TestCli:
    def test_generate_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "games")
        args = ["generate", "--agents", "2", "--actions", "3", "--seed", "7",
                "--kind", "identical", "--out", out]
        assert cli_main(args) == 0
        first = open(os.path.join(out, "game_identical_N2_A3_seed7.pg"), "rb").read()
        assert cli_main(args) == 0
        assert open(os.path.join(out, "game_identical_N2_A3_seed7.pg"), "rb").read() == first
        summary = open(os.path.join(out, "game_identical_N2_A3_seed7.summary.txt")).read()
        assert "num_agents: 2" in summary

    def test_run_exit_zero_and_csv_schema(self, tmp_path, capsys):
        out = str(tmp_path / "res")
        rc = cli_main(["run", "--agents", "2", "--actions", "3", "--seed", "1",
                       "--method", "npg", "--tau", "0.2", "--iters", "25",
                       "--runs", "2", "--out", out])
        assert rc == 0
        header = open(os.path.join(out, "run_npg_tau0.2_seed1.csv")).readline().strip()
        assert header == CSV_HEADER

    def test_run_iters_zero_single_row(self, tmp_path):
        out = str(tmp_path / "res")
        assert cli_main(["run", "--agents", "2", "--actions", "3", "--seed", "1",
                         "--method", "npg", "--tau", "0.2", "--iters", "0",
                         "--out", out]) == 0
        lines = open(os.path.join(out, "run_npg_tau0.2_seed1.csv")).read().splitlines()
        assert len(lines) == 2  # header plus the initial point

    def test_run_from_game_file(self, tmp_path):
        gamedir = str(tmp_path / "games")
        cli_main(["generate", "--agents", "2", "--actions", "3", "--seed", "7", "--out", gamedir])
        out = str(tmp_path / "res")
        path = os.path.join(gamedir, "game_identical_N2_A3_seed7.pg")
        assert cli_main(["run", "--game", path, "--method", "npg", "--tau", "0.5",
                         "--iters", "10", "--out", out]) == 0
        assert cli_main(["run", "--game", path, "--method", "npg", "--tau", "0.5",
                         "--iters", "10", "--runs", "3", "--out", out]) == 2

    def test_run_stop_qre_gap_flag(self, tmp_path):
        out = str(tmp_path / "res")
        assert cli_main(["run", "--agents", "2", "--actions", "4", "--seed", "3",
                         "--method", "npg", "--tau", "0.5", "--iters", "5000",
                         "--stop-qre-gap", "1e-6", "--out", out]) == 0
        meta = json.loads(open(os.path.join(out, "run_npg_tau0.5_seed3.meta.json")).read())
        assert meta["stopped_early"] is True

    def test_plot_and_audit_commands(self, tmp_path):
        out = str(tmp_path / "res")
        cli_main(["run", "--agents", "2", "--actions", "3", "--seed", "1", "--method", "npg",
                  "--tau", "0.2", "--iters", "20", "--runs", "2", "--out", out])
        assert cli_main(["plot", "--out", out]) == 0
        assert cli_main(["audit", "--out", out]) == 0
        assert cli_main(["plot", "--out", str(tmp_path / "nothing")]) == 1
        assert cli_main(["audit", "--out", str(tmp_path / "nothing")]) == 1

    def test_mwu_method_requires_zero_tau_mapping(self, tmp_path):
        out = str(tmp_path / "res")
        assert cli_main(["run", "--agents", "2", "--actions", "3", "--seed", "1",
                         "--method", "mwu", "--iters", "10", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "run_mwu_tau0_seed1.csv"))
