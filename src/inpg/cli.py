"""Command-line interface: generate, run, plot, audit.

Examples:
    inpg generate --agents 4 --actions 20 --seed 7 --kind identical --out games/
    inpg run --agents 4 --actions 20 --kind identical --seed 7 \
        --method npg --tau 1e-2 --eta auto --iters 10000 --runs 10 --out results/
    inpg plot --out results/
    inpg audit --out results/

`run` prints, for each run, the block `audit` prints for its meta file: the
five theorem checks (initial distance, Jeffrey sum, monotone, theorem1,
sandwich) and the numbers behind them. A run that fails its monotone gate
or whose files cannot be written prints one `FAILED check` line instead.
`run` exits 0 when every check passes, 1 when a check or a run fails and 2
on misuse (bad flags, an unreadable game file or an --out that cannot be
made); `generate` exits 2 on misuse too, and `audit` exits 0 or 1. All
outputs are deterministic for fixed flags and base seed.
"""

from __future__ import annotations

import argparse
import os
import sys

from .dynamics import METHODS, RunConfig
from .game import load_game, make_general_potential, make_identical_interest, save_game, summarize_game
from .harness import (
    GameSpec,
    audit_directory,
    audit_lines,
    plot_directory,
    run_experiment,
    seeded_game_specs,
    summary_from_meta,
)


def _add_game_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--agents", type=int, help="number of agents N")
    p.add_argument("--actions", type=int, help="shared action-set size |A|")
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument("--kind", choices=("identical", "general"), default="identical",
                   help="game generator (default identical)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="inpg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a game file plus a text summary")
    _add_game_flags(p)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("run", help="run learning dynamics, write CSV logs")
    _add_game_flags(p)
    p.add_argument("--game", help="load the game from a file instead of generating")
    p.add_argument("--method", choices=METHODS, default="npg")
    p.add_argument("--tau", type=float, default=0.0, help="entropy regularization (npg only)")
    p.add_argument("--eta", default="auto", help="learning rate, a float or 'auto'")
    p.add_argument("--iters", type=int, default=1000, help="iteration budget T")
    p.add_argument("--runs", type=int, default=1, help="independent runs (seeds base, base+1, ...)")
    p.add_argument("--out", default="results", help="output directory")
    p.add_argument("--stop-qre-gap", type=float, default=None,
                   help="optional early exit once qre_gap falls below this value")
    p.add_argument("--jobs", type=int, default=1, help="concurrent runs (extension flag)")

    p = sub.add_parser("plot", help="render SVG figures from the CSVs in a directory")
    p.add_argument("--out", required=True, help="directory holding run/aggregate CSVs")

    p = sub.add_parser("audit", help="verify theorem-level bounds from completed run logs")
    p.add_argument("--out", required=True, help="directory holding run meta files")
    return parser


def _cmd_generate(args) -> int:
    if args.agents is None or args.actions is None:
        print("generate: --agents and --actions are required", file=sys.stderr)
        return 2
    maker = make_identical_interest if args.kind == "identical" else make_general_potential
    try:
        game = maker(args.agents, args.actions, args.seed)
        os.makedirs(args.out, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"generate: {exc}", file=sys.stderr)
        return 2
    base = f"game_{args.kind}_N{args.agents}_A{args.actions}_seed{args.seed}"
    game_path = os.path.join(args.out, base + ".pg")
    save_game(game, game_path)
    with open(os.path.join(args.out, base + ".summary.txt"), "w") as f:
        f.write(summarize_game(game))
    print(game_path)
    return 0


def _cmd_run(args) -> int:
    try:
        config = RunConfig(
            method=args.method,
            tau=args.tau,
            eta=args.eta if args.eta == "auto" else float(args.eta),
            max_iters=args.iters,
            stop_qre_gap=args.stop_qre_gap,
        )
        if args.game:
            if args.runs != 1:
                raise ValueError("--game supplies one fixed game; dynamics are deterministic, "
                                 "so --runs must be 1")
            specs = [GameSpec(source="file", path=args.game, seed=load_game(args.game).seed)]
        elif args.agents is None or args.actions is None:
            raise ValueError("provide --game or both --agents and --actions")
        else:
            specs = seeded_game_specs(args.kind, args.agents, args.actions, args.seed, args.runs)
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        os.makedirs(args.out, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2

    failed = []
    for outcome in run_experiment(args.out, specs, [config], jobs=args.jobs):
        if outcome.error is not None:
            print(f"{outcome.basename}: FAILED check {outcome.error}")
            failed.append((outcome.basename, outcome.error.partition(":")[0]))
            continue
        lines, names = audit_lines(summary_from_meta(outcome.meta))
        print("\n".join(lines))
        failed.extend((outcome.basename, name) for name in names)
    if failed:
        for base, name in failed:
            print(f"FAILED: {name} ({base})", file=sys.stderr)
        return 1
    return 0


def _cmd_plot(args) -> int:
    try:
        written = plot_directory(args.out)
    except ValueError as exc:
        print(f"plot: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


def _cmd_audit(args) -> int:
    try:
        lines, ok = audit_directory(args.out)
    except ValueError as exc:
        print(f"audit: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "run": _cmd_run,
        "plot": _cmd_plot,
        "audit": _cmd_audit,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
