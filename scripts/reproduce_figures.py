#!/usr/bin/env python3
"""Reproduce the benchmark figures: 4 agents, 20 actions, Beta(1/2,1/2) payoffs.

Runs the multiplicative-update dynamics at tau = 1e-2 and 1e-3 with the
guaranteed learning rate, plus projected gradient ascent at eta = 1/160, for
10 independently drawn games, then writes aggregate CSVs, the three SVG
figures, and an audit report. Iteration budgets (1e4 for tau = 1e-2, 1e5 for
tau = 1e-3 and the baseline) are repository choices; pass --quick to divide
them by 10 while exploring.

Everything is deterministic for a fixed --seed: rerunning prints identical
SHA-256 digests for every output file.

Typical runtime: a few minutes with --jobs 2 (about 2 minutes with --quick).
"""

import argparse
import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from inpg.dynamics import RunConfig
from inpg.harness import audit_directory, plot_directory, run_experiment, seeded_game_specs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results/figures", help="output directory")
    parser.add_argument("--seed", type=int, default=7, help="base seed")
    parser.add_argument("--runs", type=int, default=10, help="independent game draws")
    parser.add_argument("--jobs", type=int, default=2, help="concurrent runs")
    parser.add_argument("--quick", action="store_true", help="tenth-size iteration budgets")
    args = parser.parse_args()

    scale = 10 if args.quick else 1
    variants = [
        RunConfig(method="npg", tau=1e-2, eta="auto", max_iters=10_000 // scale),
        RunConfig(method="npg", tau=1e-3, eta="auto", max_iters=100_000 // scale),
        RunConfig(method="pg_direct", eta="auto", max_iters=100_000 // scale),
    ]
    specs = seeded_game_specs("identical", 4, 20, base_seed=args.seed, runs=args.runs)

    print(f"running {len(variants)} variants x {args.runs} seeds into {args.out} ...")
    results = run_experiment(args.out, specs, variants, jobs=args.jobs)
    failures = [outcome for outcome in results if outcome.error is not None]
    if failures:
        for outcome in failures:
            print(f"FAILED {outcome.basename}: {outcome.error}", file=sys.stderr)
        return 1

    for path in plot_directory(args.out):
        print("wrote", path)

    lines, ok = audit_directory(args.out)
    print("\n".join(lines))

    print("\noutput digests:")
    for name in sorted(os.listdir(args.out)):
        if name.endswith((".csv", ".svg")):
            digest = hashlib.sha256(open(os.path.join(args.out, name), "rb").read()).hexdigest()
            print(f"  {digest[:16]}  {name}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
