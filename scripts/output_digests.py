#!/usr/bin/env python3
"""Print the SHA-256 of every output file of a fixed command set, to compare checkouts.

    python3 scripts/output_digests.py --root <checkout> --out <empty dir>

Runs each command below against `<root>/src`, each into its own subdirectory
of --out, then runs `inpg audit` on every subdirectory. A command is one or
more argvs, each run in order in a fresh subprocess with `--out <subdirectory>`
appended and `{out}` replaced by that subdirectory.
Prints one `sha256  relpath` line per output file and one per audit stdout
(`relpath` is `<dir>/audit.stdout`). Two checkouts produce byte-identical
outputs exactly when their printed lines are equal. Exits 1 if any command or
audit exits non-zero.

`ragged` runs three seeds that stop early at different iterations, so their
aggregate covers only the iterations every run logged. Checkouts whose
`aggregate_csvs` still rejects unequal iteration grids fail that command, and
the script exits 1 there; that failure is expected, not a defect of the script.

`gen4x20` is the shape of the benchmark's general 4x20 workload, where two
folds of the sweep read the full tensor. `five` runs 5 agents, so most of its
sweep's folds are the small ones, over tensors of 6^2 to 6^4 entries.

`lock` runs 40 seeds of 2x10 games, which step as one lockstep batch. `split`
runs 20 seeds of 5x6 games, more than one batch's byte budget holds, so they
step as batches of 16 and 4. `pgsmall` runs pg_direct on 8 seeds of 2x10
with two workers, so they step as two batches of 4, one per worker.

`noncompliant` runs npg with `--eta 1.2`, above the guaranteed rate, so its
`audit.stdout` holds the lines `audit` prints where Theorem 1 does not apply;
every other command runs at `--eta auto`.

`file` runs `inpg generate`, then `inpg run --game` on the file it wrote, so
its digests cover the game file, its summary and a run named by the file's
seed.
"""

import argparse
import hashlib
import os
import subprocess
import sys

SMALL = ["--agents", "2", "--actions", "3"]

# (subdirectory, then each argv after the interpreter; "inpg" runs the package's CLI)
COMMANDS = (
    ("fig", ["scripts/reproduce_figures.py", "--quick", "--runs", "2", "--jobs", "2"]),
    ("gen", ["inpg", "run", "--kind", "general", "--agents", "3", "--actions", "4",
             "--runs", "2", "--tau", "0.1", "--iters", "300"]),
    ("mwu", ["inpg", "run", "--method", "mwu", "--agents", "2", "--actions", "5",
             "--runs", "2", "--iters", "300"]),
    ("stop", ["inpg", "run", "--agents", "2", "--actions", "4", "--seed", "3", "--tau", "0.5",
              "--iters", "5000", "--stop-qre-gap", "1e-6"]),
    ("ragged", ["inpg", "run", *SMALL, "--runs", "3", "--tau", "0.1",
                "--stop-qre-gap", "1e-6", "--iters", "5000"]),
    ("zero_pg", ["inpg", "run", "--method", "pg_direct", "--runs", "2", "--iters", "0", *SMALL]),
    ("zero_mwu", ["inpg", "run", "--method", "mwu", "--iters", "0", *SMALL]),
    ("zero_npg", ["inpg", "run", "--tau", "0.2", "--iters", "0", *SMALL]),
    ("gen4x20", ["inpg", "run", "--kind", "general", "--agents", "4", "--actions", "20",
                 "--runs", "1", "--tau", "0.01", "--iters", "1000"]),
    ("five", ["inpg", "run", "--agents", "5", "--actions", "6", "--tau", "0.1", "--iters", "300"]),
    ("lock", ["inpg", "run", "--agents", "2", "--actions", "10", "--runs", "40", "--tau", "0.1",
              "--iters", "200"]),
    ("split", ["inpg", "run", "--agents", "5", "--actions", "6", "--runs", "20", "--tau", "0.1",
               "--iters", "100"]),
    ("pgsmall", ["inpg", "run", "--method", "pg_direct", "--agents", "2", "--actions", "10",
                 "--runs", "8", "--jobs", "2", "--iters", "200"]),
    ("noncompliant", ["inpg", "run", "--agents", "2", "--actions", "4", "--seed", "3",
                      "--tau", "0.2", "--eta", "1.2", "--iters", "10"]),
    ("file", ["inpg", "generate", "--kind", "general", "--agents", "3", "--actions", "4", "--seed", "5"],
     ["inpg", "run", "--game", "{out}/game_general_N3_A4_seed5.pg", "--tau", "0.1", "--iters", "300"]),
)


def _run(root: str, args: list[str], out_dir: str) -> subprocess.CompletedProcess:
    args = [arg.replace("{out}", out_dir) for arg in args]
    if args[0] == "inpg":
        argv = [sys.executable, "-m", "inpg", *args[1:]]
    else:
        argv = [sys.executable, os.path.join(root, args[0]), *args[1:]]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    return subprocess.run([*argv, "--out", out_dir], env=env, capture_output=True, text=True)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout whose src/ is run")
    parser.add_argument("--out", required=True, help="directory for the outputs (made if missing)")
    args = parser.parse_args()
    root, out = os.path.abspath(args.root), os.path.abspath(args.out)

    failed = []
    digests = []
    for name, *command in COMMANDS:
        out_dir = os.path.join(out, name)
        for argv in (*command, ["inpg", "audit"]):
            proc = _run(root, argv, out_dir)
            if proc.returncode != 0:
                failed.append(f"{name}: {' '.join(argv)} exited {proc.returncode}: "
                              f"{proc.stderr.strip()}")
        digests.append((_sha256(proc.stdout.encode()), f"{name}/audit.stdout"))
        for fname in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
            with open(os.path.join(out_dir, fname), "rb") as f:
                digests.append((_sha256(f.read()), f"{name}/{fname}"))

    for digest, relpath in digests:
        print(f"{digest}  {relpath}")
    for line in failed:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
