"""The benchmark's worker must finish a short round of every workload with no failed operation.

`perfbench/worker.py` drives the program through `harness.run_experiment` and
unpacks each run's outcome; a change to that outcome's shape would fail every
operation of the benchmark. This runs each workload for one short round.
"""

import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("workload", ["figures-4x20", "general-4x20-file", "small-2x10"])
def test_a_short_worker_round_fails_no_operation(tmp_path, workload):
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", "0", "--spawned-at", repr(time.monotonic()),
         "--work-dir", str(tmp_path / "work")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0
