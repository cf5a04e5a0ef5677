"""Correctness checks that recompute results without the program's own code paths.

The program's files are read with this module's own parser, its numbers are
recomputed with ``numpy.einsum`` straight from the game tensors, and each
check returns a list of failure messages (empty when it passes). The formats
checked are the documented ones: the run CSV header and columns, one policy
row per agent, and aggregates as the plain mean of the per-run CSVs at
matched iterations.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np

RUN_HEADER = ["iter", "phi_tau", "ne_gap", "qre_gap", "jeffrey_step", "avg_ne_gap", "avg_qre_gap"]

# Recomputed final-row values against the CSV's: both sides are exact sums in
# double precision, ordered differently, read back from 17-digit text. The
# largest difference seen on the workloads' games is 4e-15.
RECOMPUTE_TOL = 1e-12
# A logged regularized potential may not fall by more than rounding.
MONOTONE_TOL = 1e-12
# ne_gap <= qre_gap + tau*log|A| holds exactly; allow the program's own rounding slack.
SANDWICH_TOL = 1e-10
SIMPLEX_TOL = 1e-12
# Unilateral-deviation residual of a potential game built from exact sums.
POTENTIAL_TOL = 1e-12


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a CSV ("nan" cells become NaN)."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        return [], np.empty((0, 0))
    body = [[float(v) for v in row] for row in rows[1:] if row]
    return rows[0], np.array(body, dtype=np.float64).reshape(len(body), len(rows[0]))


def read_policy(path) -> np.ndarray:
    with open(path, newline="") as f:
        return np.array([[float(v) for v in row] for row in csv.reader(f) if row])


def marginal(tensor: np.ndarray, probs: np.ndarray, agent: int) -> np.ndarray:
    """E over every opponent's action of tensor, indexed by `agent`'s action."""
    axes = list(range(tensor.ndim))
    operands: list = [tensor, axes]
    for j in axes:
        if j != agent:
            operands += [probs[j], [j]]
    return np.einsum(*operands, [agent])


def expectation(tensor: np.ndarray, probs: np.ndarray) -> float:
    axes = list(range(tensor.ndim))
    operands: list = [tensor, axes]
    for j in axes:
        operands += [probs[j], [j]]
    return float(np.einsum(*operands, []))


def _entropy(row: np.ndarray) -> float:
    p = row[row > 0]
    return float(-np.sum(p * np.log(p)))


def final_values(potential, utilities, probs: np.ndarray, tau: float) -> tuple[float, float, float]:
    """(phi_tau, ne_gap, qre_gap) of a product policy; qre_gap is NaN for tau = 0.

    The gaps use each agent's own utility tensor, so a general potential game
    is measured against its utilities and not its potential.
    """
    entropies = [_entropy(row) for row in probs]
    phi_tau = expectation(potential, probs) + tau * sum(entropies)
    ne = 0.0
    qre = 0.0 if tau > 0 else math.nan
    for i, u in enumerate(utilities):
        r = marginal(u, probs, i)
        current = float(r @ probs[i])
        ne = max(ne, float(r.max()) - current)
        if tau > 0:
            m = float(r.max())
            soft_max = m + tau * math.log(float(np.sum(np.exp((r - m) / tau))))
            qre = max(qre, soft_max - current - tau * entropies[i])
    return phi_tau, ne, qre


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def check_run(run_csv, policy_csv, potential, utilities, method: str, tau: float,
              iters: int) -> list[str]:
    """Every check on one learning run's CSV and final policy."""
    name = os.path.basename(run_csv)
    header, rows = read_table(run_csv)
    if header != RUN_HEADER:
        return [f"{name}: header {header}"]
    if rows.shape[0] == 0:
        return [f"{name}: no rows"]
    fails = []
    col = {h: rows[:, j] for j, h in enumerate(header)}
    if int(col["iter"][-1]) != iters:
        fails.append(f"{name}: last logged iteration {int(col['iter'][-1])}, expected {iters}")
    if method == "npg":
        drops = np.flatnonzero(np.diff(col["phi_tau"]) < -MONOTONE_TOL)
        if drops.size:
            k = int(drops[0])
            fails.append(f"{name}: phi_tau falls at iter {int(col['iter'][k + 1])}: "
                         f"{col['phi_tau'][k]!r} -> {col['phi_tau'][k + 1]!r}")
    if tau > 0:
        log_a = math.log(potential.shape[0])
        bad = np.flatnonzero(~(col["ne_gap"] <= col["qre_gap"] + tau * log_a + SANDWICH_TOL))
        if bad.size:
            k = int(bad[0])
            fails.append(f"{name}: ne_gap > qre_gap + tau*log|A| at iter {int(col['iter'][k])}")

    probs = read_policy(policy_csv)
    shape = (potential.ndim, potential.shape[0])
    if probs.shape != shape:
        return fails + [f"{name}: policy shape {probs.shape}, expected {shape}"]
    if not (np.all(np.isfinite(probs)) and np.all(probs >= 0)
            and np.max(np.abs(probs.sum(axis=1) - 1.0)) <= SIMPLEX_TOL):
        fails.append(f"{name}: policy rows are not on the simplex")
        return fails

    expected = final_values(potential, utilities, probs, tau)
    for label, want in zip(("phi_tau", "ne_gap", "qre_gap"), expected):
        got = float(col[label][-1])
        if not _close(got, want, RECOMPUTE_TOL):
            fails.append(f"{name}: final {label} {got!r}, recomputed {want!r}")
    return fails


def check_aggregate(agg_csv, run_csvs) -> list[str]:
    """The aggregate must equal the mean of its per-run CSVs, cell by cell."""
    name = os.path.basename(agg_csv)
    header, agg = read_table(agg_csv)
    if header != RUN_HEADER:
        return [f"{name}: header {header}"]
    tables = [read_table(p)[1] for p in run_csvs]
    if any(t.shape != agg.shape for t in tables):
        return [f"{name}: shape differs from its runs"]
    if any(np.any(t[:, 0] != agg[:, 0]) for t in tables):
        return [f"{name}: iteration column differs from its runs"]
    k = len(tables)
    for (r, c), got in np.ndenumerate(agg[:, 1:]):
        want = math.fsum(t[r, c + 1] for t in tables) / k
        if not _close(got, want, 1e-15 * max(1.0, abs(want))):
            return [f"{name}: row {r} column {header[c + 1]}: {got!r}, mean of runs {want!r}"]
    return []


def potential_residual(potential: np.ndarray, utilities) -> float:
    """Largest |(u_i - Phi)(a_i, a_-i) - (u_i - Phi)(0, a_-i)| over agents and profiles.

    Zero exactly when every unilateral deviation changes each agent's utility
    by the change of the potential.
    """
    worst = 0.0
    for i, u in enumerate(utilities):
        d = u - potential
        worst = max(worst, float(np.max(np.abs(d - np.take(d, [0], axis=i)))))
    return worst


def digests(out_dir) -> dict[str, str]:
    """SHA-256 of every file in a result directory."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out
