"""The benchmark's workloads as plain data (importing this module loads no numpy).

Every workload draws its games from the benchmark's ``--seed``: game k has
seed ``run_seed(seed, k) = seed + k``, the same rule as ``inpg run --runs``.
A round runs every variant on every game through ``harness.run_experiment``,
then ``plot_directory`` and ``audit_directory``. Rounds repeat until the run's
time is up, so every run attempts whole rounds of the same operations. Why
each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Variant:
    method: str
    tau: float
    iters: int


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # generator: "identical" or "general"
    agents: int
    actions: int
    games: int
    variants: tuple[Variant, ...]
    workers: int  # capped at the CPUs this process may use
    from_files: bool  # set-up writes the games with save_game; runs load them

    @property
    def operations_per_round(self) -> int:
        """Learning runs, one aggregation per variant, the plot and the audit."""
        return len(self.variants) * self.games + len(self.variants) + 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="figures-4x20",
            kind="identical",
            agents=4,
            actions=20,
            games=4,
            # The budgets of scripts/reproduce_figures.py divided by 100.
            variants=(Variant("npg", 1e-2, 100), Variant("npg", 1e-3, 1000),
                      Variant("pg_direct", 0.0, 1000)),
            workers=2,
            from_files=False,
        ),
        Workload(
            name="general-4x20-file",
            kind="general",
            agents=4,
            actions=20,
            games=3,
            variants=(Variant("npg", 1e-2, 1000),),
            workers=1,
            from_files=True,
        ),
        Workload(
            name="small-2x10",
            kind="identical",
            agents=2,
            actions=10,
            games=40,
            variants=(Variant("npg", 0.1, 200), Variant("mwu", 0.0, 200)),
            workers=1,
            from_files=False,
        ),
    )
}
