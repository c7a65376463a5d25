"""Offline scalability experiments (Section V-B; Figs. 2a, 2b, 2c, 3).

Each sweep builds AMT-style instances, runs the requested solvers, and
returns per-point measurements: response time (with the Matching/Lsap phase
split of Fig. 2a) and objective value (Fig. 2b).  The benches print these as
paper-style series; the integration tests assert the qualitative shapes
(HTA-GRE faster than HTA-APP, comparable objectives).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.instance import HTAInstance
from ..core.solvers import get_solver
from ..data.amt import AMTConfig, generate_amt_pool
from ..data.workers import generate_offline_workers
from ..rng import ensure_rng

DEFAULT_SOLVERS = ("hta-app", "hta-gre")

#: Solvers built on the HTA pipeline; the figures time them on the paper's
#: square auxiliary LSAP, the formulation whose cost Lemma 3 describes.
_PIPELINE_SOLVERS = ("hta-app", "hta-gre")


@dataclass(frozen=True)
class OfflinePoint:
    """One (solver, instance size) measurement, averaged over repeats."""

    solver: str
    n_tasks: int
    n_workers: int
    n_groups: int
    x_max: int
    total_time: float
    matching_time: float
    lsap_time: float
    objective: float

    def row(self) -> list[object]:
        return [
            self.solver,
            self.n_tasks,
            self.n_workers,
            self.n_groups,
            round(self.total_time, 4),
            round(self.matching_time, 4),
            round(self.lsap_time, 4),
            round(self.objective, 2),
        ]


ROW_HEADERS = [
    "solver",
    "|T|",
    "|W|",
    "#groups",
    "total_s",
    "matching_s",
    "lsap_s",
    "objective",
]


def build_offline_instance(
    n_tasks: int,
    tasks_per_group: int,
    n_workers: int,
    x_max: int,
    rng: "int | np.random.Generator | None" = None,
    n_groups: int | None = None,
) -> HTAInstance:
    """An AMT-style instance in the paper's offline setup.

    ``n_groups`` defaults to ``n_tasks / tasks_per_group`` (the paper keeps
    200 tasks per group while sweeping |T|); pass it explicitly for the
    Fig. 3 diversity sweep.
    """
    generator = ensure_rng(rng)
    if n_groups is None:
        if n_tasks % tasks_per_group != 0:
            raise ValueError(
                f"n_tasks={n_tasks} is not a multiple of "
                f"tasks_per_group={tasks_per_group}"
            )
        n_groups = n_tasks // tasks_per_group
        per_group = tasks_per_group
    else:
        if n_tasks % n_groups != 0:
            raise ValueError(
                f"n_tasks={n_tasks} is not a multiple of n_groups={n_groups}"
            )
        per_group = n_tasks // n_groups
    pool = generate_amt_pool(
        AMTConfig(n_groups=n_groups, tasks_per_group=per_group), rng=generator
    )
    workers = generate_offline_workers(n_workers, pool.vocabulary, rng=generator)
    return HTAInstance(pool, workers, x_max)


def measure_point(
    solver_name: str,
    instance: HTAInstance,
    n_repeats: int = 3,
    rng: "int | np.random.Generator | None" = None,
) -> OfflinePoint:
    """Run one solver ``n_repeats`` times on ``instance`` and average.

    HTA-APP and HTA-GRE solve the paper's square auxiliary LSAP
    (``lsap_shape="square"``), so the Matching/Lsap split reproduces
    Figs. 2 and 3.
    """
    generator = ensure_rng(rng)
    options = {"lsap_shape": "square"} if solver_name in _PIPELINE_SOLVERS else {}
    solver = get_solver(solver_name, **options)
    totals, matchings, lsaps, objectives = [], [], [], []
    # Warm the cached matrices so the first repeat isn't charged for them.
    instance.profile_pair
    instance.relevance
    for _ in range(n_repeats):
        result = solver.solve(instance, generator)
        totals.append(result.timings.get("total", 0.0))
        matchings.append(result.timings.get("matching", 0.0))
        lsaps.append(result.timings.get("lsap", 0.0))
        objectives.append(result.objective)
    groups = len(instance.tasks.groups())
    return OfflinePoint(
        solver=solver_name,
        n_tasks=instance.n_tasks,
        n_workers=instance.n_workers,
        n_groups=groups,
        x_max=instance.x_max,
        total_time=float(np.mean(totals)),
        matching_time=float(np.mean(matchings)),
        lsap_time=float(np.mean(lsaps)),
        objective=float(np.mean(objectives)),
    )


def sweep_tasks(
    task_counts: tuple[int, ...],
    tasks_per_group: int,
    n_workers: int,
    x_max: int,
    solvers: tuple[str, ...] = DEFAULT_SOLVERS,
    n_repeats: int = 3,
    rng: "int | np.random.Generator | None" = None,
) -> list[OfflinePoint]:
    """Fig. 2a/2b: vary |T| at fixed |W| and tasks-per-group."""
    generator = ensure_rng(rng)
    points = []
    for n_tasks in task_counts:
        instance = build_offline_instance(
            n_tasks, tasks_per_group, n_workers, x_max, generator
        )
        for solver_name in solvers:
            points.append(measure_point(solver_name, instance, n_repeats, generator))
    return points


def sweep_workers(
    worker_counts: tuple[int, ...],
    n_tasks: int,
    tasks_per_group: int,
    x_max: int,
    solvers: tuple[str, ...] = DEFAULT_SOLVERS,
    n_repeats: int = 3,
    rng: "int | np.random.Generator | None" = None,
) -> list[OfflinePoint]:
    """Fig. 2c: vary |W| at fixed |T|."""
    generator = ensure_rng(rng)
    points = []
    for n_workers in worker_counts:
        instance = build_offline_instance(
            n_tasks, tasks_per_group, n_workers, x_max, generator
        )
        for solver_name in solvers:
            points.append(measure_point(solver_name, instance, n_repeats, generator))
    return points


def sweep_groups(
    group_counts: tuple[int, ...],
    n_tasks: int,
    n_workers: int,
    x_max: int,
    solvers: tuple[str, ...] = DEFAULT_SOLVERS,
    n_repeats: int = 3,
    rng: "int | np.random.Generator | None" = None,
) -> list[OfflinePoint]:
    """Fig. 3: vary the number of task groups (task diversity) at fixed |T|."""
    generator = ensure_rng(rng)
    points = []
    for n_groups in group_counts:
        instance = build_offline_instance(
            n_tasks,
            tasks_per_group=0,  # unused when n_groups is explicit
            n_workers=n_workers,
            x_max=x_max,
            rng=generator,
            n_groups=n_groups,
        )
        for solver_name in solvers:
            points.append(measure_point(solver_name, instance, n_repeats, generator))
    return points


def points_by_solver(points: list[OfflinePoint]) -> dict[str, list[OfflinePoint]]:
    """Group sweep output per solver, preserving sweep order."""
    grouped: dict[str, list[OfflinePoint]] = {}
    for point in points:
        grouped.setdefault(point.solver, []).append(point)
    return grouped
