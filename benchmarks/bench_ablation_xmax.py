"""Ablation — the per-worker capacity Xmax.

The paper fixes Xmax (20 offline, 15 online) without sweeping it.  This
ablation sweeps Xmax at fixed |T| and |W|, showing how runtime and total
motivation scale with capacity — the quadratic diversity term makes the
objective grow superlinearly in Xmax while HTA-GRE's runtime stays flat
(the LSAP size depends on |T|, not Xmax).
"""

import pytest

from repro.analysis import format_table
from repro.core.solvers import get_solver
from repro.experiments import build_offline_instance

N_TASKS = 300
N_WORKERS = 10
XMAX_SWEEP = (2, 5, 10, 20)


def instance_for(x_max: int):
    return build_offline_instance(N_TASKS, 20, N_WORKERS, x_max, rng=7)


@pytest.mark.parametrize("x_max", XMAX_SWEEP)
def test_ablation_xmax_time(benchmark, x_max):
    instance = instance_for(x_max)
    instance.profile_pair  # warm matrices outside the timed region
    instance.relevance
    solver = get_solver("hta-gre")
    benchmark.pedantic(solver.solve, args=(instance, 0), rounds=1, iterations=1)


def test_ablation_xmax_report(report):
    rows = []
    objectives = []
    for x_max in XMAX_SWEEP:
        instance = instance_for(x_max)
        result = get_solver("hta-gre").solve(instance, rng=0)
        objectives.append(result.objective)
        rows.append(
            [
                x_max,
                result.assignment.size(),
                round(result.timings["total"], 4),
                round(result.objective, 1),
            ]
        )
    report(
        format_table(
            ["x_max", "assigned", "total_s", "objective"],
            rows,
            title=f"Ablation: Xmax sweep (|T| = {N_TASKS}, |W| = {N_WORKERS})",
        )
    )
    # Objective grows with capacity (more tasks, more pairs per worker).
    assert objectives == sorted(objectives)
    # Superlinear growth driven by the quadratic diversity term: doubling
    # Xmax from 5 to 10 should more than double the objective.
    assert objectives[2] > 2.0 * objectives[1]
