"""Fig. 3 — effect of task diversity (number of task groups) on response time.

Paper: |T| = 10,000 fixed, #task groups 10..10,000; more groups means more
diverse profit values, fewer 0-weight edges in the Hungarian's dual, and so
slower HTA-APP — while HTA-GRE is oblivious to diversity (its sort does not
care about value distribution).  At 1/10 scale (|T| = 500, groups 4..250) we
assert: HTA-GRE faster everywhere and HTA-GRE's spread across the sweep
small relative to HTA-APP's.
"""

import pytest

from repro.analysis import format_table
from repro.core.solvers import get_solver
from repro.experiments import measure_point
from repro.experiments.offline import ROW_HEADERS

from conftest import (
    GROUP_SWEEP,
    N_TASKS_FIXED,
    N_WORKERS,
    cached_instance,
    interleaved_points,
)


@pytest.mark.parametrize("n_groups", GROUP_SWEEP)
@pytest.mark.parametrize("solver_name", ["hta-app", "hta-gre"])
def test_fig3_response_time(benchmark, solver_name, n_groups):
    instance = cached_instance(N_TASKS_FIXED, N_WORKERS, n_groups=n_groups)
    solver = get_solver(solver_name)
    benchmark.pedantic(solver.solve, args=(instance, 0), rounds=1, iterations=1)


def test_fig3_series(report):
    instances = [
        cached_instance(N_TASKS_FIXED, N_WORKERS, n_groups=n) for n in GROUP_SWEEP
    ]
    # HTA-GRE's points are measured round by round, after one untimed
    # solve, as in Fig. 2c: host speed drifts over the seconds HTA-APP's
    # solves take, and a process's first solve pays one-off costs.
    measure_point("hta-gre", instances[0], n_repeats=1, rng=0)
    gre = interleaved_points("hta-gre", instances)
    app = [measure_point("hta-app", instance, rng=0) for instance in instances]
    report(
        format_table(
            ROW_HEADERS,
            [p.row() for pair in zip(app, gre) for p in pair],
            title=f"Fig. 3: response time vs #task groups (|T| = {N_TASKS_FIXED})",
        )
    )
    # Shape 1: HTA-GRE faster at every diversity level.
    assert all(g.total_time < a.total_time for a, g in zip(app, gre))
    # Shape 2: HTA-GRE's runtime is insensitive to task diversity (small
    # absolute spread across the sweep compared to HTA-APP's).
    gre_spread = max(g.total_time for g in gre) - min(g.total_time for g in gre)
    app_spread = max(a.total_time for a in app) - min(a.total_time for a in app)
    assert gre_spread < max(app_spread, 0.05)
