"""Fig. 2c — response time vs number of workers at fixed |T|.

Paper: |T| = 8,000, |W| = 30..350; HTA-APP's Hungarian slows down as |W|
grows (fewer 0-weight columns -> fewer early terminations of the Carpaneto
et al. implementation) while HTA-GRE is nearly flat in |W|.

Our Hungarian is a shortest-augmenting-path implementation without the
0-edge initialization heuristic, so it does not reproduce the paper's
|W|-sensitivity of HTA-APP (its time is flat to slightly decreasing in |W|
— see EXPERIMENTS.md).  The two robust shapes are asserted instead: HTA-GRE
is faster at every |W|, and HTA-GRE's runtime is essentially flat in |W|.
"""

import pytest

from repro.analysis import format_table
from repro.core.solvers import get_solver
from repro.experiments import measure_point
from repro.experiments.offline import ROW_HEADERS

from conftest import N_TASKS_FIXED, WORKER_SWEEP, cached_instance, interleaved_points


@pytest.mark.parametrize("n_workers", WORKER_SWEEP)
@pytest.mark.parametrize("solver_name", ["hta-app", "hta-gre"])
def test_fig2c_response_time(benchmark, solver_name, n_workers):
    instance = cached_instance(N_TASKS_FIXED, n_workers)
    solver = get_solver(solver_name)
    benchmark.pedantic(solver.solve, args=(instance, 0), rounds=1, iterations=1)


def test_fig2c_series(report):
    instances = [cached_instance(N_TASKS_FIXED, n) for n in WORKER_SWEEP]
    # HTA-GRE's points are measured before HTA-APP's multi-second solves,
    # round by round (one solve per point per round): the flatness check
    # compares them with each other, and a shared host's speed can drift
    # within seconds, so a slow spell must spread over every point.  One
    # untimed solve goes first: a process's first solve pays one-off costs
    # (numpy imports numpy.ma on its first np.unique, ~20 ms) that would
    # otherwise land on the first point.
    measure_point("hta-gre", instances[0], n_repeats=1, rng=0)
    gre = interleaved_points("hta-gre", instances)
    app = [measure_point("hta-app", instance, rng=0) for instance in instances]
    report(
        format_table(
            ROW_HEADERS,
            [p.row() for pair in zip(app, gre) for p in pair],
            title=f"Fig. 2c: response time vs |W| (|T| = {N_TASKS_FIXED})",
        )
    )
    # Shape 1: HTA-GRE beats HTA-APP at every worker count.
    assert all(g.total_time < a.total_time for a, g in zip(app, gre))
    # Shape 2: HTA-GRE's runtime is essentially flat in |W| (the greedy
    # matching's sorting cost depends on |T|, not |W|).
    gre_times = [g.total_time for g in gre]
    assert max(gre_times) < 1.5 * min(gre_times)
