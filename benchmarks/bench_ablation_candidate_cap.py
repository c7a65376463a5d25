"""Ablation — the assignment service's candidate shortlist.

The online service caps the pool it hands to the solver per iteration
(``ServiceConfig.candidate_cap``), trading assignment quality for latency —
a knob the paper's background-solve requirement implies but does not sweep.
This bench measures the trade on a single iteration: solve time and
objective vs the shortlist size.
"""

import time

import pytest

from repro.analysis import format_table
from repro.core import HTAInstance
from repro.core.solvers import get_solver
from repro.core.task import TaskPool
from repro.core.worker import WorkerPool
from repro.data import (
    CrowdFlowerConfig,
    generate_crowdflower_corpus,
    generate_online_workers,
)
from repro.rng import ensure_rng

CAPS = (100, 200, 400, 800)
N_WORKERS = 8
X_MAX = 15


def shortlist_instance(cap: int, seed: int = 0) -> HTAInstance:
    corpus = generate_crowdflower_corpus(CrowdFlowerConfig(n_tasks=2000), rng=5)
    workers = generate_online_workers(N_WORKERS, rng=6)
    rng = ensure_rng(seed)
    all_tasks = list(corpus.pool)
    picks = rng.choice(len(all_tasks), size=min(cap, len(all_tasks)), replace=False)
    pool = TaskPool((all_tasks[int(i)] for i in picks), corpus.pool.vocabulary)
    return HTAInstance(pool, WorkerPool(list(workers), workers.vocabulary), X_MAX)


@pytest.mark.parametrize("cap", CAPS)
def test_ablation_candidate_cap_time(benchmark, cap):
    instance = shortlist_instance(cap)
    instance.profile_pair
    instance.relevance
    solver = get_solver("hta-gre")
    benchmark.pedantic(solver.solve, args=(instance, 0), rounds=1, iterations=1)


def test_ablation_candidate_cap_report(report):
    rows = []
    times, objectives = {}, {}
    for cap in CAPS:
        instance = shortlist_instance(cap)
        start = time.perf_counter()
        result = get_solver("hta-gre").solve(instance, rng=0)
        elapsed = time.perf_counter() - start
        # Normalize: mean per-worker motivation (each cap assigns the same
        # number of tasks, so totals are directly comparable).
        times[cap] = elapsed
        objectives[cap] = result.objective
        rows.append([cap, round(elapsed, 4), round(result.objective, 2)])
    report(
        format_table(
            ["candidate_cap", "solve_s", "objective"],
            rows,
            title=f"Ablation: service shortlist size ({N_WORKERS} workers, Xmax={X_MAX})",
        )
    )
    # Latency grows superlinearly with the shortlist...
    assert times[CAPS[-1]] > times[CAPS[0]]
    # ...while a moderate shortlist already captures most of the objective
    # achievable from the largest one (diminishing returns).
    assert objectives[200] >= 0.7 * objectives[800]
