"""Shared benchmark fixtures and reporting.

Every file in this directory regenerates one artifact (table/figure) of the
paper's evaluation; see EXPERIMENTS.md for the experiment index and the
paper-vs-measured record.  Benches print the paper-style series to stdout
(run with ``pytest benchmarks/ --benchmark-only -s`` to see them inline;
they also accumulate into ``benchmarks/last_run_report.txt``).
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib

import numpy as np
import pytest

from repro.experiments import build_offline_instance, measure_point

REPORT_PATH = pathlib.Path(__file__).parent / "last_run_report.txt"

#: Scaled-down sweeps (paper scale / 10; see EXPERIMENTS.md for the mapping).
TASK_SWEEP = (300, 500, 800)
WORKER_SWEEP = (5, 10, 20, 40)
GROUP_SWEEP = (4, 10, 50, 250)
TASKS_PER_GROUP = 20
N_WORKERS = 20
X_MAX = 5
N_TASKS_FIXED = 500


@functools.lru_cache(maxsize=None)
def cached_instance(n_tasks: int, n_workers: int, n_groups: int | None = None):
    """Build (and cache) one offline instance per size; also pre-computes the
    profile-distance and relevance matrices so benches time solving, not
    encoding."""
    instance = build_offline_instance(
        n_tasks,
        TASKS_PER_GROUP if n_groups is None else 0,
        n_workers,
        X_MAX,
        rng=12345,
        n_groups=n_groups,
    )
    instance.profile_pair
    instance.relevance
    return instance


def interleaved_points(solver_name: str, instances, rounds: int = 3) -> list:
    """``measure_point(solver_name, instance, n_repeats=rounds, rng=0)`` for
    each instance, with the solves taken round by round across the
    instances: a slow spell of a shared host then spreads over every point
    instead of landing on one.  Each instance keeps its own generator, so
    the solves, and the averages, are those of the back-to-back repeats."""
    generators = [np.random.default_rng(0) for _ in instances]
    by_round = [
        [
            measure_point(solver_name, instance, n_repeats=1, rng=generator)
            for instance, generator in zip(instances, generators)
        ]
        for _ in range(rounds)
    ]
    return [
        dataclasses.replace(
            samples[0],
            **{
                field: float(np.mean([getattr(p, field) for p in samples]))
                for field in ("total_time", "matching_time", "lsap_time", "objective")
            },
        )
        for samples in zip(*by_round)
    ]


@functools.lru_cache(maxsize=None)
def fig5_experiment():
    """One shared online-experiment run feeding all three Fig. 5 benches.

    Paper scale: 20 selected sessions per strategy, 158k-task corpus, 30-min
    sessions.  Bench scale: 20 selected sessions per strategy (of 28 run)
    over a 3,000-task corpus with identical session parameters (Xmax = 15,
    5 random pads, 30-minute cap).
    """
    from repro.experiments import OnlineScale, run_online_experiment

    scale = OnlineScale(
        n_sessions=20,
        n_extra_sessions=8,
        corpus_size=3000,
        session_cap_minutes=30.0,
        workers_per_batch=8,
        mean_interarrival=60.0,
    )
    return run_online_experiment(scale=scale, rng=7)


def _append_report(text: str) -> None:
    with REPORT_PATH.open("a") as f:
        f.write(text + "\n\n")


@pytest.fixture(scope="session")
def report():
    """Print a paper-style block and append it to the run report file."""
    REPORT_PATH.write_text("")

    def emit(text: str) -> None:
        print("\n" + text)
        _append_report(text)

    return emit
