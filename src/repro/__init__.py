"""repro — reproduction of "Task Relevance and Diversity as Worker Motivation
in Crowdsourcing" (Pilourdault, Amer-Yahia, Basu Roy, Lee; ICDE 2018).

The package implements the paper end to end:

* :mod:`repro.core` — the motivation model (Eqs. 1-3), the HTA problem, the
  MAXQAP encoding (Eqs. 4-8), the HTA-APP / HTA-GRE approximation algorithms,
  baselines, an exact oracle, and the adaptive alpha/beta estimation loop;
* :mod:`repro.matching` — the combinatorial substrate: greedy and exact
  maximum-weight matching and four LSAP solvers (Hungarian, greedy, auction,
  brute force), all from scratch;
* :mod:`repro.crowd` — a discrete-event crowdsourcing-platform simulator
  reproducing the paper's online deployment (Fig. 4 workflow, Fig. 5
  metrics);
* :mod:`repro.data` — synthetic AMT / CrowdFlower workload generators
  standing in for the paper's crawled corpora;
* :mod:`repro.analysis` — the statistics (z-test, Mann-Whitney U) and curve
  machinery (cumulative quality/throughput, retention survival);
* :mod:`repro.experiments` — ready-to-run drivers for every figure.

Quickstart::

    from repro import HTAInstance, TaskPool, WorkerPool, get_solver

    solver = get_solver("hta-gre")
    result = solver.solve(instance, rng=42)
    print(result.assignment.summary(), result.objective)
"""

import os

# One BLAS thread unless the operator says otherwise.  The Jaccard kernel's
# products are small; a second OpenBLAS thread buys them little and spins
# after each one, which the serving daemon pays for in CPU on every ingest.
# OpenBLAS reads this once, when numpy loads it, so it is set before any
# module of the package imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import (
    Assignment,
    HTAInstance,
    MotivationEstimator,
    MotivationWeights,
    Task,
    TaskPool,
    Vocabulary,
    Worker,
    WorkerPool,
    motivation,
    run_adaptive_loop,
    task_diversity,
    task_relevance,
)
from .core.solvers import SolveResult, Solver, get_solver, solver_names
from .errors import (
    InfeasibleProblemError,
    InvalidAssignmentError,
    InvalidInstanceError,
    NotAMetricError,
    ReproError,
    SimulationError,
    UnknownSolverError,
)

__version__ = "1.0.0"

__all__ = [
    "Assignment",
    "HTAInstance",
    "InfeasibleProblemError",
    "InvalidAssignmentError",
    "InvalidInstanceError",
    "MotivationEstimator",
    "MotivationWeights",
    "NotAMetricError",
    "ReproError",
    "SimulationError",
    "SolveResult",
    "Solver",
    "Task",
    "TaskPool",
    "UnknownSolverError",
    "Vocabulary",
    "Worker",
    "WorkerPool",
    "__version__",
    "get_solver",
    "motivation",
    "run_adaptive_loop",
    "solver_names",
    "task_diversity",
    "task_relevance",
]
