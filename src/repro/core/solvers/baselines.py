"""Non-adaptive baselines from the online deployment (Section V-C).

The paper compares adaptive HTA-GRE against:

* **HTA-GRE-DIV** — HTA-GRE with every worker forced to ``alpha=1, beta=0``
  (diversity only);
* **HTA-GRE-REL** — HTA-GRE with ``alpha=0, beta=1`` (relevance only);
* and we add a **random** dealer as a sanity floor.

Forcing weights is done by rebuilding the instance with overridden worker
weights while *reusing* the already-computed diversity/relevance matrices
(the matrices do not depend on alpha/beta).
"""

from __future__ import annotations

import time

import numpy as np

from ...rng import ensure_rng
from ..assignment import Assignment
from ..instance import HTAInstance
from ..worker import MotivationWeights, WorkerPool
from .base import Solver, SolveResult, register_solver
from .hta_gre import HTAGreSolver


def override_weights(instance: HTAInstance, weights: MotivationWeights) -> HTAInstance:
    """A copy of ``instance`` where every worker carries ``weights``.

    The cached profile pair and relevance matrix are transplanted onto the
    new instance — they depend only on keyword vectors, not on alpha/beta —
    so the override is O(|W|) instead of a recomputation.
    """
    new_workers = WorkerPool(
        (w.with_weights(weights) for w in instance.workers),
        instance.workers.vocabulary,
    )
    overridden = HTAInstance(
        tasks=instance.tasks,
        workers=new_workers,
        x_max=instance.x_max,
        distance=instance.distance,
    )
    # cached_property stores through __dict__, which frozen dataclasses allow.
    overridden.__dict__["profile_pair"] = instance.profile_pair
    overridden.__dict__["relevance"] = instance.relevance
    return overridden


class _FixedWeightsSolver(Solver):
    """HTA-GRE run on an instance with uniform forced weights."""

    weights: MotivationWeights

    def __init__(self, lsap_method: str = "greedy"):
        self._inner = HTAGreSolver(lsap_method=lsap_method)

    def solve(
        self,
        instance: HTAInstance,
        rng: "int | np.random.Generator | None" = None,
    ) -> SolveResult:
        forced = override_weights(instance, self.weights)
        result = self._inner.solve(forced, rng)
        # Report the objective under the *original* instance weights so the
        # baselines are comparable to HTA-GRE on one scale.
        return SolveResult(
            assignment=result.assignment,
            objective=result.assignment.objective(instance),
            timings=result.timings,
            info={**result.info, "solver": self.name,
                  "forced_alpha": self.weights.alpha,
                  "forced_beta": self.weights.beta},
        )


@register_solver
class HTAGreDivSolver(_FixedWeightsSolver):
    """HTA-GRE-DIV: optimize task diversity only (alpha=1)."""

    name = "hta-gre-div"
    weights = MotivationWeights.diversity_only()


@register_solver
class HTAGreRelSolver(_FixedWeightsSolver):
    """HTA-GRE-REL: optimize task relevance only (beta=1)."""

    name = "hta-gre-rel"
    weights = MotivationWeights.relevance_only()


@register_solver
class RandomSolver(Solver):
    """Deal ``x_max`` random tasks to each worker — the sanity floor and the
    paper's cold-start rule (first iteration of HTA-GRE)."""

    name = "random"

    def solve(
        self,
        instance: HTAInstance,
        rng: "int | np.random.Generator | None" = None,
    ) -> SolveResult:
        generator = ensure_rng(rng)
        start = time.perf_counter()
        order = generator.permutation(instance.n_tasks)
        groups: list[list[int]] = []
        cursor = 0
        for _ in range(instance.n_workers):
            groups.append([int(i) for i in order[cursor : cursor + instance.x_max]])
            cursor += instance.x_max
        assignment = Assignment.from_indices(instance, groups)
        assignment.validate(instance)
        elapsed = time.perf_counter() - start
        return SolveResult(
            assignment=assignment,
            objective=assignment.objective(instance),
            timings={"total": elapsed},
            info={"solver": self.name},
        )
