"""Adaptive motivation estimation and the iterated assignment loop (Sec. III).

The paper's adaptivity works by *observation*: each time worker ``w``
completes task ``t_j`` (after ``t_1..t_{j-1}`` within the set assigned to
her), the platform records

* the marginal diversity gain ``sum_k d(t_j, t_k)`` over the already
  completed tasks, normalized by the best gain any still-pending assigned
  task could have delivered, and
* the relevance gain ``rel(t_j, w)``, normalized the same way.

``alpha_w^i`` / ``beta_w^i`` are the averages of the collected normalized
gains, renormalized onto the simplex (the paper requires ``alpha + beta = 1``
but averages the two streams independently; renormalization is the natural
reconciliation — see DESIGN.md).

:class:`MotivationEstimator` owns that bookkeeping; :func:`run_adaptive_loop`
drives a full offline loop — solve, simulate completions, re-estimate,
re-solve — and returns its trace.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInstanceError
from ..rng import ensure_rng
from .assignment import Assignment
from .instance import HTAInstance
from .motivation import (
    best_remaining_diversity_gain,
    best_remaining_relevance_gain,
    marginal_diversity_gain,
)
from .task import TaskPool
from .worker import MotivationWeights, Worker, WorkerPool

_EPS = 1e-12


@dataclass(frozen=True)
class GainObservation:
    """One completed task's normalized gains.

    ``None`` means the gain was unobservable: the diversity gain of the first
    completed task (no reference set yet), or a gain whose normalizer is zero
    (no pending task could have contributed anything).
    """

    diversity: float | None
    relevance: float | None


def observe_gains(
    diversity_matrix: np.ndarray,
    relevance_row: np.ndarray,
    assigned: Sequence[int],
    completed_before: Sequence[int],
    new_index: int,
) -> GainObservation:
    """Normalized gains of completing ``new_index`` (Section III).

    Args:
        diversity_matrix: Full pairwise task-diversity matrix of the pool.
        relevance_row: This worker's relevance row over the pool.
        assigned: Task indices assigned to the worker this iteration.
        completed_before: Indices already completed this iteration, in order.
        new_index: The task just completed (must be assigned and pending).
    """
    assigned_set = set(assigned)
    if new_index not in assigned_set:
        raise InvalidInstanceError(
            f"completed task {new_index} was not assigned to this worker"
        )
    done = set(completed_before)
    if new_index in done:
        raise InvalidInstanceError(f"task {new_index} was already completed")
    if not done <= assigned_set:
        raise InvalidInstanceError("completed_before contains unassigned tasks")

    remaining = [t for t in assigned if t not in done]

    div_obs: float | None = None
    if completed_before:
        gain = marginal_diversity_gain(diversity_matrix, completed_before, new_index)
        best = best_remaining_diversity_gain(
            diversity_matrix, completed_before, remaining
        )
        if best > _EPS:
            div_obs = min(gain / best, 1.0)

    rel_obs: float | None = None
    best_rel = best_remaining_relevance_gain(relevance_row, remaining)
    if best_rel > _EPS:
        rel_obs = min(float(relevance_row[new_index]) / best_rel, 1.0)

    return GainObservation(diversity=div_obs, relevance=rel_obs)


class MotivationEstimator:
    """Per-worker accumulation of gain observations into (alpha, beta).

    Args:
        decay: Multiplicative decay applied to past observations each time a
            new one arrives (1.0 = the paper's plain average; < 1 weights
            recent behaviour more — an extension for drifting preferences).
        prior: Weights returned before any observation (cold start).
    """

    def __init__(
        self,
        decay: float = 1.0,
        prior: MotivationWeights | None = None,
    ):
        if not 0.0 < decay <= 1.0:
            raise InvalidInstanceError(f"decay must be in (0, 1], got {decay}")
        self._decay = decay
        self._prior = prior or MotivationWeights.balanced()
        # Per worker: [weighted sum of gains, weighted count] per factor.
        self._diversity: dict[str, list[float]] = {}
        self._relevance: dict[str, list[float]] = {}
        # Per worker: [raw diversity obs, raw relevance obs] — never decayed,
        # so cold-start "sufficient input" checks don't fire late.
        self._raw: dict[str, list[int]] = {}

    def record(self, worker_id: str, observation: GainObservation) -> None:
        """Fold one observation into the worker's running averages."""
        if observation.diversity is None and observation.relevance is None:
            return
        raw = self._raw.setdefault(worker_id, [0, 0])
        if observation.diversity is not None:
            self._fold(self._diversity, worker_id, observation.diversity)
            raw[0] += 1
        if observation.relevance is not None:
            self._fold(self._relevance, worker_id, observation.relevance)
            raw[1] += 1

    def _fold(self, store: dict[str, list[float]], worker_id: str, gain: float) -> None:
        total, count = store.get(worker_id, [0.0, 0.0])
        store[worker_id] = [total * self._decay + gain, count * self._decay + 1.0]

    def observation_count(self, worker_id: str) -> int:
        """Number of raw observations recorded for ``worker_id`` (undecayed)."""
        raw = self._raw.get(worker_id)
        if raw is None:
            return 0
        return max(raw[0], raw[1])

    def average_gains(self, worker_id: str) -> tuple[float | None, float | None]:
        """The (possibly decayed) mean diversity and relevance gains."""
        div = self._diversity.get(worker_id)
        rel = self._relevance.get(worker_id)
        mean_div = div[0] / div[1] if div and div[1] > _EPS else None
        mean_rel = rel[0] / rel[1] if rel and rel[1] > _EPS else None
        return mean_div, mean_rel

    def weights_for(self, worker_id: str) -> MotivationWeights:
        """Current (alpha, beta) estimate for ``worker_id``.

        Falls back to the prior when nothing has been observed; when only one
        factor has observations, the other defaults to the prior's share of
        the unobserved factor (keeping the estimate on the simplex).
        """
        mean_div, mean_rel = self.average_gains(worker_id)
        if mean_div is None and mean_rel is None:
            return self._prior
        if mean_div is None:
            mean_div = self._prior.alpha
        if mean_rel is None:
            mean_rel = self._prior.beta
        return MotivationWeights.from_gains(mean_div, mean_rel)

    def reset(self, worker_id: str | None = None) -> None:
        """Forget observations for one worker (or all of them)."""
        if worker_id is None:
            self._diversity.clear()
            self._relevance.clear()
            self._raw.clear()
        else:
            self._diversity.pop(worker_id, None)
            self._relevance.pop(worker_id, None)
            self._raw.pop(worker_id, None)

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of every worker's running averages."""
        return {
            "decay": self._decay,
            "prior": [self._prior.alpha, self._prior.beta],
            "diversity": {w: list(v) for w, v in self._diversity.items()},
            "relevance": {w: list(v) for w, v in self._relevance.items()},
            "raw": {w: list(v) for w, v in self._raw.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot, replacing current state."""
        self._decay = float(state["decay"])
        prior = state["prior"]
        self._prior = MotivationWeights(float(prior[0]), float(prior[1]))
        self._diversity = {
            w: [float(v[0]), float(v[1])] for w, v in state["diversity"].items()
        }
        self._relevance = {
            w: [float(v[0]), float(v[1])] for w, v in state["relevance"].items()
        }
        raw = state.get("raw")
        if raw is not None:
            self._raw = {w: [int(v[0]), int(v[1])] for w, v in raw.items()}
        else:
            # Pre-raw-count snapshots: derive from the effective counts.
            self._raw = {}
            for w in set(self._diversity) | set(self._relevance):
                div = self._diversity.get(w)
                rel = self._relevance.get(w)
                self._raw[w] = [
                    int(round(div[1])) if div else 0,
                    int(round(rel[1])) if rel else 0,
                ]


# ---------------------------------------------------------------------------
# Offline adaptive loop.
# ---------------------------------------------------------------------------

#: Given (worker, assigned indices, instance, rng), return the indices the
#: worker completes, in completion order (may be a strict subset).
CompletionPolicy = Callable[
    [Worker, Sequence[int], HTAInstance, np.random.Generator], list[int]
]


def complete_all_in_order(
    worker: Worker,
    assigned: Sequence[int],
    instance: HTAInstance,
    rng: np.random.Generator,
) -> list[int]:
    """Default policy: complete every assigned task, in assignment order."""
    return list(assigned)


@dataclass(frozen=True)
class IterationRecord:
    """What happened during one iteration of the adaptive loop."""

    iteration: int
    assignment: Assignment
    objective: float
    weights_before: dict[str, MotivationWeights]
    weights_after: dict[str, MotivationWeights]
    completed: dict[str, list[str]]


@dataclass(frozen=True)
class AdaptiveTrace:
    """Full history of an adaptive run."""

    records: list[IterationRecord]

    @property
    def n_iterations(self) -> int:
        return len(self.records)

    def objectives(self) -> list[float]:
        return [r.objective for r in self.records]

    def total_completed(self) -> int:
        return sum(
            len(tasks) for r in self.records for tasks in r.completed.values()
        )

    def final_weights(self) -> dict[str, MotivationWeights]:
        return dict(self.records[-1].weights_after) if self.records else {}


def run_adaptive_loop(
    tasks: TaskPool,
    workers: WorkerPool,
    x_max: int,
    solver: "object",
    n_iterations: int,
    completion_policy: CompletionPolicy = complete_all_in_order,
    estimator: MotivationEstimator | None = None,
    rng: "int | np.random.Generator | None" = None,
) -> AdaptiveTrace:
    """Drive the solve / observe / re-estimate / re-solve loop (Section III).

    Assigned tasks are dropped from the pool after each iteration ("once
    assigned, a task is dropped from subsequent iterations").  The loop stops
    early when the pool can no longer feed a full iteration.

    Args:
        solver: Any object with ``solve(instance, rng) -> SolveResult``.
        completion_policy: How each worker consumes its assignment (defaults
            to completing everything in order; pass a behavioural policy from
            :mod:`repro.crowd.behavior` for realistic traces).
        estimator: Bring-your-own estimator (e.g. with decay); a fresh plain
            averager is used by default.
    """
    generator = ensure_rng(rng)
    estimator = estimator or MotivationEstimator()
    current_tasks = tasks
    current_workers = workers
    records: list[IterationRecord] = []

    for iteration in range(n_iterations):
        if len(current_tasks) < 1:
            break
        instance = HTAInstance(current_tasks, current_workers, x_max)
        weights_before = {
            w.worker_id: w.weights for w in current_workers
        }
        result = solver.solve(instance, generator)
        assignment = result.assignment

        completed: dict[str, list[str]] = {}
        for q, worker in enumerate(current_workers):
            assigned_ids = assignment.tasks_of(worker.worker_id)
            assigned_idx = [current_tasks.position(tid) for tid in assigned_ids]
            order = completion_policy(worker, assigned_idx, instance, generator)
            done_so_far: list[int] = []
            for task_index in order:
                observation = observe_gains(
                    instance.diversity,
                    instance.relevance[q],
                    assigned_idx,
                    done_so_far,
                    task_index,
                )
                estimator.record(worker.worker_id, observation)
                done_so_far.append(task_index)
            completed[worker.worker_id] = [
                current_tasks[i].task_id for i in done_so_far
            ]

        updated = [
            w.with_weights(estimator.weights_for(w.worker_id))
            for w in current_workers
        ]
        current_workers = current_workers.with_updated(updated)
        weights_after = {w.worker_id: w.weights for w in current_workers}

        records.append(
            IterationRecord(
                iteration=iteration,
                assignment=assignment,
                objective=result.objective,
                weights_before=weights_before,
                weights_after=weights_after,
                completed=completed,
            )
        )

        assigned_ids = assignment.assigned_task_ids()
        if assigned_ids >= {t.task_id for t in current_tasks}:
            break
        if assigned_ids:
            current_tasks = current_tasks.without(assigned_ids)

    return AdaptiveTrace(records)
