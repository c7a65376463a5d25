"""Assignments — solver outputs — and their validation.

An :class:`Assignment` maps each worker to the set of tasks it received at
one iteration.  Constraints from Problem 1:

* C1: every worker receives at most ``x_max`` tasks;
* C2: no task is assigned to more than one worker.

Solvers return assignments in *index* form (positions into the instance's
task pool); this module converts between index and id form, validates the
constraints, and evaluates the objective.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidAssignmentError
from .instance import HTAInstance
from .motivation import group_motivations


@dataclass(frozen=True)
class Assignment:
    """Tasks assigned to each worker at one iteration.

    ``by_worker[worker_id]`` is the tuple of assigned task ids, in no
    particular order.  Workers may receive an empty tuple.
    """

    by_worker: Mapping[str, tuple[str, ...]]

    @classmethod
    def from_indices(
        cls,
        instance: HTAInstance,
        indices_by_worker: Sequence[Sequence[int]],
    ) -> "Assignment":
        """Build an assignment from per-worker task positions.

        ``indices_by_worker[q]`` are positions into ``instance.tasks`` for
        the q-th worker of ``instance.workers``.
        """
        if len(indices_by_worker) != instance.n_workers:
            raise InvalidAssignmentError(
                f"expected {instance.n_workers} index lists, "
                f"got {len(indices_by_worker)}"
            )
        mapping = {
            instance.workers[q].worker_id: tuple(
                instance.tasks[i].task_id for i in indices
            )
            for q, indices in enumerate(indices_by_worker)
        }
        return cls(mapping)

    def tasks_of(self, worker_id: str) -> tuple[str, ...]:
        """Task ids assigned to ``worker_id`` (empty tuple if none)."""
        return tuple(self.by_worker.get(worker_id, ()))

    def assigned_task_ids(self) -> set[str]:
        """All task ids assigned to any worker."""
        assigned: set[str] = set()
        for task_ids in self.by_worker.values():
            assigned.update(task_ids)
        return assigned

    def size(self) -> int:
        """Total number of assigned tasks."""
        return sum(len(task_ids) for task_ids in self.by_worker.values())

    def indices(self, instance: HTAInstance) -> list[list[int]]:
        """Per-worker task positions, in instance worker order."""
        return [
            [instance.tasks.position(tid) for tid in self.tasks_of(w.worker_id)]
            for w in instance.workers
        ]

    def validate(self, instance: HTAInstance) -> None:
        """Check C1, C2, and referential integrity against ``instance``.

        Raises :class:`InvalidAssignmentError` on the first violation.
        """
        known_workers = {w.worker_id for w in instance.workers}
        unknown_workers = set(self.by_worker) - known_workers
        if unknown_workers:
            raise InvalidAssignmentError(
                f"assignment mentions unknown workers: {sorted(unknown_workers)}"
            )
        seen_tasks: dict[str, str] = {}
        for worker_id, task_ids in self.by_worker.items():
            if len(task_ids) > instance.x_max:
                raise InvalidAssignmentError(
                    f"worker {worker_id!r} received {len(task_ids)} tasks, "
                    f"more than x_max={instance.x_max} (C1)"
                )
            if len(set(task_ids)) != len(task_ids):
                raise InvalidAssignmentError(
                    f"worker {worker_id!r} received duplicate tasks"
                )
            for task_id in task_ids:
                if task_id not in instance.tasks:
                    raise InvalidAssignmentError(
                        f"assignment mentions unknown task {task_id!r}"
                    )
                if task_id in seen_tasks:
                    raise InvalidAssignmentError(
                        f"task {task_id!r} assigned to both "
                        f"{seen_tasks[task_id]!r} and {worker_id!r} (C2)"
                    )
                seen_tasks[task_id] = worker_id

    def objective(self, instance: HTAInstance) -> float:
        """Total expected motivation of this assignment (Problem 1 objective)."""
        # Left to right, as a loop adds (``sum`` compensates from Python 3.12).
        return functools.reduce(operator.add, self._motivations(instance).tolist(), 0.0)

    def per_worker_motivation(self, instance: HTAInstance) -> dict[str, float]:
        """Each worker's motivation under this assignment."""
        ids = (worker.worker_id for worker in instance.workers)
        return dict(zip(ids, self._motivations(instance).tolist()))

    def _motivations(self, instance: HTAInstance) -> np.ndarray:
        """Eq. 3 of each worker's tasks, in instance worker order, read
        through the profile index (the ``|T| x |T|`` diversity matrix is
        never built)."""
        groups = self.indices(instance)
        sizes = np.array([len(group) for group in groups], dtype=np.intp)
        members = np.zeros((len(groups), sizes.max(initial=0)), dtype=np.intp)
        members[np.arange(members.shape[1]) < sizes[:, None]] = [
            task for group in groups for task in group
        ]
        return group_motivations(
            instance.profile_pair,
            instance.relevance,
            members,
            sizes,
            instance.alphas(),
            instance.betas() * (sizes - 1),
        )

    def summary(self) -> str:
        """Short human-readable description."""
        sizes = {w: len(ts) for w, ts in self.by_worker.items()}
        return f"Assignment({self.size()} tasks over {len(sizes)} workers)"
