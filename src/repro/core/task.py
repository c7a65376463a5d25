"""Tasks and task pools.

A :class:`Task` is a boolean keyword vector plus descriptive metadata
(Section II of the paper).  Tasks on AMT/CrowdFlower come in *groups* (HITs of
the same kind sharing keywords); :class:`TaskGroup` captures that, and a
:class:`TaskPool` is the set ``T^i`` of tasks available at an iteration.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInstanceError
from .keywords import Vocabulary, coerce_vector


@dataclass(frozen=True)
class Task:
    """A crowdsourcing micro-task.

    Attributes:
        task_id: Unique identifier within a pool.
        vector: Boolean keyword vector aligned with the pool's vocabulary.
        group: Optional task-group name (tasks of the same kind share one).
        title: Human-readable title.
        reward: Payment in dollars for completing the task.
        n_questions: Number of questions the task asks (>= 1).
    """

    task_id: str
    vector: np.ndarray
    group: str = ""
    title: str = ""
    reward: float = 0.05
    n_questions: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=bool))
        if self.reward < 0:
            raise ValueError(f"task {self.task_id!r} has negative reward {self.reward}")
        if self.n_questions < 1:
            raise ValueError(
                f"task {self.task_id!r} must ask at least one question, "
                f"got {self.n_questions}"
            )

    def keywords(self, vocabulary: Vocabulary) -> tuple[str, ...]:
        """Keyword names present in this task under ``vocabulary``."""
        return vocabulary.decode(self.vector)

    def __hash__(self) -> int:
        return hash(self.task_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Task):
            return NotImplemented
        return self.task_id == other.task_id


@dataclass(frozen=True)
class TaskGroup:
    """A group of same-kind tasks (an AMT task group / CrowdFlower job)."""

    name: str
    tasks: tuple[Task, ...]

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError(f"task group {self.name!r} is empty")

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)


class TaskPool:
    """The set of available tasks ``T^i`` with their stacked keyword matrix.

    Provides O(1) lookup by id and position, and a dense ``matrix`` view used
    by the vectorized distance computations.
    """

    def __init__(self, tasks: Iterable[Task], vocabulary: Vocabulary):
        self._tasks: tuple[Task, ...] = tuple(tasks)
        self._vocabulary = vocabulary
        if not self._tasks:
            raise InvalidInstanceError("a task pool cannot be empty")
        seen: dict[str, int] = {}
        rows = []
        for position, task in enumerate(self._tasks):
            if task.task_id in seen:
                raise InvalidInstanceError(f"duplicate task id {task.task_id!r} in pool")
            seen[task.task_id] = position
            rows.append(coerce_vector(task.vector, len(vocabulary)))
        self._position = seen
        self._matrix = np.vstack(rows)

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __contains__(self, task: object) -> bool:
        if isinstance(task, Task):
            return task.task_id in self._position
        return task in self._position

    def __getitem__(self, position: int) -> Task:
        return self._tasks[position]

    def __repr__(self) -> str:
        return f"TaskPool({len(self._tasks)} tasks, {len(self._vocabulary)} keywords)"

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    @property
    def tasks(self) -> tuple[Task, ...]:
        return self._tasks

    @property
    def matrix(self) -> np.ndarray:
        """Boolean matrix of shape ``(n_tasks, n_keywords)`` (row = task)."""
        return self._matrix

    def position(self, task_id: str) -> int:
        """Row index of ``task_id`` in :attr:`matrix`."""
        try:
            return self._position[task_id]
        except KeyError:
            raise KeyError(f"task {task_id!r} is not in this pool") from None

    def by_id(self, task_id: str) -> Task:
        """Return the task with ``task_id``."""
        return self._tasks[self.position(task_id)]

    def subset(self, task_ids: Sequence[str]) -> "TaskPool":
        """A new pool restricted to ``task_ids`` (order preserved)."""
        return TaskPool((self.by_id(tid) for tid in task_ids), self._vocabulary)

    def without(self, task_ids: Iterable[str]) -> "TaskPool":
        """A new pool with ``task_ids`` removed (used to drop assigned tasks)."""
        dropped = set(task_ids)
        remaining = [t for t in self._tasks if t.task_id not in dropped]
        if not remaining:
            raise InvalidInstanceError("removing these tasks would empty the pool")
        return TaskPool(remaining, self._vocabulary)

    def groups(self) -> dict[str, list[Task]]:
        """Tasks keyed by group name (ungrouped tasks fall under ``""``)."""
        grouped: dict[str, list[Task]] = {}
        for task in self._tasks:
            grouped.setdefault(task.group, []).append(task)
        return grouped


def pool_from_vectors(
    vectors: np.ndarray,
    vocabulary: Vocabulary,
    prefix: str = "t",
) -> TaskPool:
    """Build a :class:`TaskPool` from a stacked boolean matrix.

    Convenience for tests and synthetic workloads: task ids are
    ``f"{prefix}{row}"``.
    """
    matrix = np.asarray(vectors, dtype=bool)
    if matrix.ndim != 2 or matrix.shape[1] != len(vocabulary):
        raise InvalidInstanceError(
            f"expected shape (n, {len(vocabulary)}), got {matrix.shape}"
        )
    tasks = [Task(task_id=f"{prefix}{i}", vector=row) for i, row in enumerate(matrix)]
    return TaskPool(tasks, vocabulary)
