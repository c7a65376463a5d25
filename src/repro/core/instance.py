"""HTA problem instances.

An :class:`HTAInstance` bundles the inputs of Problem 1 — available tasks
``T^i``, available workers ``W^i`` (with their current alpha/beta), and the
per-worker capacity ``Xmax`` — together with the two precomputed matrices
every solver needs:

* ``diversity``: ``(n_tasks, n_tasks)`` pairwise task distances, and
* ``relevance``: ``(n_workers, n_tasks)`` worker-task relevances
  (``rel(t, w) = 1 - d_rel(t, w)``).

Matrices are computed once at construction, so repeated solver runs on the
same instance (e.g. when benchmarking) pay the distance cost only once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import InvalidInstanceError
from .distance import DistanceSpec, keyword_profiles, take_submatrix
from .task import TaskPool
from .worker import WorkerPool


@dataclass(frozen=True)
class HTAInstance:
    """One iteration's holistic task-assignment problem.

    Attributes:
        tasks: The available tasks ``T^i``.
        workers: The available workers ``W^i`` (alphas/betas included).
        x_max: Capacity per worker (constraint C1); the paper's ``Xmax``.
        distance: Distance used for both diversity and relevance (default
            Jaccard, as in the paper).
    """

    tasks: TaskPool
    workers: WorkerPool
    x_max: int
    distance: DistanceSpec = DistanceSpec("jaccard")

    def __post_init__(self) -> None:
        if self.x_max < 1:
            raise InvalidInstanceError(f"x_max must be >= 1, got {self.x_max}")
        if self.tasks.vocabulary != self.workers.vocabulary:
            raise InvalidInstanceError(
                "tasks and workers must share one vocabulary"
            )

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def capacity(self) -> int:
        """Total number of assignable task slots, ``|W| * Xmax``."""
        return self.n_workers * self.x_max

    @cached_property
    def profile_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """The distance matrix of the distinct keyword profiles (numbered by
        first appearance) and each task's profile index into it; the greedy
        matching walks tasks sharing a profile as one class of twins."""
        profiles, profile = keyword_profiles(self.tasks.matrix)
        return self.distance.matrix(profiles), profile

    @cached_property
    def diversity(self) -> np.ndarray:
        """Pairwise task-diversity matrix ``d(t_k, t_l)``, shape ``(n, n)``.

        Carved out of :attr:`profile_pair`: the same distance of the same
        two vectors, so the entries equal a task-level computation bit for
        bit (two tasks sharing a profile sit at distance ``d(x, x) = 0``,
        the metric identity axiom).
        """
        return take_submatrix(*self.profile_pair)

    @cached_property
    def relevance(self) -> np.ndarray:
        """Worker-task relevance matrix, shape ``(n_workers, n_tasks)``."""
        return 1.0 - self.distance.matrix(self.workers.matrix, self.tasks.matrix)

    def prime(self, profile_pair: tuple[np.ndarray, np.ndarray]) -> "HTAInstance":
        """Seed :attr:`profile_pair` (and so :attr:`diversity`) with a
        precomputed pair whose profiles are numbered by first appearance.

        The serving layer's profile-distance cache carves one per solve
        instead of paying the from-scratch ``O(n^2 R)`` recomputation.
        Shapes and indices are validated; distances are trusted.  Returns
        ``self``.
        """
        matrix = np.asarray(profile_pair[0], dtype=np.float64)
        profile = np.asarray(profile_pair[1], dtype=np.intp)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or (
            profile.shape != (self.n_tasks,)
        ):
            raise InvalidInstanceError(
                f"primed profile pair must be a square matrix and "
                f"{self.n_tasks} indices, got shapes {matrix.shape} and "
                f"{profile.shape}"
            )
        if profile.size and not 0 <= profile.min() <= profile.max() < len(matrix):
            raise InvalidInstanceError(
                f"primed profile indices must lie in [0, {len(matrix)}), got "
                f"[{profile.min()}, {profile.max()}]"
            )
        self.__dict__["profile_pair"] = (matrix, profile)
        return self

    def alphas(self) -> np.ndarray:
        return self.workers.alphas

    def betas(self) -> np.ndarray:
        return self.workers.betas

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"HTAInstance({self.n_tasks} tasks, {self.n_workers} workers, "
            f"x_max={self.x_max}, distance={self.distance.name})"
        )
