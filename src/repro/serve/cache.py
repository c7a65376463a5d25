"""Incremental pairwise-diversity cache for the serving layer.

Every HTA solve needs the pairwise task-diversity submatrix of its candidate
set.  The in-process simulator recomputes it from the keyword matrix on each
iteration — ``O(k^2 R)`` integer dot products.  The serving daemon instead
keeps one distance matrix alive across solves and only *carves* ``O(k^2)``
submatrices per solve.

That matrix is indexed by keyword *profile*, not by task.  Tasks of one
group share their keywords (AMT task groups, CrowdFlower task kinds), so a
corpus holds far fewer distinct keyword rows than tasks — 459 for the
daemon's 4,800-task default — and the distance of two tasks is the distance
of their profiles.  The cache keeps a profile distance matrix, a
keyword-bytes → profile dict and a task → profile dict; a carve maps task
ids to profile rows and returns the block of the profiles they use with
each task's index into it, which the solve's greedy matching walks.

The pool is open-world in both directions.  Removals exploit the paper's
display monotonicity: once displayed, a task is dropped from subsequent
iterations, so it leaves the task index and its profile's live count drops.
A profile whose last task left is dead; a compaction pass reclaims dead
profile rows once enough of them have died.  Arrivals (``POST /tasks``
ingestion) whose profile is already cached cost one dict insert.  Only a
*new* profile extends the matrix by *block append*: one ``(new, used)``
cross-distance block plus one ``(new, new)`` self block, written into an
over-allocated backing buffer.  The buffer grows geometrically, so the
``O(p^2)`` re-pack cost is amortized across appends the same way a dynamic
array amortizes copies, even when every arrival brings a new profile.
Every Jaccard entry is derived from exact integer intersection and union
counts (a float64 BLAS product of 0/1 vectors is exact) by the same float
operations whichever block it lands in, so carves are bit-identical to a
from-scratch task-level rebuild — the differential suites assert exactly
that.

The cache subscribes to :class:`repro.crowd.service.TaskPoolState` removal
*and* arrival events; see :meth:`IncrementalDiversityCache.attach`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.distance import (
    first_appearance_index,
    keyword_profiles,
    pairwise_jaccard,
    take_submatrix,
)
from ..core.task import Task, TaskPool

#: Compact the profile matrix when fewer than this fraction of its rows is alive.
_COMPACT_THRESHOLD = 0.5

#: Over-allocation factor applied when an append outgrows the backing buffer.
_GROWTH_FACTOR = 2.0


class IncrementalDiversityCache:
    """Pairwise Jaccard distances over a dynamic (shrink *and* grow) pool.

    Args:
        pool: The full task pool at daemon startup; the pairwise matrix of
            its distinct keyword profiles is computed here, once.
        compact_threshold: Live-profile fraction below which the profile
            matrix is compacted to the surviving profiles.
    """

    def __init__(self, pool: TaskPool, compact_threshold: float = _COMPACT_THRESHOLD):
        if not 0.0 <= compact_threshold <= 1.0:
            raise ValueError(
                f"compact_threshold must be in [0, 1], got {compact_threshold}"
            )
        keywords = np.asarray(pool.matrix, dtype=bool)
        self._n_keywords = keywords.shape[1]
        self._profile_of_key: dict[bytes, int] = {}
        self._profiles, profile = keyword_profiles(keywords, self._profile_of_key)
        self._matrix = pairwise_jaccard(self._profiles)
        self._profile_of: dict[str, int] = {
            task.task_id: p for task, p in zip(pool, profile.tolist())
        }
        # Live tasks per profile row.  Rows [0, backing_rows) are in use
        # (live + dead profiles); rows beyond that are slack for appends.
        self._live = np.bincount(profile, minlength=len(self._profiles))
        self._compact_threshold = compact_threshold
        self.compactions = 0
        self.carves = 0
        self.appends = 0

    def __len__(self) -> int:
        """Number of live tasks."""
        return len(self._profile_of)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._profile_of

    @property
    def backing_rows(self) -> int:
        """Profile rows in use (live and dead, until compaction)."""
        return len(self._profile_of_key)

    @property
    def allocated_rows(self) -> int:
        """Profile rows allocated in the backing buffer (>= :attr:`backing_rows`)."""
        return self._matrix.shape[0]

    def on_removed(self, task_ids: Sequence[str]) -> None:
        """Pool-removal listener: forget tasks, compacting dead profiles.

        Unknown ids are ignored, so the cache can be attached to a pool
        state that already dropped some tasks.
        """
        for task_id in task_ids:
            profile = self._profile_of.pop(task_id, None)
            if profile is not None:
                self._live[profile] -= 1
        used = self.backing_rows
        live = np.count_nonzero(self._live[:used])
        if used and live / used < self._compact_threshold:
            self._compact()

    def on_added(self, tasks: Sequence[Task]) -> None:
        """Pool-arrival listener: index newly admitted tasks.

        A task whose keyword profile is cached costs one dict insert; each
        batch of new profiles costs one ``(new, used)`` cross-Jaccard block
        and one ``(new, new)`` self block instead of a rebuild.  Raises
        ``ValueError`` on a duplicate id (within the batch or against a live
        task) or on a keyword-vector length mismatch; an empty batch is a
        no-op.
        """
        if not tasks:
            return
        seen: set[str] = set()
        for task in tasks:
            if task.task_id in self._profile_of or task.task_id in seen:
                raise ValueError(
                    f"cannot append task {task.task_id!r}: id already cached"
                )
            seen.add(task.task_id)
            if task.vector.shape[0] != self._n_keywords:
                raise ValueError(
                    f"task {task.task_id!r} has a {task.vector.shape[0]}-keyword "
                    f"vector; this cache indexes {self._n_keywords} keywords"
                )
        used = self.backing_rows
        fresh, profile = keyword_profiles(
            np.stack([task.vector for task in tasks]), self._profile_of_key
        )
        stop = used + len(fresh)
        if stop > self.allocated_rows:
            self._grow(used, stop)
        if len(fresh):
            cross = pairwise_jaccard(fresh, self._profiles[:used])
            self._matrix[used:stop, :used] = cross
            self._matrix[:used, used:stop] = cross.T
            self._matrix[used:stop, used:stop] = pairwise_jaccard(fresh)
            self._profiles[used:stop] = fresh
        for task, p in zip(tasks, profile.tolist()):
            self._profile_of[task.task_id] = p
        np.add.at(self._live, profile, 1)
        self.appends += 1

    def _grow(self, used: int, needed: int) -> None:
        """Copy the ``used`` profile rows into a geometrically larger buffer.

        No dead rows need dropping here: every removal already compacts
        once too few profiles are alive, and arrivals only add live ones.
        """
        alloc = max(int(needed * _GROWTH_FACTOR), needed)
        matrix = np.zeros((alloc, alloc), dtype=np.float64)
        profiles = np.zeros((alloc, self._n_keywords), dtype=bool)
        live = np.zeros(alloc, dtype=self._live.dtype)
        matrix[:used, :used] = self._matrix[:used, :used]
        profiles[:used] = self._profiles[:used]
        live[:used] = self._live[:used]
        self._matrix, self._profiles, self._live = matrix, profiles, live

    def _compact(self) -> None:
        """Keep only live profiles, renumbered in order."""
        keep = np.flatnonzero(self._live[: self.backing_rows])
        renumber = np.full(self.backing_rows, -1, dtype=np.intp)
        renumber[keep] = np.arange(len(keep))
        renumber = renumber.tolist()
        self._matrix = take_submatrix(self._matrix, keep)
        self._profiles = self._profiles[keep]
        self._live = self._live[keep]
        self._profile_of_key = {
            key: renumber[p]
            for key, p in self._profile_of_key.items()
            if renumber[p] >= 0
        }
        self._profile_of = {tid: renumber[p] for tid, p in self._profile_of.items()}
        self.compactions += 1

    def submatrix(
        self, task_ids: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Profile pair for ``task_ids``, as
        :meth:`repro.core.instance.HTAInstance.prime` takes it: the distance
        block of the profiles they use and each task's index into it, so
        ``take_submatrix(*pair)`` is their pairwise-diversity matrix.  (The
        name predates the pair; perfbench's ``cache.carve`` span hooks it.)

        Returns ``None`` when any id is unknown (the solve then falls back
        to recomputing from keyword vectors) — this keeps the cache safe to
        use as a :data:`repro.crowd.service.ProfilePairProvider` even if it
        drifts from the pool it mirrors.
        """
        try:
            rows = [self._profile_of[tid] for tid in task_ids]
        except KeyError:
            return None
        self.carves += 1
        first, profile = first_appearance_index(rows)
        return take_submatrix(self._matrix, np.take(rows, first)), profile

    def attach(self, service) -> "IncrementalDiversityCache":
        """Wire this cache into an :class:`AssignmentService` (all hooks)."""
        service.pool_state.add_removal_listener(self.on_removed)
        service.pool_state.add_arrival_listener(self.on_added)
        service.set_diversity_provider(self.submatrix)
        return self
