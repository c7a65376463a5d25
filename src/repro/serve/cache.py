"""Incremental pairwise-diversity cache for the serving layer.

Every HTA solve needs the pairwise task-diversity submatrix of its candidate
set.  The in-process simulator recomputes it from the keyword matrix on each
iteration — ``O(k^2 R)`` integer dot products.  The serving daemon instead
pays the full ``O(n^2 R)`` cost once at startup and then only *carves*
``O(k^2)`` submatrices per solve.

The pool is open-world in both directions.  Removals exploit the paper's
display monotonicity: once displayed, a task is dropped from subsequent
iterations, so its row goes dead and is reclaimed by a compaction pass once
enough rows have died.  Arrivals (``POST /tasks`` ingestion) extend the
matrix by *block append*: the cache keeps the keyword vectors aligned with
its backing rows, computes one ``(new, live)`` cross-distance block plus one
``(new, new)`` self block, and writes them into an over-allocated backing
buffer.  The buffer grows geometrically, so the ``O(n^2)`` re-pack cost is
amortized across appends the same way a dynamic array amortizes copies.
Every Jaccard entry is derived from exact integer intersection and union
counts (a float64 BLAS product of 0/1 vectors is exact) by the same float
operations whichever block it lands in, so block-appended entries are
bit-identical to a from-scratch rebuild of the full matrix — the
differential suites assert exactly that.

The cache subscribes to :class:`repro.crowd.service.TaskPoolState` removal
*and* arrival events; see :meth:`IncrementalDiversityCache.attach`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.distance import pairwise_jaccard, take_submatrix
from ..core.task import Task, TaskPool

#: Compact the backing matrix when fewer than this fraction of rows is alive.
_COMPACT_THRESHOLD = 0.5

#: Over-allocation factor applied when an append outgrows the backing buffer.
_GROWTH_FACTOR = 2.0


class IncrementalDiversityCache:
    """Pairwise Jaccard distances over a dynamic (shrink *and* grow) pool.

    Args:
        pool: The full task pool at daemon startup; the ``O(n^2 R)``
            pairwise matrix is computed here, once.
        compact_threshold: Live-row fraction below which the backing matrix
            is compacted to the surviving rows.
    """

    def __init__(self, pool: TaskPool, compact_threshold: float = _COMPACT_THRESHOLD):
        if not 0.0 <= compact_threshold <= 1.0:
            raise ValueError(
                f"compact_threshold must be in [0, 1], got {compact_threshold}"
            )
        keywords = np.asarray(pool.matrix, dtype=bool)
        self._n_keywords = keywords.shape[1]
        self._matrix = pairwise_jaccard(keywords)
        self._keywords = keywords.copy()
        self._row_of: dict[str, int] = {
            task.task_id: i for i, task in enumerate(pool)
        }
        # Rows [0, _capacity) of the backing buffer are in use (live + dead);
        # rows beyond that are pre-allocated slack for future appends.
        self._capacity = len(self._row_of)
        self._compact_threshold = compact_threshold
        self.compactions = 0
        self.carves = 0
        self.appends = 0

    def __len__(self) -> int:
        """Number of live tasks."""
        return len(self._row_of)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._row_of

    @property
    def backing_rows(self) -> int:
        """Rows of the backing matrix in use (>= live tasks until compaction)."""
        return self._capacity

    @property
    def allocated_rows(self) -> int:
        """Rows allocated in the backing buffer (>= :attr:`backing_rows`)."""
        return self._matrix.shape[0]

    def on_removed(self, task_ids: Sequence[str]) -> None:
        """Pool-removal listener: forget rows, compacting when sparse.

        Unknown ids are ignored, so the cache can be attached to a pool
        state that already dropped some tasks.
        """
        for task_id in task_ids:
            self._row_of.pop(task_id, None)
        live = len(self._row_of)
        if self._capacity and live / self._capacity < self._compact_threshold:
            self._compact()

    def on_added(self, tasks: Sequence[Task]) -> None:
        """Pool-arrival listener: block-append rows for newly admitted tasks.

        Each arrival batch costs one ``(new, used)`` cross-Jaccard block and
        one ``(new, new)`` self block instead of an ``O(n^2 R)`` rebuild.
        Raises ``ValueError`` on a duplicate id (within the batch or against
        a live row) or on a keyword-vector length mismatch; an empty batch
        is a no-op.
        """
        if not tasks:
            return
        seen: set[str] = set()
        for task in tasks:
            if task.task_id in self._row_of or task.task_id in seen:
                raise ValueError(
                    f"cannot append task {task.task_id!r}: id already cached"
                )
            seen.add(task.task_id)
            if task.vector.shape[0] != self._n_keywords:
                raise ValueError(
                    f"task {task.task_id!r} has a {task.vector.shape[0]}-keyword "
                    f"vector; this cache indexes {self._n_keywords} keywords"
                )
        new_vectors = np.stack([task.vector for task in tasks]).astype(bool)
        n_new = len(tasks)
        if self._capacity == 0:
            # Append after total drain: nothing to cross against, so the
            # self block *is* the matrix.  Start a fresh buffer.
            self._matrix = pairwise_jaccard(new_vectors)
            self._keywords = new_vectors.copy()
            self._capacity = 0
        else:
            if self._capacity + n_new > self._matrix.shape[0]:
                self._grow(n_new)
            used = self._capacity
            cross = pairwise_jaccard(new_vectors, self._keywords[:used])
            block = pairwise_jaccard(new_vectors)
            stop = used + n_new
            self._matrix[used:stop, :used] = cross
            self._matrix[:used, used:stop] = cross.T
            self._matrix[used:stop, used:stop] = block
            self._keywords[used:stop] = new_vectors
        for task in tasks:
            self._row_of[task.task_id] = self._capacity
            self._capacity += 1
        self.appends += 1

    def _grow(self, n_new: int) -> None:
        """Re-pack live rows into a geometrically larger buffer.

        Dead rows are dropped during the copy (growth doubles as a
        compaction), so the amortized append cost stays linear in the live
        pool even under heavy interleaved removal.
        """
        ids = list(self._row_of)
        rows = np.fromiter(
            (self._row_of[tid] for tid in ids), dtype=np.intp, count=len(ids)
        )
        live = len(ids)
        alloc = max(int((live + n_new) * _GROWTH_FACTOR), live + n_new)
        matrix = np.zeros((alloc, alloc), dtype=np.float64)
        keywords = np.zeros((alloc, self._n_keywords), dtype=bool)
        if live:
            matrix[:live, :live] = take_submatrix(self._matrix, rows)
            keywords[:live] = self._keywords[rows]
        self._matrix = matrix
        self._keywords = keywords
        self._row_of = {tid: i for i, tid in enumerate(ids)}
        self._capacity = live
        self.compactions += 1

    def _compact(self) -> None:
        ids = list(self._row_of)
        rows = np.fromiter(
            (self._row_of[tid] for tid in ids), dtype=np.intp, count=len(ids)
        )
        self._matrix = take_submatrix(self._matrix, rows)
        self._keywords = np.ascontiguousarray(self._keywords[rows])
        self._row_of = {tid: i for i, tid in enumerate(ids)}
        self._capacity = len(ids)
        self.compactions += 1

    def submatrix(self, task_ids: Sequence[str]) -> np.ndarray | None:
        """Pairwise-diversity block for ``task_ids``, in the given order.

        Returns ``None`` when any id is unknown (the solve then falls back
        to recomputing from keyword vectors) — this keeps the cache safe to
        use as a :data:`repro.crowd.service.DiversityProvider` even if it
        drifts from the pool it mirrors.
        """
        try:
            rows = np.fromiter(
                (self._row_of[tid] for tid in task_ids),
                dtype=np.intp,
                count=len(task_ids),
            )
        except KeyError:
            return None
        self.carves += 1
        return take_submatrix(self._matrix, rows)

    def attach(self, service) -> "IncrementalDiversityCache":
        """Wire this cache into an :class:`AssignmentService` (all hooks)."""
        service.pool_state.add_removal_listener(self.on_removed)
        service.pool_state.add_arrival_listener(self.on_added)
        service.set_diversity_provider(self.submatrix)
        return self
