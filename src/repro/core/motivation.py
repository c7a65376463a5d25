"""The motivation objective (Section II, Eqs. 1-3).

Implements task diversity ``TD``, task relevance ``TR``, the combined
``motiv`` score, and the marginal-gain quantities used by the adaptive
alpha/beta estimation (Section III).

Two layers are provided:

* object-level functions over :class:`~repro.core.task.Task` /
  :class:`~repro.core.worker.Worker` — readable, used in examples and tests;
* matrix-level functions over precomputed diversity/relevance matrices —
  used by the solvers and the simulator where speed matters.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .distance import DistanceFn, get_distance
from .task import Task
from .worker import Worker


def task_diversity(tasks: Sequence[Task], distance: str | DistanceFn = "jaccard") -> float:
    """``TD(T')`` — sum of pairwise distances within a task set (Eq. 1)."""
    fn = get_distance(distance) if isinstance(distance, str) else distance
    total = 0.0
    for i, task_i in enumerate(tasks):
        for task_j in tasks[i + 1 :]:
            total += fn(task_i.vector, task_j.vector)
    return total


def relevance(task: Task, worker: Worker, distance: str | DistanceFn = "jaccard") -> float:
    """``rel(t, w) = 1 - d_rel(t, w)`` (Section II).

    The paper uses Jaccard for ``d_rel`` as well; any registered distance
    mapping into [0, 1] works.
    """
    fn = get_distance(distance) if isinstance(distance, str) else distance
    return 1.0 - fn(np.asarray(task.vector, dtype=bool), np.asarray(worker.vector, dtype=bool))


def task_relevance(
    tasks: Sequence[Task],
    worker: Worker,
    distance: str | DistanceFn = "jaccard",
) -> float:
    """``TR(T', w)`` — sum of per-task relevances (Eq. 2)."""
    return sum(relevance(task, worker, distance) for task in tasks)


def motivation(
    tasks: Sequence[Task],
    worker: Worker,
    distance: str | DistanceFn = "jaccard",
) -> float:
    """``motiv(T', w) = 2 a TD(T') + b (|T'|-1) TR(T', w)`` (Eq. 3).

    The ``2`` and ``(|T'|-1)`` factors normalize the quadratic diversity term
    and the linear relevance term onto comparable scales (a set of ``n`` tasks
    has ``n(n-1)/2`` pairs but ``n`` relevance terms).
    """
    if not tasks:
        return 0.0
    diversity = task_diversity(tasks, distance)
    rel_total = task_relevance(tasks, worker, distance)
    return 2.0 * worker.alpha * diversity + worker.beta * (len(tasks) - 1) * rel_total


# ---------------------------------------------------------------------------
# Matrix-level counterparts.
# ---------------------------------------------------------------------------


def diversity_of_subset(diversity_matrix: np.ndarray, indices: Sequence[int]) -> float:
    """``TD`` of the tasks at ``indices`` given the full pairwise matrix."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size < 2:
        return 0.0
    sub = diversity_matrix[np.ix_(idx, idx)]
    return float(np.triu(sub, k=1).sum())


def relevance_of_subset(relevance_row: np.ndarray, indices: Sequence[int]) -> float:
    """``TR`` of the tasks at ``indices`` for one worker's relevance row."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size == 0:
        return 0.0
    return float(relevance_row[idx].sum())


def motivation_of_subset(
    diversity_matrix: np.ndarray,
    relevance_row: np.ndarray,
    indices: Sequence[int],
    alpha: float,
    beta: float,
) -> float:
    """Matrix-level Eq. 3 for one worker's assigned task indices."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size == 0:
        return 0.0
    diversity = diversity_of_subset(diversity_matrix, idx)
    rel_total = relevance_of_subset(relevance_row, idx)
    return 2.0 * alpha * diversity + beta * (idx.size - 1) * rel_total


def total_motivation(
    diversity_matrix: np.ndarray,
    relevance_matrix: np.ndarray,
    assignment_indices: Sequence[Sequence[int]],
    alphas: Sequence[float],
    betas: Sequence[float],
) -> float:
    """The HTA objective: sum of per-worker motivations (Problem 1).

    ``relevance_matrix`` has shape ``(n_workers, n_tasks)``;
    ``assignment_indices[q]`` are the task indices assigned to worker ``q``.
    """
    return sum(
        motivation_of_subset(
            diversity_matrix, relevance_matrix[q], indices, alphas[q], betas[q]
        )
        for q, indices in enumerate(assignment_indices)
    )


def group_motivations(
    profile_pair: tuple[np.ndarray, np.ndarray],
    relevance_matrix: np.ndarray,
    members: np.ndarray,
    sizes: np.ndarray,
    alphas: np.ndarray,
    relevance_weights: np.ndarray,
) -> np.ndarray:
    """``2 alpha_q TD(T_q) + relevance_weights[q] TR(T_q, w_q)`` of every
    worker, reading diversities through the task -> profile index.

    ``profile_pair`` is ``(P, profile)`` with ``d(t_k, t_l) = P[profile[k],
    profile[l]]``; worker ``q``'s tasks are ``members[q, :sizes[q]]``.  With
    ``relevance_weights = betas * (sizes - 1)`` this is Eq. 3; with
    ``betas * (x_max - 1)`` the QAP's clique term (Eq. 8).  Workers are
    scored in blocks of one group size, one ``(k, k)`` gather of ``P`` per
    worker, each summed in the order and shape of
    :func:`motivation_of_subset`, so the values equal it bit for bit.
    """
    matrix, profile = profile_pair
    out = np.zeros(len(sizes))
    for k in np.unique(sizes).tolist():
        if k == 0:
            continue
        rows = np.flatnonzero(sizes == k)
        tasks = members[rows, :k]
        classes = profile[tasks]
        block = matrix[classes[:, :, None], classes[:, None, :]]
        diversity = np.triu(block, k=1).reshape(len(rows), k * k).sum(axis=1)
        rel_total = relevance_matrix[rows[:, None], tasks].sum(axis=1)
        out[rows] = 2.0 * alphas[rows] * diversity + relevance_weights[rows] * rel_total
    return out


# ---------------------------------------------------------------------------
# Marginal gains for the adaptive alpha/beta update (Section III).
# ---------------------------------------------------------------------------


def marginal_diversity_gain(
    diversity_matrix: np.ndarray,
    completed_before: Sequence[int],
    new_index: int,
) -> float:
    """Diversity added by completing ``new_index`` after ``completed_before``.

    ``sum_{t_k in completed} d(t_new, t_k)`` — the quantity the platform
    observes after every completion.
    """
    if not len(completed_before):
        return 0.0
    idx = np.asarray(completed_before, dtype=np.intp)
    return float(diversity_matrix[new_index, idx].sum())


def best_remaining_diversity_gain(
    diversity_matrix: np.ndarray,
    completed_before: Sequence[int],
    remaining: Sequence[int],
) -> float:
    """Largest diversity gain any remaining task could have delivered.

    Normalizer of the observed diversity gain: the paper divides each gain by
    the maximum achievable over ``T_w \\ completed``.
    """
    rem = np.asarray(remaining, dtype=np.intp)
    if rem.size == 0 or not len(completed_before):
        return 0.0
    idx = np.asarray(completed_before, dtype=np.intp)
    return float(diversity_matrix[np.ix_(rem, idx)].sum(axis=1).max())


def best_remaining_relevance_gain(
    relevance_row: np.ndarray,
    remaining: Sequence[int],
) -> float:
    """Largest relevance any remaining task could have delivered."""
    rem = np.asarray(remaining, dtype=np.intp)
    if rem.size == 0:
        return 0.0
    return float(relevance_row[rem].max())
