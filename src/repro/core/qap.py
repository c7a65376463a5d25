"""The HTA -> MAXQAP encoding (Section IV-A, Eqs. 4-8).

HTA is rewritten as a Maximum Quadratic Assignment Problem over three
``n x n`` matrices (``n`` = number of QAP vertices):

* ``A`` (Eq. 4): adjacency matrix of ``|W|`` disjoint cliques of ``x_max``
  vertices — one clique per worker, edges weighted by that worker's alpha —
  plus isolated vertices for the unassigned slots;
* ``B`` (Eq. 5): the complete task graph weighted by pairwise diversity;
* ``C`` (Eq. 6): the linear relevance part, ``c[k, l] = beta_q *
  rel(w_q, t_k) * (x_max - 1)`` when column ``l`` belongs to worker ``q``'s
  clique.

A permutation ``pi`` maps task ``k`` to vertex ``pi(k)``; tasks landing in
worker ``q``'s clique form ``T_wq`` (Eq. 7), and the QAP objective equals the
HTA objective exactly (Eq. 8) — verified by ``tests/test_qap.py``.

Note on Eq. 6: the paper's guard ``l <= |T| - |W| * x_max`` contradicts its
own Fig. 1 (where columns 1..6 are non-zero for ``|T|=8, |W|=2, x_max=3``);
the consistent guard is ``l <= |W| * x_max``, which we use.

Rather than materializing ``A`` and ``C`` densely (the algorithms never need
them), the encoding stores the clique structure: ``worker_of_vertex`` and the
column degree ``deg_a``.  Nor does it hold ``B``: tasks sharing a keyword
profile are twins, so ``b[k, l] = P[profile[k], profile[l]]`` for the
``|P| x |P|`` profile matrix ``P``, and every solve-path reader gathers
through the task -> profile index.  Dense matrices are available from
:meth:`QAPEncoding.dense_a` / :meth:`~QAPEncoding.dense_b` /
:meth:`~QAPEncoding.dense_c` for tests and for reproducing the paper's Fig. 1.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import InvalidInstanceError
from .distance import take_submatrix
from .instance import HTAInstance
from .motivation import group_motivations


@dataclass(frozen=True)
class QAPEncoding:
    """A MAXQAP instance equivalent to an HTA instance.

    Attributes:
        n_vertices: Number of QAP vertices, ``max(|T|, |W| * x_max)``.
        n_real_tasks: Number of genuine tasks (rows beyond this index are
            zero-padding dummies standing in for empty slots).
        n_workers: Number of workers.
        x_max: Per-worker capacity.
        profile_matrix: ``(|P| + 1, |P| + 1)`` distances between the keyword
            profiles, plus an all-zero last row and column: the dummies'
            class, which makes a dummy equivalent to an empty slot.
        profile: Padded ``(n,)`` keyword-profile index of each vertex (its
            twin class) into ``profile_matrix``; the dummies index its last
            row.  ``B`` (Eq. 5) is ``profile_matrix[profile][:, profile]``.
        relevance_by_worker: Padded ``(n, n_workers)`` matrix of raw
            ``rel(w_q, t_k)`` values (dummy rows zero).
        alphas: Per-worker alpha weights.
        betas: Per-worker beta weights.
    """

    n_vertices: int
    n_real_tasks: int
    n_workers: int
    x_max: int
    profile_matrix: np.ndarray
    profile: np.ndarray
    relevance_by_worker: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray

    @cached_property
    def diversity(self) -> np.ndarray:
        """The padded ``(n, n)`` diversity matrix ``B`` (Eq. 5), carved from
        the profile matrix on first use.  No solve path reads it: it serves
        :meth:`objective_dense`, the exact matching ablation and the worked
        examples."""
        return take_submatrix(self.profile_matrix, self.profile)

    @cached_property
    def worker_of_vertex(self) -> np.ndarray:
        """Worker owning each vertex's clique, or ``-1`` for isolated ones."""
        owners = np.full(self.n_vertices, -1, dtype=np.intp)
        clique_span = self.n_workers * self.x_max
        owners[:clique_span] = np.arange(clique_span) // self.x_max
        return owners

    @cached_property
    def deg_a(self) -> np.ndarray:
        """Column sums of ``A``: ``alpha_q * (x_max - 1)`` on clique columns.

        This is the ``degA_l`` quantity of Algorithm 1 line 4; with the
        clique structure it collapses to a closed form.
        """
        degrees = np.zeros(self.n_vertices)
        owners = self.worker_of_vertex
        clique = owners >= 0
        degrees[clique] = self.alphas[owners[clique]] * (self.x_max - 1)
        return degrees

    @cached_property
    def c_matrix_compact(self) -> np.ndarray:
        """``(n, n_workers)`` compact form of ``C``: column ``q`` holds
        ``beta_q * rel(w_q, t_k) * (x_max - 1)``."""
        scale = self.betas * (self.x_max - 1)
        return self.relevance_by_worker * scale[None, :]

    def dense_a(self) -> np.ndarray:
        """Materialize ``A`` (Eq. 4) — for tests and worked examples only."""
        a = np.zeros((self.n_vertices, self.n_vertices))
        for q in range(self.n_workers):
            start = q * self.x_max
            stop = start + self.x_max
            block = np.full((self.x_max, self.x_max), self.alphas[q])
            np.fill_diagonal(block, 0.0)
            a[start:stop, start:stop] = block
        return a

    def dense_c(self) -> np.ndarray:
        """Materialize ``C`` (Eq. 6, corrected guard) — for tests/examples."""
        c = np.zeros((self.n_vertices, self.n_vertices))
        owners = self.worker_of_vertex
        compact = self.c_matrix_compact
        for l in range(self.n_vertices):
            if owners[l] >= 0:
                c[:, l] = compact[:, owners[l]]
        return c

    def dense_b(self) -> np.ndarray:
        """The padded diversity matrix ``B`` (Eq. 5)."""
        return self.diversity

    def profit_matrix(self, matched_weight: np.ndarray) -> np.ndarray:
        """The auxiliary LSAP profits ``f[k, l] = bM(t_k) * degA_l + c[k, l]``
        (Algorithm 1 line 10), one column per worker.

        ``degA_l`` and ``c[k, l]`` depend only on the worker owning clique
        column ``l`` (Eqs. 4-6), so a worker's ``x_max`` clique columns are
        identical and column ``q`` here stands for all of them; on the
        isolated columns ``f`` is zero.  Returns the ``(n, n_workers)``
        matrix, without materializing ``C``.
        """
        if matched_weight.shape != (self.n_vertices,):
            raise InvalidInstanceError(
                f"matched_weight must have shape ({self.n_vertices},), "
                f"got {matched_weight.shape}"
            )
        deg = self.alphas * (self.x_max - 1)
        return np.outer(matched_weight, deg) + self.c_matrix_compact

    def objective(self, permutation: np.ndarray) -> float:
        """Eq. 8's right-hand side for ``permutation`` (vertex of each task).

        Computed through the clique structure:
        ``sum_q [2 alpha_q TD(T_q) + beta_q (x_max-1) TR(T_q, w_q)]`` — which
        *is* the HTA objective, establishing the equivalence the tests check
        against a literal dense-matrix evaluation.  All workers are scored
        at once, gathering their clique blocks of ``B`` through the profile
        index; the per-worker terms are added in worker order.
        """
        members, sizes = self._clique_members(permutation)
        terms = group_motivations(
            (self.profile_matrix, self.profile),
            self.relevance_by_worker.T,
            members,
            sizes,
            self.alphas,
            self.betas * (self.x_max - 1),
        )
        return functools.reduce(operator.add, terms.tolist(), 0.0)

    def objective_dense(self, permutation: np.ndarray) -> float:
        """Literal Eq. 8 evaluation with dense ``A`` and ``C`` (test oracle).

        ``sum_{k != l} a[pi(k), pi(l)] * b[k, l] + sum_k c[k, pi(k)]``.
        Quadratic memory — only for small instances.
        """
        pi = np.asarray(permutation, dtype=np.intp)
        a = self.dense_a()
        c = self.dense_c()
        quadratic = float((a[np.ix_(pi, pi)] * self.diversity).sum())
        # a's diagonal is zero, so the k == l terms vanish automatically.
        linear = float(c[np.arange(self.n_vertices), pi].sum())
        return quadratic + linear

    def tasks_by_worker(self, permutation: np.ndarray) -> list[list[int]]:
        """Decode a permutation into per-worker real-task indices (Eq. 7)."""
        members, sizes = self._clique_members(permutation)
        return [row[:k] for row, k in zip(members.tolist(), sizes.tolist())]

    def _clique_members(self, permutation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The tasks on each worker's clique vertices, ascending, as the rows
        of a ``(n_workers, x_max)`` array (dummies last), and how many of
        each row are real tasks."""
        pi = np.asarray(permutation, dtype=np.intp)
        n = self.n_vertices
        if pi.shape != (n,):
            raise InvalidInstanceError(
                f"permutation must have length {n}, got {pi.shape}"
            )
        task_of_vertex = np.full(n, -1, dtype=np.intp)
        if n and 0 <= pi.min() <= pi.max() < n:
            task_of_vertex[pi] = np.arange(n)
        if (task_of_vertex < 0).any():
            raise InvalidInstanceError(
                "permutation has repeated or out-of-range vertices"
            )
        clique = task_of_vertex[: self.n_workers * self.x_max]
        members = np.sort(clique.reshape(self.n_workers, self.x_max), axis=1)
        return members, np.count_nonzero(members < self.n_real_tasks, axis=1)


def build_encoding(instance: HTAInstance) -> QAPEncoding:
    """Encode ``instance`` as MAXQAP matrices (Eqs. 4-6).

    When ``|T| < |W| * x_max`` the task side is padded with zero-profit dummy
    vertices; a dummy occupying a clique slot contributes nothing, exactly
    like the empty slot it represents, so objectives are unchanged.
    """
    n_tasks = instance.n_tasks
    n_vertices = max(n_tasks, instance.capacity)
    relevance = instance.relevance.T  # (n_tasks, n_workers)
    profiles, profile = instance.profile_pair
    if n_vertices > n_tasks:
        pad = n_vertices - n_tasks
        relevance = np.pad(relevance, ((0, pad), (0, 0)))
        profile = np.pad(profile, (0, pad), constant_values=len(profiles))
    return QAPEncoding(
        n_vertices=n_vertices,
        n_real_tasks=n_tasks,
        n_workers=instance.n_workers,
        x_max=instance.x_max,
        profile_matrix=np.pad(profiles, ((0, 1), (0, 1))),
        profile=profile,
        relevance_by_worker=relevance,
        alphas=instance.alphas(),
        betas=instance.betas(),
    )
