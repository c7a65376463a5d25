"""Greedy maximum-weight matching (the paper's GreedyMatching subroutine).

Sorts edges by decreasing weight and repeatedly takes the heaviest edge whose
endpoints are both free.  This is the classic 1/2-approximation for maximum
weight matching [Drake & Hougardy 2003; Duan & Pettie 2014] that both
HTA-APP (matching step on ``B``) and HTA-GRE (matching step *and* LSAP step)
rely on.

Two entry points:

* :func:`greedy_matching_dense` — on the complete graph of a symmetric
  weight matrix, the shape used throughout HTA.  Tasks sharing a keyword
  profile are twins (AMT task groups give ~80 profiles per 400 Fig. 2
  tasks), so it reads the *profile* matrix through each vertex's profile
  index and walks profile pairs, matching all free twins of a pair at once;
* :func:`greedy_matching_edges` — on an explicit edge list, for sparse
  graphs and for tests.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

Edge = tuple[int, int, float]


def greedy_matching_dense(
    weights: np.ndarray, profile: np.ndarray | None = None
) -> list[tuple[int, int]]:
    """Greedy matching on the complete graph given by a symmetric matrix.

    ``weights`` is indexed by class: vertex ``i`` belongs to class
    ``profile[i]``, and two vertices of different classes are joined at
    weight ``weights[profile[i], profile[j]]`` (tasks sharing a keyword
    profile are twins: equal distances to every other task and distance 0
    among themselves, under a metric).  ``None`` makes every vertex its own
    class, ``weights`` then being the vertex matrix itself.  Edges with
    non-positive weight are skipped: leaving two vertices unmatched is never
    worse than matching them at weight <= 0, and skipping keeps the 1/2
    bound.

    Class pairs are visited in the stable order of decreasing weight, ties
    in the order of the class indices; a pair ``(a, b)`` matches ``min(free_a,
    free_b)`` vertex pairs at once, lowest free vertices first.  One of the
    two classes is then exhausted, so no heavier free edge remains: each
    edge taken is a heaviest free edge, a GreedyMatching run.  Pairs go in
    chunks that double from the number of classes; exhaustion only grows,
    so numpy drops the pairs exhausted before their chunk and only the
    survivors reach the Python step.  The walk stops once at most one
    vertex is free.  With ``profile=None`` the output is edge for edge that
    of the one-edge-at-a-time loop over the upper triangle, row by row.

    Returns a list of ``(i, j)`` with ``i < j``, vertex-disjoint, ordered by
    decreasing weight.

    >>> w = np.array([[0., 3., 1.], [3., 0., 2.], [1., 2., 0.]])
    >>> greedy_matching_dense(w)
    [(0, 1)]
    >>> classes = np.array([[0., 2., 1.], [2., 0., 0.], [1., 0., 0.]])
    >>> greedy_matching_dense(classes, profile=[0, 0, 1, 2])
    [(0, 2), (1, 3)]
    """
    matrix = np.asarray(weights, dtype=float)
    m = matrix.shape[0]
    if matrix.shape != (m, m):
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    index = np.arange(m) if profile is None else np.asarray(profile, dtype=np.intp)
    if index.ndim != 1 or (index.size and not 0 <= index.min() <= index.max() < m):
        raise ValueError(f"profile must be a 1-D index into the {m} rows of weights")
    n = len(index)
    classes, label = np.unique(index, return_inverse=True)
    size = np.bincount(label)
    # Members of each class, ascending, laid out class after class.
    members = np.argsort(label, kind="stable").tolist()
    rows, cols = np.triu_indices(len(size), k=1)
    edge_weights = matrix[classes[rows], classes[cols]]
    order = np.argsort(-edge_weights, kind="stable")
    # Positive weights sort first, so they are a prefix of the order.
    order = order[: np.count_nonzero(edge_weights > 0.0)]
    taken, free = (np.cumsum(size) - size).tolist(), size.tolist()
    exhausted = np.zeros(len(size), dtype=bool)
    matching: list[tuple[int, int]] = []
    start, chunk = 0, len(size)
    while start < len(order) and n - 2 * len(matching) > 1:
        block = order[start : start + chunk]
        start += chunk
        chunk *= 2
        r, c = rows[block], cols[block]
        live = ~(exhausted[r] | exhausted[c])
        for a, b in zip(r[live].tolist(), c[live].tolist()):
            fa, fb = free[a], free[b]
            if fa and fb:
                k = fa if fa < fb else fb
                i, j = taken[a], taken[b]
                matching.extend(
                    (u, v) if u < v else (v, u)
                    for u, v in zip(members[i : i + k], members[j : j + k])
                )
                taken[a], taken[b], free[a], free[b] = i + k, j + k, fa - k, fb - k
                exhausted[a], exhausted[b] = fa == k, fb == k
    return matching


def greedy_matching_edges(edges: Iterable[Edge]) -> list[tuple[int, int]]:
    """Greedy matching over an explicit ``(u, v, weight)`` edge list."""
    cleaned: list[Edge] = []
    for u, v, w in edges:
        if u == v:
            raise ValueError(f"self-loop on vertex {u} is not allowed")
        cleaned.append((min(u, v), max(u, v), float(w)))
    cleaned.sort(key=lambda e: -e[2])
    matched: set[int] = set()
    matching: list[tuple[int, int]] = []
    for u, v, w in cleaned:
        if w <= 0.0:
            break
        if u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
            matching.append((u, v))
    return matching


def matching_weight(weights: np.ndarray, matching: Iterable[tuple[int, int]]) -> float:
    """Total weight of ``matching`` under the dense weight matrix."""
    matrix = np.asarray(weights, dtype=float)
    return float(sum(matrix[i, j] for i, j in matching))


def is_matching(matching: Iterable[tuple[int, int]]) -> bool:
    """True if no vertex appears in more than one edge."""
    seen: set[int] = set()
    for i, j in matching:
        if i in seen or j in seen or i == j:
            return False
        seen.add(i)
        seen.add(j)
    return True


def cover_map(matching: Iterable[tuple[int, int]], n: int) -> np.ndarray:
    """Partner array: ``partner[v]`` is v's match, or ``-1`` if unmatched."""
    partner = np.full(n, -1, dtype=np.intp)
    for i, j in matching:
        partner[i] = j
        partner[j] = i
    return partner
