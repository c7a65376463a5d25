"""Vectorized Hungarian augmenting-path kernel.

The reference implementation in :mod:`repro.matching.lsap` is the classic
potentials formulation: one augmenting-path search per row, rebuilding the
``used``-column index set with ``np.flatnonzero`` on every step of the
search.

This kernel keeps the same dual-potential algorithm, one augmentation per
row (``O(n_rows^2 n_cols)`` on a rectangle), but replaces the per-step
Python/index-array bookkeeping with incremental state: the visited-column
list grows in place and the frontier argmin is a single masked ``argmin``
over the column axis.

It visits columns in exactly the reference order with the same
first-minimum tie-breaking, so the returned assignment is identical entry
for entry on square and rectangular inputs alike.  The differential suite
checks this on tie-heavy random matrices and on the HTA pipeline's own
clique-profit rectangles, built from AMT pools, where most profits tie.
"""

from __future__ import annotations

import numpy as np


def hungarian_min_rect(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment of every row of a rectangular cost matrix.

    Args:
        cost: ``(n_rows, n_cols)`` float matrix with ``n_rows <= n_cols``
            and finite entries (callers validate).

    Returns:
        ``row_to_col`` of shape ``(n_rows,)`` — distinct columns minimizing
        the total cost.
    """
    cost = np.ascontiguousarray(cost, dtype=np.float64)
    n_rows, n_cols = cost.shape
    if n_rows > n_cols:
        raise ValueError(f"need n_rows <= n_cols, got shape {cost.shape}")
    if n_rows == 0:
        return np.empty(0, dtype=np.intp)
    u = np.zeros(n_rows + 1)
    v = np.zeros(n_cols + 1)
    p = np.zeros(n_cols + 1, dtype=np.intp)  # column -> matched row (1-based)
    way = np.zeros(n_cols + 1, dtype=np.intp)
    visited = np.empty(n_cols + 1, dtype=np.intp)
    for i in range(1, n_rows + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n_cols + 1, np.inf)
        inner_minv = minv[1:]
        used = np.zeros(n_cols + 1, dtype=bool)
        free = np.ones(n_cols, dtype=bool)
        n_visited = 0
        while True:
            used[j0] = True
            if j0:
                free[j0 - 1] = False
            visited[n_visited] = j0
            n_visited += 1
            i0 = p[j0]
            # Reduced cost of extending the path through column j0's row.
            cur = cost[i0 - 1] - u[i0] - v[1:]
            better = free & (cur < inner_minv)
            inner_minv[better] = cur[better]
            way[1:][better] = j0
            frontier = np.where(free, inner_minv, np.inf)
            j1_offset = int(frontier.argmin())
            delta = frontier[j1_offset]
            # Update potentials: matched part shifts by delta, frontier shrinks.
            path_cols = visited[:n_visited]
            u[p[path_cols]] += delta
            v[path_cols] -= delta
            inner_minv[free] -= delta
            j0 = j1_offset + 1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_to_col = np.empty(n_rows, dtype=np.intp)
    matched = np.flatnonzero(p[1:])
    row_to_col[p[1:][matched] - 1] = matched
    return row_to_col
