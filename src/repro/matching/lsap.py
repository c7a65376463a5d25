"""Linear Sum Assignment Problem (LSAP) solvers.

HTA-APP's auxiliary step (Algorithm 1, line 11) is a *maximization* LSAP:
find a permutation ``sigma`` maximizing ``sum_k f[k, sigma(k)]``.  The paper
solves it with the Hungarian algorithm (Carpaneto et al. code, ``O(n^3)``);
HTA-GRE replaces it with a greedy bipartite matching (1/2-approximation,
``O(n^2 log n)``).  The paper also discusses auction/cost-scaling solvers as
pseudo-polynomial alternatives; we include an auction solver for the
ablation benchmark.

All solvers share the same interface: they take a dense profit matrix with
``n_rows <= n_cols`` and return an :class:`LSAPSolution` mapping every row to
a distinct column.

Implementations are from scratch (no scipy):

* :func:`hungarian` — shortest-augmenting-path Hungarian with potentials
  (the classic ``O(n^3)`` formulation), numpy-vectorized inner loop;
* :func:`greedy_lsap` — sort all entries, take greedily (1/2-approx);
* :func:`auction_lsap` — Bertsekas forward auction with epsilon scaling;
* :func:`brute_force_lsap` — exhaustive oracle for tiny instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInstanceError

#: Brute force explores n! permutations; 9! = 362,880 keeps tests fast.
MAX_BRUTE_FORCE_ROWS = 9


@dataclass(frozen=True)
class LSAPSolution:
    """An assignment of rows to columns.

    Attributes:
        row_to_col: ``row_to_col[k]`` is the column assigned to row ``k``.
        value: Total profit of the assignment.
    """

    row_to_col: np.ndarray
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "row_to_col", np.asarray(self.row_to_col, dtype=np.intp)
        )

    def is_valid(self, n_cols: int) -> bool:
        """True if every row has a distinct, in-range column."""
        cols = self.row_to_col
        return (
            cols.min(initial=0) >= 0
            and (cols < n_cols).all()
            and len(np.unique(cols)) == len(cols)
        )


def _check_profit(profit: np.ndarray) -> np.ndarray:
    matrix = np.asarray(profit, dtype=float)
    if matrix.ndim != 2:
        raise InvalidInstanceError(f"profit matrix must be 2-D, got {matrix.ndim}-D")
    if matrix.shape[0] > matrix.shape[1]:
        raise InvalidInstanceError(
            f"need n_rows <= n_cols, got shape {matrix.shape}; transpose the input"
        )
    if not np.isfinite(matrix).all():
        raise InvalidInstanceError("profit matrix contains non-finite values")
    return matrix


def _value(profit: np.ndarray, row_to_col: np.ndarray) -> float:
    return float(profit[np.arange(len(row_to_col)), row_to_col].sum())


def hungarian(profit: np.ndarray) -> LSAPSolution:
    """Optimal maximization LSAP via shortest augmenting paths.

    Runs the textbook Hungarian algorithm with row/column potentials on the
    negated matrix (max-profit == min-cost), one augmentation per row, so a
    rectangle costs ``O(n_rows^2 n_cols)``.  The search is
    :func:`hungarian_min_rect`, which keeps incremental search state;
    :func:`_hungarian_min_reference` rebuilds it with index arrays and is
    the oracle the tests and ``benchmarks/bench_kernels.py`` hold it to.  Both break ties
    identically, so they return the same assignment on every input.

    >>> hungarian(np.array([[4., 1.], [2., 3.]])).value
    7.0
    """
    matrix = _check_profit(profit)
    row_to_col = hungarian_min_rect(-matrix)
    return LSAPSolution(row_to_col, _value(matrix, row_to_col))


def hungarian_min_rect(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment of every row of a rectangular cost matrix.

    The dual-potential search of :func:`_hungarian_min_reference`, one
    augmentation per row, with incremental state in place of the
    reference's per-step index arrays: the visited-column list grows in
    place and the frontier argmin is one masked ``argmin`` over the
    columns.  It visits columns in the reference order with the same
    first-minimum tie-breaking, so the two return the same assignment
    entry for entry.

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


def _hungarian_min_reference(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment of every row of an ``n_rows <= n_cols`` matrix.

    Classic potentials formulation (e.g. Burkard et al., "Assignment
    Problems"): rows are inserted one at a time and an augmenting path of
    minimum reduced cost is grown column by column.  ``u``/``v`` are the dual
    potentials; ``p[j]`` is the row currently matched to column ``j``
    (1-based, 0 = virtual column).
    """
    n_rows, n_cols = cost.shape
    u = np.zeros(n_rows + 1)
    v = np.zeros(n_cols + 1)
    p = np.zeros(n_cols + 1, dtype=np.intp)
    way = np.zeros(n_cols + 1, dtype=np.intp)
    for i in range(1, n_rows + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n_cols + 1, np.inf)
        used = np.zeros(n_cols + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            # Reduced cost of extending the path through column j0's row.
            cur = cost[i0 - 1] - u[i0] - v[1:]
            free = ~used[1:]
            inner_minv = minv[1:]
            better = free & (cur < inner_minv)
            inner_minv[better] = cur[better]
            way[1:][better] = j0
            free_cols = np.flatnonzero(free)
            j1_offset = free_cols[np.argmin(inner_minv[free_cols])]
            delta = inner_minv[j1_offset]
            # Update potentials: matched part shifts by delta, frontier shrinks.
            used_cols = np.flatnonzero(used)
            u[p[used_cols]] += delta
            v[used_cols] -= delta
            inner_minv[free] -= delta
            j0 = int(j1_offset) + 1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_to_col = np.empty(n_rows, dtype=np.intp)
    for j in range(1, n_cols + 1):
        if p[j]:
            row_to_col[p[j] - 1] = j - 1
    return row_to_col


def greedy_lsap(profit: np.ndarray) -> LSAPSolution:
    """Greedy bipartite matching on the profit matrix (HTA-GRE's LSAP step).

    Sorts all ``n_rows * n_cols`` entries by decreasing profit and assigns
    each (row, column) pair whose row and column are both free.  Because the
    bipartite graph is complete, the result is always a perfect matching on
    the rows, and GreedyMatching's 1/2 bound applies (Lemma 4).

    The entries are visited in the stable order of decreasing profit, in
    chunks that double from ``n_cols`` entries.  Taken rows and columns only
    accumulate, so an entry whose row or column is taken before its chunk
    starts would be skipped anyway; numpy drops those and only the
    survivors reach the Python check.  The output is entry for entry that
    of the one-entry-at-a-time loop.

    Complexity ``O(n^2 log n)``.
    """
    matrix = _check_profit(profit)
    n_rows, n_cols = matrix.shape
    order = np.argsort(-matrix, axis=None, kind="stable")
    row_free = np.ones(n_rows, dtype=bool)
    col_free = np.ones(n_cols, dtype=bool)
    row_to_col = np.full(n_rows, -1, dtype=np.intp)
    assigned = 0
    start, chunk = 0, n_cols
    while assigned < n_rows and start < order.size:
        rows, cols = np.divmod(order[start : start + chunk], n_cols)
        start += chunk
        chunk *= 2
        live = row_free[rows] & col_free[cols]
        for r, c in zip(rows[live].tolist(), cols[live].tolist()):
            if row_free[r] and col_free[c]:
                row_to_col[r] = c
                row_free[r] = False
                col_free[c] = False
                assigned += 1
    return LSAPSolution(row_to_col, _value(matrix, row_to_col))


def auction_lsap(profit: np.ndarray, precision: float = 1e-6) -> LSAPSolution:
    """Bertsekas forward auction with epsilon scaling.

    Profits are rounded onto an integer grid of step ``precision`` and scaled
    by ``n + 1`` so that the final epsilon of 1 guarantees an assignment
    optimal on the grid (within ``n * precision`` of the true optimum).
    Pseudo-polynomial — included for the LSAP-ablation benchmark, mirroring
    the paper's discussion of cost-scaling alternatives (Section IV-C).
    """
    matrix = _check_profit(profit)
    n_real_rows, n_cols = matrix.shape
    if precision <= 0:
        raise InvalidInstanceError(f"precision must be positive, got {precision}")
    # The asymmetric (rectangular) auction needs a reverse phase to settle
    # the prices of unassigned columns; padding to square with zero-profit
    # rows sidesteps that while preserving the optimum.
    square = matrix
    if n_real_rows < n_cols:
        square = np.vstack([matrix, np.zeros((n_cols - n_real_rows, n_cols))])
    n_rows = n_cols
    scaled = np.rint(square / precision).astype(np.int64) * (n_cols + 1)
    max_abs = int(np.abs(scaled).max(initial=1))
    epsilon = max(max_abs // 2, 1)
    prices = np.zeros(n_cols, dtype=np.int64)
    row_to_col = np.full(n_rows, -1, dtype=np.intp)
    col_to_row = np.full(n_cols, -1, dtype=np.intp)
    while True:
        row_to_col.fill(-1)
        col_to_row.fill(-1)
        unassigned = list(range(n_rows))
        while unassigned:
            row = unassigned.pop()
            margins = scaled[row] - prices
            best_col = int(np.argmax(margins))
            best = margins[best_col]
            margins[best_col] = np.iinfo(np.int64).min
            second = margins.max() if n_cols > 1 else best - epsilon
            bid = best - second + epsilon
            prices[best_col] += bid
            previous = col_to_row[best_col]
            if previous >= 0:
                row_to_col[previous] = -1
                unassigned.append(int(previous))
            col_to_row[best_col] = row
            row_to_col[row] = best_col
        if epsilon == 1:
            break
        epsilon = max(epsilon // 7, 1)
    row_to_col = row_to_col[:n_real_rows]
    return LSAPSolution(row_to_col, _value(matrix, row_to_col))


def brute_force_lsap(profit: np.ndarray) -> LSAPSolution:
    """Exhaustive LSAP oracle for tests (``n_rows <= 9``)."""
    matrix = _check_profit(profit)
    n_rows, n_cols = matrix.shape
    if n_rows > MAX_BRUTE_FORCE_ROWS:
        raise InvalidInstanceError(
            f"brute force is limited to {MAX_BRUTE_FORCE_ROWS} rows, got {n_rows}"
        )
    best_value = -math.inf
    best_cols: tuple[int, ...] | None = None
    row_index = np.arange(n_rows)
    for cols in itertools.permutations(range(n_cols), n_rows):
        value = float(matrix[row_index, list(cols)].sum())
        if value > best_value:
            best_value = value
            best_cols = cols
    assert best_cols is not None
    return LSAPSolution(np.array(best_cols, dtype=np.intp), best_value)


_SOLVERS = {
    "hungarian": hungarian,
    "greedy": greedy_lsap,
    "auction": auction_lsap,
    "brute_force": brute_force_lsap,
}


def solve_lsap(profit: np.ndarray, method: str = "hungarian") -> LSAPSolution:
    """Dispatch to a named LSAP solver.

    >>> solve_lsap(np.array([[4., 1.], [2., 3.]]), "greedy").value
    7.0
    """
    try:
        solver = _SOLVERS[method]
    except KeyError:
        known = ", ".join(sorted(_SOLVERS))
        raise InvalidInstanceError(
            f"unknown LSAP method {method!r}; known methods: {known}"
        ) from None
    return solver(profit)


def lsap_methods() -> tuple[str, ...]:
    """Names of the available LSAP solvers."""
    return tuple(sorted(_SOLVERS))
