"""Linear Sum Assignment Problem (LSAP) solvers.

HTA-APP's auxiliary step (Algorithm 1, line 11) is a *maximization* LSAP:
find a permutation ``sigma`` maximizing ``sum_k f[k, sigma(k)]``.  The paper
solves it with the Hungarian algorithm (Carpaneto et al. code, ``O(n^3)``);
HTA-GRE replaces it with a greedy bipartite matching (1/2-approximation,
``O(n^2 log n)``).  The paper also discusses auction/cost-scaling solvers as
pseudo-polynomial alternatives; we include an auction solver for the
ablation benchmark.

All solvers share one interface, :func:`solve_lsap`: a dense profit matrix
whose every row takes ``supply`` distinct columns (``n_rows * supply <=
n_cols``), returned as an :class:`LSAPSolution` whose ``row_to_col`` lists
row ``r``'s columns at ``[r * supply, (r + 1) * supply)``.  With ``supply``
above one this is the LSAP of ``np.repeat(profit, supply, axis=0)``, the
rectangle of identical rows the HTA pipeline's worker cliques give, solved
without building it.  An optional ``classes`` index promises that columns
of one class are identical (twin tasks), and the Hungarian kernel then
searches over classes instead of columns.

Implementations are from scratch (no scipy):

* :func:`hungarian` — successive shortest paths with potentials over rows
  and column classes (the classic Hungarian search when every column is
  its own class), numpy-vectorized inner loop;
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
        row_to_col: ``row_to_col[k]`` is the column assigned to row slot
            ``k``; row ``r`` of a ``supply``-column solve owns slots
            ``[r * supply, (r + 1) * supply)``.
        value: Total profit of the assignment.
    """

    row_to_col: np.ndarray
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "row_to_col", np.asarray(self.row_to_col, dtype=np.intp)
        )

    def is_valid(self, n_cols: int) -> bool:
        """True if every row slot has a distinct, in-range column."""
        cols = self.row_to_col
        return (
            cols.min(initial=0) >= 0
            and (cols < n_cols).all()
            and len(np.unique(cols)) == len(cols)
        )


def _check_profit(profit: np.ndarray, supply: int = 1) -> np.ndarray:
    matrix = np.asarray(profit, dtype=float)
    if matrix.ndim != 2:
        raise InvalidInstanceError(f"profit matrix must be 2-D, got {matrix.ndim}-D")
    if supply < 1:
        raise InvalidInstanceError(f"supply must be >= 1, got {supply}")
    if matrix.shape[0] * supply > matrix.shape[1]:
        raise InvalidInstanceError(
            f"need n_rows * supply <= n_cols, got shape {matrix.shape} with "
            f"supply {supply}; transpose the input"
        )
    if not np.isfinite(matrix).all():
        raise InvalidInstanceError("profit matrix contains non-finite values")
    return matrix


def _class_members(
    matrix: np.ndarray, classes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The columns grouped by class, each class ascending, and where each
    class starts in that order; checks that one class's columns are
    identical."""
    labels = np.asarray(classes)
    if labels.shape != (matrix.shape[1],) or not np.issubdtype(
        labels.dtype, np.integer
    ):
        raise InvalidInstanceError(
            f"classes must be {matrix.shape[1]} integer labels, got "
            f"{labels.dtype} of shape {labels.shape}"
        )
    _, first, index = np.unique(labels, return_index=True, return_inverse=True)
    if not (matrix == matrix[:, first[index]]).all():
        raise InvalidInstanceError("classes join columns that are not identical")
    start = np.zeros(len(first) + 1, dtype=np.intp)
    np.cumsum(np.bincount(index), out=start[1:])
    return np.argsort(index, kind="stable"), start


def _value(profit: np.ndarray, row_to_col: np.ndarray, supply: int = 1) -> float:
    rows = np.repeat(np.arange(profit.shape[0]), supply)
    return float(profit[rows, row_to_col].sum())


def hungarian(
    profit: np.ndarray, supply: int = 1, classes: "np.ndarray | None" = None
) -> LSAPSolution:
    """Optimal maximization LSAP via successive shortest paths.

    Min-cost flow on the negated matrix (max-profit == min-cost): rows are
    sources of ``supply`` units, column classes are sinks holding one unit
    per column, and each augmentation pushes one unit from the current
    row along a shortest path of reduced costs, with row and class
    potentials.  Class columns are interchangeable, so the search walks
    ``n_rows x n_classes`` instead of the columns; reaching a full class
    reaches every row holding a unit of it at once.  See
    :func:`_transport_min` for the tie rules.  With ``supply=1`` and no
    ``classes`` this is the textbook Hungarian search, entry for entry
    :func:`_hungarian_min_reference`, which stays as its oracle; a
    rectangle costs ``O(n_rows^2 n_cols)``, a quotient one ``O((n_rows
    supply)^2 n_classes)`` plus the checks.

    Args:
        profit: ``(n_rows, n_cols)`` matrix, ``n_rows * supply <= n_cols``.
        supply: Distinct columns each row takes.
        classes: Optional ``(n_cols,)`` integer class of each column;
            columns of one class must be identical, else the input is
            refused.

    >>> hungarian(np.array([[4., 1.], [2., 3.]])).value
    7.0
    >>> hungarian(np.array([[3., 3., 1., 1.]]), supply=2, classes=[0, 0, 1, 1])
    LSAPSolution(row_to_col=array([0, 1]), value=6.0)
    """
    matrix = _check_profit(profit, supply)
    if classes is None:
        members = np.arange(matrix.shape[1])
        start = np.arange(matrix.shape[1] + 1)
    else:
        members, start = _class_members(matrix, classes)
    cost = -matrix[:, members[start[:-1]]]
    holders = _transport_min(
        cost, supply, members, start, tie_by_column=classes is not None
    )
    rows: list[int] = []
    cols: list[int] = []
    for c, holding in enumerate(holders):
        if holding:
            rows += sorted(holding)
            cols += members[start[c] : start[c] + len(holding)].tolist()
    order = np.lexsort((cols, rows))
    row_to_col = np.asarray(cols, dtype=np.intp)[order]
    return LSAPSolution(row_to_col, _value(matrix, row_to_col, supply))


def _transport_min(
    cost: np.ndarray,
    supply: int,
    members: np.ndarray,
    start: np.ndarray,
    tie_by_column: bool,
) -> list[list[int]]:
    """Minimum-cost transportation from rows to column classes.

    Row ``r`` ships ``supply`` units and class ``c``, whose columns are
    ``members[start[c]:start[c + 1]]`` in ascending order, takes one unit
    per column; ``cost[r, c]`` is the cost of one unit.  Rows push
    in order, one unit per search.  The search is the Hungarian one with
    classes in place of columns: ``u``/``v`` are row/class potentials,
    ``minv`` the tentative reduced distance of each class not yet reached,
    ``way[c]`` the row that reached class ``c`` and ``via[r]`` the class
    through which row ``r`` was reached.  Each step reaches the closest
    class; a class with a free column ends the search, a full one brings in
    the rows holding it, which relax in ascending order.  Ties among the
    closest classes go to the first in index order, or, with
    ``tie_by_column``, to the class whose lowest free column comes first
    (a full class counts its last column), mirroring the column search's
    lowest-index rule; that keeps twins of one class from piling into one
    row when another class is as good.

    Returns:
        For each class, the rows holding its units (one entry per unit).
    """
    n_rows, n_classes = cost.shape
    capacity = np.diff(start)
    taken = np.zeros(n_classes, dtype=np.intp)
    key = members[start[:-1]]
    holders: list[list[int]] = [[] for _ in range(n_classes)]
    u = np.zeros(n_rows)
    v = np.zeros(n_classes)
    way = np.zeros(n_classes, dtype=np.intp)
    via = np.zeros(n_rows, dtype=np.intp)
    seen_rows = np.empty(n_rows, dtype=np.intp)
    seen_classes = np.empty(n_classes, dtype=np.intp)
    for source in range(n_rows):
        for _ in range(supply):
            minv = np.full(n_classes, np.inf)
            open_ = np.ones(n_classes, dtype=bool)
            row_seen = np.zeros(n_rows, dtype=bool)
            row_seen[source] = True
            seen_rows[0] = source
            n_seen_rows, n_seen_classes = 1, 0
            new_rows = [source]
            while True:
                # Reduced cost of reaching each class from the new rows (a
                # full class may bring none: its holders are in the tree).
                if len(new_rows) == 1:
                    r = new_rows[0]
                    cur = cost[r] - u[r] - v
                    better = open_ & (cur < minv)
                    minv[better] = cur[better]
                    way[better] = r
                elif new_rows:
                    block = cost[new_rows] - u[new_rows][:, None] - v
                    best = block.argmin(axis=0)
                    cur = block[best, np.arange(n_classes)]
                    better = open_ & (cur < minv)
                    minv[better] = cur[better]
                    way[better] = np.asarray(new_rows)[best[better]]
                # Reached classes hold inf in minv, so it is the frontier.
                c = int(minv.argmin())
                delta = minv[c]
                if tie_by_column:
                    tied = np.flatnonzero(minv == delta)
                    if len(tied) > 1:
                        c = int(tied[key[tied].argmin()])
                # Update potentials: the tree shifts by delta, the frontier
                # shrinks.
                u[seen_rows[:n_seen_rows]] += delta
                v[seen_classes[:n_seen_classes]] -= delta
                minv -= delta
                minv[c] = np.inf
                open_[c] = False
                seen_classes[n_seen_classes] = c
                n_seen_classes += 1
                if taken[c] < capacity[c]:
                    break
                new_rows = sorted({r for r in holders[c] if not row_seen[r]})
                for r in new_rows:
                    row_seen[r] = True
                    via[r] = c
                    seen_rows[n_seen_rows] = r
                    n_seen_rows += 1
            # Augment: each row on the path hands its unit of the class that
            # reached it to the row before it.
            taken[c] += 1
            key[c] = members[start[c] + min(taken[c], capacity[c] - 1)]
            r = int(way[c])
            holders[c].append(r)
            while r != source:
                c = int(via[r])
                holders[c].remove(r)
                r = int(way[c])
                holders[c].append(r)
    return holders


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


def greedy_lsap(profit: np.ndarray, supply: int = 1) -> LSAPSolution:
    """Greedy bipartite matching on the profit matrix (HTA-GRE's LSAP step).

    Sorts all ``n_rows * n_cols`` entries by decreasing profit and assigns
    each (row, column) pair whose column is free and whose row has taken
    fewer than ``supply`` columns; row ``r``'s ``k``-th column fills slot
    ``r * supply + k``.  Because the bipartite graph is complete, every row
    ends with ``supply`` columns, and GreedyMatching's 1/2 bound applies
    (Lemma 4).  The output is entry for entry that of the slot-level walk,
    ``greedy_lsap(np.repeat(profit, supply, axis=0))``: a row's copies are
    adjacent in that walk's order, so among equal profits a row fills its
    free slots from its lowest free columns before the next row moves,
    exactly as here.

    The entries are visited in the stable order of decreasing profit, in
    chunks that double from ``n_cols`` entries.  Full rows and taken columns
    only accumulate, so an entry whose row or column is done before its
    chunk starts would be skipped anyway; numpy drops those and only the
    survivors reach the Python check.  The output is entry for entry that
    of the one-entry-at-a-time loop.

    Complexity ``O(n^2 log n)``.
    """
    matrix = _check_profit(profit, supply)
    n_rows, n_cols = matrix.shape
    order = np.argsort(-matrix, axis=None, kind="stable")
    row_left = np.full(n_rows, supply, dtype=np.intp)
    col_free = np.ones(n_cols, dtype=bool)
    row_to_col = np.full(n_rows * supply, -1, dtype=np.intp)
    assigned = 0
    start, chunk = 0, n_cols
    while assigned < n_rows * supply and start < order.size:
        rows, cols = np.divmod(order[start : start + chunk], n_cols)
        start += chunk
        chunk *= 2
        live = (row_left[rows] > 0) & col_free[cols]
        for r, c in zip(rows[live].tolist(), cols[live].tolist()):
            if row_left[r] and col_free[c]:
                row_to_col[(r + 1) * supply - row_left[r]] = c
                row_left[r] -= 1
                col_free[c] = False
                assigned += 1
    return LSAPSolution(row_to_col, _value(matrix, row_to_col, supply))


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


def solve_lsap(
    profit: np.ndarray,
    method: str = "hungarian",
    supply: int = 1,
    classes: "np.ndarray | None" = None,
) -> LSAPSolution:
    """Dispatch to a named LSAP solver; every row takes ``supply`` columns.

    ``classes`` (columns of one class identical) lets the Hungarian kernel
    search over classes; the other methods check it and solve over
    columns.  The auction and brute-force solvers see the rows repeated
    ``supply`` times, so their answers are those of the expanded rectangle.

    >>> solve_lsap(np.array([[4., 1.], [2., 3.]]), "greedy").value
    7.0
    >>> solve_lsap(np.array([[4., 1., 3.]]), "greedy", supply=2).row_to_col
    array([0, 2])
    """
    try:
        solver = _SOLVERS[method]
    except KeyError:
        known = ", ".join(sorted(_SOLVERS))
        raise InvalidInstanceError(
            f"unknown LSAP method {method!r}; known methods: {known}"
        ) from None
    if solver is hungarian:
        return hungarian(profit, supply, classes)
    matrix = _check_profit(profit, supply)
    if classes is not None:
        _class_members(matrix, classes)
    if solver is greedy_lsap:
        return greedy_lsap(matrix, supply)
    return solver(np.repeat(matrix, supply, axis=0))


def lsap_methods() -> tuple[str, ...]:
    """Names of the available LSAP solvers."""
    return tuple(sorted(_SOLVERS))
