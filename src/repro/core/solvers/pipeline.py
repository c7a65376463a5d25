"""The shared HTA-APP / HTA-GRE pipeline (Algorithms 1 and 2).

Both algorithms run the same five phases and differ only in how the
auxiliary LSAP (line 11) is solved:

1. *encode* — build the MAXQAP encoding (Eqs. 4-6); ``B`` is held as the
   keyword-profile matrix and the task -> profile index, and no phase
   builds the ``|T| x |T|`` diversity matrix;
2. *matching* — a (greedy) maximum-weight matching ``M_B`` on the diversity
   graph ``B``, walked by pairs of keyword profiles on the profile matrix;
3. *profits* — the auxiliary LSAP profit matrix
   ``f[k, l] = bM(t_k) * degA_l + c[k, l]`` (line 10), one column per
   worker (a worker's ``x_max`` clique columns are identical), with its
   task rows shuffled; for HTA-APP also the twin-class index of the
   shuffled tasks (one keyword profile, one ``bM``: identical columns);
4. *lsap* — solve the LSAP: Hungarian for HTA-APP, greedy for HTA-GRE.
   By default only the clique columns enter the solver: ``f`` is
   identically zero on the isolated columns (``degA_l`` and ``c[., l]``
   both vanish there), so a task placed on one adds nothing, and the best
   injective map from clique columns to tasks has the value of the
   paper's square ``n x n`` optimum.  It is solved as a transportation
   problem, workers as rows each taking ``x_max`` tasks: HTA-APP's
   Hungarian searches over workers x twin classes, HTA-GRE's greedy over
   workers x tasks (entry for entry the greedy on the
   ``(|W| * x_max) x |T|`` rectangle).  The unplaced tasks then take the
   interchangeable isolated vertices in ascending order.
   ``lsap_shape="square"`` keeps the paper's formulation (the Fig. 2/3
   reproduction times it);
5. *swap + decode* — place the LSAP's answer back into a vertex
   permutation, per matched edge swap the two tasks' vertices with
   probability 1/2 (lines 12-16), then read off ``T_wq`` via Eq. 7.  The
   two candidate permutations are scored by the vectorised QAP objective:
   every worker's clique block of ``B`` gathered through the profile index.

Phase timings are recorded so the Fig. 2a bench can report the
Matching/Lsap split exactly as the paper does; ``lsap`` times the
:func:`~repro.matching.lsap.solve_lsap` call alone.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from ...errors import InvalidInstanceError
from ...matching.exact import MAX_EXACT_VERTICES, exact_max_weight_matching
from ...matching.greedy import greedy_matching_dense
from ...matching.lsap import solve_lsap
from ...rng import ensure_rng
from ..distance import first_appearance_index
from ..qap import QAPEncoding, build_encoding
from ..instance import HTAInstance

#: Auxiliary LSAP formulations: the clique columns only (default) or the
#: paper's full square matrix.
LSAP_SHAPES = ("clique", "square")


@dataclass(frozen=True)
class PipelineOutput:
    """Raw pipeline result before wrapping into an Assignment."""

    groups: list[list[int]]
    permutation: np.ndarray
    qap_objective: float
    timings: dict[str, float]
    info: dict[str, object]


def run_qap_pipeline(
    instance: HTAInstance,
    lsap_method: str,
    rng: "int | np.random.Generator | None" = None,
    matching_method: str = "greedy",
    lsap_shape: str = "clique",
) -> PipelineOutput:
    """Run Algorithm 1/2 and return per-worker task indices.

    Args:
        instance: The HTA instance.
        lsap_method: ``"hungarian"`` (HTA-APP), ``"greedy"`` (HTA-GRE), or
            ``"auction"`` (ablation).
        rng: Randomness source for the swap step.
        matching_method: ``"greedy"`` (default; preserves the bounds per
            Arkin et al.) or ``"exact"`` (bitmask DP; tiny instances only).
        lsap_shape: ``"clique"`` (default) solves the LSAP over the
            clique columns, as workers taking ``x_max`` tasks each;
            ``"square"`` solves the paper's ``n x n`` one.  Both reach the
            same optimum; tie-broken choices may differ.
    """
    check_lsap_shape(lsap_shape)
    generator = ensure_rng(rng)
    timings: dict[str, float] = {}

    start = time.perf_counter()
    encoding = build_encoding(instance)
    timings["encode"] = time.perf_counter() - start

    start = time.perf_counter()
    matching = _diversity_matching(encoding, matching_method, generator)
    matched_weight = _matched_edge_weights(encoding, matching)
    timings["matching"] = time.perf_counter() - start

    start = time.perf_counter()
    profits = encoding.profit_matrix(matched_weight)
    # Randomize the LSAP's tie-breaking by relabeling the rows.  Clustered
    # pools (AMT task groups) make the profits massively tied: when the
    # diversity matching saturates, f[k, l] barely depends on k, and a
    # deterministic tie-break packs consecutive same-group (near-identical)
    # tasks into one worker's clique, collapsing intra-set diversity below
    # even a random deal.  The guarantee holds for every fixed labeling, so
    # it also holds in expectation over a uniform one.
    row_order = generator.permutation(encoding.n_vertices)
    n_clique = encoding.n_workers * encoding.x_max
    supply, classes = 1, None
    if lsap_shape == "square":
        lsap_profits = np.zeros((encoding.n_vertices, encoding.n_vertices))
        lsap_profits[:, :n_clique] = np.repeat(
            profits[row_order], encoding.x_max, axis=1
        )
    else:
        # Workers become rows, each taking x_max of the shuffled tasks.
        lsap_profits = np.ascontiguousarray(profits[row_order].T)
        supply = encoding.x_max
        if lsap_method == "hungarian":
            classes = twin_classes(encoding, matched_weight, row_order)
    timings["profits"] = time.perf_counter() - start

    start = time.perf_counter()
    row_to_col = solve_lsap(lsap_profits, lsap_method, supply, classes).row_to_col
    timings["lsap"] = time.perf_counter() - start

    start = time.perf_counter()
    if lsap_shape == "square":
        base_permutation = np.empty(encoding.n_vertices, dtype=np.intp)
        base_permutation[row_order] = row_to_col
    else:
        # Clique vertex c takes task row_order[row_to_col[c]]; the unplaced
        # tasks take the isolated vertices in ascending task order.
        base_permutation = np.full(encoding.n_vertices, -1, dtype=np.intp)
        base_permutation[row_order[row_to_col]] = np.arange(n_clique)
        base_permutation[base_permutation < 0] = np.arange(
            n_clique, encoding.n_vertices
        )
    permutation, qap_value = _best_swap(
        encoding, base_permutation, matching, generator
    )
    groups = encoding.tasks_by_worker(permutation)
    timings["decode"] = time.perf_counter() - start
    timings["total"] = sum(timings.values())

    info: dict[str, object] = {
        "lsap_method": lsap_method,
        "matching_method": matching_method,
        "matching_size": len(matching),
        "lsap_shape": lsap_shape,
    }
    return PipelineOutput(
        groups=groups,
        permutation=permutation,
        qap_objective=qap_value,
        timings=timings,
        info=info,
    )


def check_lsap_shape(lsap_shape: str) -> str:
    """Return ``lsap_shape`` if it names a formulation, else raise."""
    if lsap_shape not in LSAP_SHAPES:
        raise InvalidInstanceError(
            f"unknown lsap_shape {lsap_shape!r}; use 'clique' or 'square'"
        )
    return lsap_shape


def twin_classes(
    encoding: QAPEncoding, matched_weight: np.ndarray, order: np.ndarray
) -> np.ndarray:
    """Class index of the tasks ``order`` lists: twins share a class.

    Tasks with one keyword profile and one matched weight ``bM`` have
    identical profit columns (relevance depends only on the profile), so
    the Hungarian kernel can solve over these classes.
    """
    keys = zip(encoding.profile[order].tolist(), matched_weight[order].tolist())
    return first_appearance_index(list(keys))[1]


def _diversity_matching(
    encoding: QAPEncoding, method: str, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """The matching ``M_B`` on the (padded) diversity graph (line 2); the
    greedy walk reads ``B`` as the profile matrix and index."""
    if method == "greedy":
        # Random class labels break ties between profile pairs, as the LSAP
        # row shuffle does: in first-appearance (group) order each group's
        # profiles pair with the next group's, so the partners the swap
        # brings into one worker's set share a group.
        profile = encoding.profile
        labels = rng.permutation(int(profile.max(initial=-1)) + 1)
        # Relabel the profile matrix so class labels[p] reads row p.
        order = np.argsort(labels)
        relabeled = encoding.profile_matrix[order][:, order]
        return greedy_matching_dense(relabeled, labels[profile])
    if method == "exact":
        if encoding.n_vertices > MAX_EXACT_VERTICES:
            raise ValueError(
                f"exact matching supports at most {MAX_EXACT_VERTICES} "
                f"vertices, instance has {encoding.n_vertices}"
            )
        return exact_max_weight_matching(encoding.diversity)
    raise ValueError(f"unknown matching method {method!r}; use 'greedy' or 'exact'")


def _matched_edge_weights(
    encoding: QAPEncoding, matching: list[tuple[int, int]]
) -> np.ndarray:
    """``bM(t_k)``: the weight of the matched edge covering ``t_k``, else 0
    (Algorithm 1 lines 5-8)."""
    weights = np.zeros(encoding.n_vertices)
    i, j = _edge_array(matching).T
    profile = encoding.profile
    weights[i] = weights[j] = encoding.profile_matrix[profile[i], profile[j]]
    return weights


def _edge_array(matching: list[tuple[int, int]]) -> np.ndarray:
    """The matched edges as a ``(len(matching), 2)`` integer array."""
    flat = itertools.chain.from_iterable(matching)
    return np.fromiter(flat, dtype=np.intp, count=2 * len(matching)).reshape(-1, 2)


def _best_swap(
    encoding: QAPEncoding,
    base_permutation: np.ndarray,
    matching: list[tuple[int, int]],
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Randomized per-edge swap (lines 12-16), kept only if it scores higher.

    The unswapped LSAP permutation is evaluated as a candidate too: the
    approximation analysis credits the swap with only half of the relevance
    term in expectation (Eq. 21), so for relevance-heavy instances the raw
    LSAP solution is often strictly better.  Taking the max of the two can
    only raise the expected objective, so Theorem 3/4's bounds are
    preserved.
    """
    base_value = encoding.objective(base_permutation)
    permutation = base_permutation.copy()
    if matching:
        # Matched edges are vertex-disjoint, so the swaps commute.
        edges = _edge_array(matching)
        k, l = edges[rng.random(len(matching)) < 0.5].T
        permutation[k], permutation[l] = permutation[l], permutation[k]
    value = encoding.objective(permutation)
    if value > base_value:
        return permutation, float(value)
    return base_permutation, float(base_value)
