"""Metric distances between keyword vectors.

The paper measures pairwise task diversity with the Jaccard distance
``d(t_k, t_l) = 1 - J(t_k, t_l)`` and allows any distance that is a metric
(triangle inequality is required by the HTA-GRE approximation proof,
Appendix A).  This module provides:

* several metric distances over boolean vectors,
* vectorized pairwise-matrix computation (blockwise, so a few thousand tasks
  fit comfortably in memory),
* a sampling-based metric-property checker used by the test suite and by
  :func:`get_distance` at registration time for custom distances.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import NotAMetricError

DistanceFn = Callable[[np.ndarray, np.ndarray], float]

#: Rows per block in the pairwise-matrix computation.  512 bounds the per-block
#: float64 intermediates (intersection, union) at 512 x m each.
_BLOCK_ROWS = 512


def jaccard_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Jaccard distance between two boolean vectors.

    Defined as ``1 - |u & v| / |u | v|``; two all-false vectors are identical,
    so their distance is 0 (the standard convention that keeps Jaccard a
    metric).

    >>> jaccard_distance(np.array([1, 1, 0], bool), np.array([0, 1, 1], bool))
    0.6666666666666667
    """
    u = np.asarray(u, dtype=bool)
    v = np.asarray(v, dtype=bool)
    union = np.logical_or(u, v).sum()
    if union == 0:
        return 0.0
    intersection = np.logical_and(u, v).sum()
    return float(1.0 - intersection / union)


def hamming_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Normalized Hamming distance (fraction of differing positions)."""
    u = np.asarray(u, dtype=bool)
    v = np.asarray(v, dtype=bool)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    return float(np.mean(u != v))


def euclidean_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Euclidean distance on 0/1 vectors, normalized to [0, 1] by sqrt(R)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    if u.size == 0:
        return 0.0
    return float(np.linalg.norm(u - v) / np.sqrt(u.size))


def angular_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Angular distance (normalized angle between vectors), a metric in [0, 1].

    The raw cosine *dissimilarity* is not a metric; the arccos of cosine
    similarity is.  All-zero vectors are treated as identical to each other
    and maximally distant from non-zero vectors.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    norm_u = np.linalg.norm(u)
    norm_v = np.linalg.norm(v)
    if norm_u == 0.0 and norm_v == 0.0:
        return 0.0
    if norm_u == 0.0 or norm_v == 0.0:
        return 1.0
    cosine = float(np.clip(np.dot(u, v) / (norm_u * norm_v), -1.0, 1.0))
    if cosine >= 1.0 - 1e-12:
        # arccos loses ~1e-8 of precision near 1, which would make d(x, x)
        # slightly positive; snap exact/near-parallel vectors to distance 0.
        return 0.0
    # Non-negative vectors span angles in [0, pi/2]; scale onto [0, 1].
    return float(np.arccos(cosine) * 2.0 / np.pi)


_REGISTRY: dict[str, DistanceFn] = {
    "jaccard": jaccard_distance,
    "hamming": hamming_distance,
    "euclidean": euclidean_distance,
    "angular": angular_distance,
}


def get_distance(name: str) -> DistanceFn:
    """Look up a registered distance by name.

    >>> get_distance("jaccard") is jaccard_distance
    True
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown distance {name!r}; known distances: {known}") from None


def register_distance(
    name: str,
    fn: DistanceFn,
    check_sample: np.ndarray | None = None,
) -> None:
    """Register a custom distance, optionally verifying metricity on a sample.

    The approximation guarantees of HTA-GRE require the triangle inequality,
    so callers registering a custom function are encouraged to pass a
    representative ``check_sample`` matrix (rows = vectors); registration then
    fails loudly if any metric axiom is violated on the sample.
    """
    if name in _REGISTRY:
        raise ValueError(f"distance {name!r} is already registered")
    if check_sample is not None:
        check_metric_on_sample(fn, check_sample)
    _REGISTRY[name] = fn


def registered_distances() -> tuple[str, ...]:
    """Names of all registered distances."""
    return tuple(sorted(_REGISTRY))


def check_metric_on_sample(
    fn: DistanceFn,
    sample: np.ndarray,
    atol: float = 1e-9,
) -> None:
    """Check the metric axioms of ``fn`` on every triple of sample rows.

    Verifies identity (d(x, x) = 0), non-negativity, symmetry, and the
    triangle inequality.  Raises :class:`NotAMetricError` on the first
    violation.  Cost is cubic in the number of rows, so keep samples small
    (tests use 10-20 rows).
    """
    rows = np.asarray(sample)
    n = rows.shape[0]
    distance = np.zeros((n, n))
    for i in range(n):
        if abs(fn(rows[i], rows[i])) > atol:
            raise NotAMetricError(f"d(x, x) != 0 for row {i}")
        for j in range(i + 1, n):
            dij = fn(rows[i], rows[j])
            dji = fn(rows[j], rows[i])
            if dij < -atol:
                raise NotAMetricError(f"negative distance between rows {i} and {j}")
            if abs(dij - dji) > atol:
                raise NotAMetricError(f"asymmetric distance between rows {i} and {j}")
            distance[i, j] = distance[j, i] = dij
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if distance[i, j] > distance[i, k] + distance[k, j] + atol:
                    raise NotAMetricError(
                        f"triangle inequality violated on rows ({i}, {j}, {k}): "
                        f"{distance[i, j]} > {distance[i, k]} + {distance[k, j]}"
                    )


def keyword_intersections(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Intersection counts ``|u & v|`` for every (left row, right row) pair.

    One float64 BLAS product of the 0/1 matrices.  Every product and partial
    sum is an integer no larger than the keyword count, far below 2**53, so
    the counts are exact in any summation order.

    >>> keyword_intersections(np.array([[1, 1, 0]], bool), np.array([[0, 1, 1]], bool))
    array([[1.]])
    """
    return np.asarray(left, dtype=np.float64) @ np.asarray(right, dtype=np.float64).T


def pairwise_jaccard(
    matrix: np.ndarray,
    other: np.ndarray | None = None,
) -> np.ndarray:
    """Dense Jaccard-distance matrix between rows of boolean matrices.

    With one argument returns the symmetric ``(n, n)`` matrix of distances
    between rows of ``matrix``; with two arguments the ``(n, m)`` cross
    matrix.

    Intersection counts come from :func:`keyword_intersections` per block
    of rows; they are exact, so the distances equal
    :func:`jaccard_distance` bit for bit.
    """
    left = np.asarray(matrix, dtype=bool)
    right = left if other is None else np.asarray(other, dtype=bool)
    left_float = left.astype(np.float64)
    right_float = left_float if other is None else right.astype(np.float64)
    left_counts = left.sum(axis=1).astype(np.float64)
    right_counts = right.sum(axis=1).astype(np.float64)
    n, m = left.shape[0], right.shape[0]
    # Two empty vectors have union 0 and are identical: distance 0, which
    # the zero fill supplies wherever the ``where=`` masks below skip.
    out = np.zeros((n, m), dtype=np.float64)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        intersection = keyword_intersections(left_float[start:stop], right_float)
        union = left_counts[start:stop, None] + right_counts[None, :] - intersection
        nonzero = union > 0
        np.divide(intersection, union, out=intersection, where=nonzero)
        np.subtract(1.0, intersection, out=out[start:stop], where=nonzero)
    if other is None:
        np.fill_diagonal(out, 0.0)
    return out


def first_appearance_index(keys: Sequence[Hashable]) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct ``keys`` in order of first appearance.

    Returns where each distinct key first appears (in that order) and each
    key's number.  Every profile numbering goes through here, so a fresh
    instance and the serving cache's carve give the same candidates the
    same classes, and a replayed solve walks them in the same order.

    >>> first, index = first_appearance_index([7, 3, 7, 5])
    >>> first.tolist(), index.tolist()
    ([0, 1, 3], [0, 1, 0, 2])
    """
    number: dict[Hashable, int] = {}
    index = np.fromiter(
        (number.setdefault(key, len(number)) for key in keys),
        dtype=np.intp,
        count=len(keys),
    )
    return np.unique(index, return_index=True)[1], index


def keyword_profiles(
    matrix: np.ndarray,
    index: dict[bytes, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keyword rows (*profiles*) and each row's profile number.

    Tasks of one group share their keywords, so a pool holds far fewer
    profiles than tasks, and every pairwise distance is a distance between
    two profiles: ``D == P[np.ix_(profile, profile)]`` where ``P`` is the
    profile matrix.  Profiles are numbered by first appearance.  ``index``
    maps the packed bytes of the rows already numbered (it is extended in
    place, new profiles numbered from ``len(index)`` in order of first
    appearance); only the rows of the *new* profiles are returned.

    >>> rows = np.array([[1, 0], [0, 1], [1, 0]], bool)
    >>> profiles, profile = keyword_profiles(rows)
    >>> profiles.astype(int).tolist(), profile.tolist()
    ([[1, 0], [0, 1]], [0, 1, 0])
    """
    rows = np.asarray(matrix, dtype=bool)
    packed = np.packbits(rows, axis=1)
    width, buffer = packed.shape[1], packed.tobytes()
    keys = [buffer[i * width:(i + 1) * width] for i in range(rows.shape[0])]
    first, profile = first_appearance_index(keys)
    if index is None:
        return rows[first], profile
    known = len(index)
    number = np.fromiter(
        (index.setdefault(keys[i], len(index)) for i in first.tolist()),
        dtype=np.intp,
        count=len(first),
    )
    return rows[first[number >= known]], number[profile]


def take_submatrix(matrix: np.ndarray, indices: Sequence[int] | np.ndarray) -> np.ndarray:
    """Contiguous symmetric submatrix ``matrix[indices][:, indices]``.

    The incremental diversity cache keeps one big pairwise matrix alive
    across assignment iterations and carves per-solve blocks out of it; this
    helper does the carving in one fancy-indexing pass and returns a
    C-contiguous copy so downstream solvers iterate cache-friendly rows
    instead of strided views.

    >>> m = pairwise_jaccard(np.eye(4, dtype=bool))
    >>> take_submatrix(m, [0, 2]).shape
    (2, 2)
    """
    square = np.asarray(matrix)
    if square.ndim != 2 or square.shape[0] != square.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {square.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    return np.ascontiguousarray(square[np.ix_(idx, idx)])


def pairwise_matrix(
    matrix: np.ndarray,
    distance: str | DistanceFn = "jaccard",
    other: np.ndarray | None = None,
) -> np.ndarray:
    """Pairwise distance matrix for any registered or callable distance.

    The Jaccard path is vectorized; other distances fall back to a generic
    double loop (fine for the moderate sizes where non-default metrics are
    used).
    """
    fn = get_distance(distance) if isinstance(distance, str) else distance
    if fn is jaccard_distance:
        return pairwise_jaccard(matrix, other)
    left = np.asarray(matrix)
    right = left if other is None else np.asarray(other)
    n, m = left.shape[0], right.shape[0]
    out = np.zeros((n, m))
    if other is None:
        for i in range(n):
            for j in range(i + 1, m):
                out[i, j] = out[j, i] = fn(left[i], right[j])
    else:
        for i in range(n):
            for j in range(m):
                out[i, j] = fn(left[i], right[j])
    return out


@dataclass(frozen=True)
class DistanceSpec:
    """A named distance plus the matrices it produces, for experiment configs."""

    name: str = "jaccard"

    @property
    def fn(self) -> DistanceFn:
        return get_distance(self.name)

    def matrix(self, vectors: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
        return pairwise_matrix(vectors, self.name, other)


def weighted_jaccard_factory(weights: np.ndarray) -> DistanceFn:
    """Build a weighted Jaccard distance for non-negative keyword weights.

    ``d(u, v) = 1 - sum_i w_i min(u_i, v_i) / sum_i w_i max(u_i, v_i)`` — the
    Ruzicka distance restricted to boolean vectors, a metric for any
    non-negative weights.  Use with :func:`idf_weights` so rare (more
    informative) keywords dominate the diversity signal, as in IR practice.

    The returned function can be passed anywhere a distance is accepted, or
    registered under a name via :func:`register_distance`.
    """
    weight_vector = np.asarray(weights, dtype=float)
    if weight_vector.ndim != 1:
        raise ValueError(f"weights must be 1-D, got shape {weight_vector.shape}")
    if (weight_vector < 0).any():
        raise ValueError("weights must be non-negative")
    if not weight_vector.any():
        raise ValueError("weights must not be all zero")

    def weighted_jaccard(u: np.ndarray, v: np.ndarray) -> float:
        a = np.asarray(u, dtype=bool)
        b = np.asarray(v, dtype=bool)
        if a.shape != weight_vector.shape or b.shape != weight_vector.shape:
            raise ValueError(
                f"vectors must have shape {weight_vector.shape}, "
                f"got {a.shape} and {b.shape}"
            )
        union = float(weight_vector[a | b].sum())
        if union == 0.0:
            return 0.0
        intersection = float(weight_vector[a & b].sum())
        return 1.0 - intersection / union

    return weighted_jaccard


def idf_weights(matrix: np.ndarray, smoothing: float = 1.0) -> np.ndarray:
    """Inverse-document-frequency weights from a boolean corpus matrix.

    ``w_i = log((n + smoothing) / (df_i + smoothing))`` where ``df_i`` is
    the number of rows containing keyword ``i``.  Keywords appearing
    everywhere get weight ~0; rare keywords get large weights.
    """
    rows = np.asarray(matrix, dtype=bool)
    if rows.ndim != 2:
        raise ValueError(f"corpus matrix must be 2-D, got {rows.ndim}-D")
    if smoothing <= 0:
        raise ValueError(f"smoothing must be positive, got {smoothing}")
    document_frequency = rows.sum(axis=0).astype(float)
    n = rows.shape[0]
    return np.log((n + smoothing) / (document_frequency + smoothing))
