"""Bit-packed boolean-matrix kernels.

The pairwise-Jaccard matrix is the serving path's startup and per-solve hot
loop: ``|u & v|`` for every row pair.  The dense path computes it as an
int64 matmul over the ``(n, R)`` boolean matrix — ``O(n m R)`` multiply-adds
that numpy cannot hand to BLAS (integer dtypes take the naive loop).  This
module packs each boolean row into ``ceil(R / 64)`` ``uint64`` words and
computes the same intersection counts as vectorized popcounts over bitwise
ANDs — 64 keyword positions per word op, with ``np.bitwise_count`` where
numpy provides it (>= 2.0) and an 8-bit lookup table otherwise.

Counts are exact integers either way, so the Jaccard distances derived from
them are *bit-identical* to the dense path (the differential suite in
``tests/test_perf_kernels.py`` holds both paths to that).
"""

from __future__ import annotations

import numpy as np

#: Rows per block when materialising the (block, m, words) AND intermediate.
_BLOCK_ROWS = 256

#: Popcount of every byte value; fallback when np.bitwise_count is missing.
_POPCOUNT8 = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of an unsigned-integer array (same shape)."""
    words = np.asarray(words)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words)
    return _POPCOUNT8[words.view(np.uint8)].reshape(
        words.shape + (words.dtype.itemsize,)
    ).sum(axis=-1, dtype=np.uint8)


def pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack boolean rows into ``uint64`` words, little-endian bit order.

    Returns shape ``(n, ceil(R / 64))``; trailing pad bits are zero, so
    bitwise ANDs between packed rows never invent spurious intersections.

    >>> pack_rows(np.array([[1, 0, 1]], dtype=bool))
    array([[5]], dtype=uint64)
    """
    bits = np.asarray(matrix, dtype=bool)
    if bits.ndim != 2:
        raise ValueError(f"expected a 2-D boolean matrix, got {bits.ndim}-D")
    n, r = bits.shape
    n_words = (r + 63) // 64
    if n_words == 0:
        return np.zeros((n, 0), dtype=np.uint64)
    packed8 = np.packbits(bits, axis=1, bitorder="little")
    n_bytes = n_words * 8
    if packed8.shape[1] < n_bytes:
        packed8 = np.pad(packed8, ((0, 0), (0, n_bytes - packed8.shape[1])))
    # A row is n_bytes little-endian bytes; viewing as uint64 needs the
    # native byte order to be little-endian, which numpy wheels guarantee on
    # every platform we target — assert rather than silently mis-pack.
    assert np.dtype(np.uint64).byteorder in ("=", "<") and np.little_endian
    return np.ascontiguousarray(packed8).view(np.uint64)


def packed_intersections(
    left: np.ndarray,
    right: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``|u & v|`` for every (left row, right row) pair, as int64.

    ``left``/``right`` are packed matrices from :func:`pack_rows` with the
    same word count.  Blockwise over left rows so the 3-D AND intermediate
    stays small.
    """
    if left.shape[1] != right.shape[1]:
        raise ValueError(
            f"word-count mismatch: {left.shape[1]} vs {right.shape[1]}"
        )
    n, m = left.shape[0], right.shape[0]
    if out is None:
        out = np.empty((n, m), dtype=np.int64)
    if left.shape[1] == 0:
        out[:] = 0
        return out
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        anded = left[start:stop, None, :] & right[None, :, :]
        out[start:stop] = popcount(anded).sum(axis=-1, dtype=np.int64)
    return out


class PackedMatrix:
    """A boolean matrix with its packed words and row popcounts.

    Carried by callers that compute many intersection products against the
    same operand (the diversity cache packs its pool matrix once).
    """

    __slots__ = ("n_rows", "n_bits", "words", "counts")

    def __init__(self, matrix: np.ndarray):
        bits = np.asarray(matrix, dtype=bool)
        self.n_rows, self.n_bits = bits.shape
        self.words = pack_rows(bits)
        self.counts = bits.sum(axis=1, dtype=np.int64)

    def intersections(self, other: "PackedMatrix") -> np.ndarray:
        return packed_intersections(self.words, other.words)
