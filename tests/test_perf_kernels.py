"""Differential suite for the repro.perf kernels.

The packed Jaccard kernel and the vectorized Hungarian kernel are only
allowed to exist because they are indistinguishable from the originals:
packed-vs-dense distances must be *bit-identical* (``==``, not allclose),
and the vectorized LSAP must reproduce the reference assignment entry for
entry, on square and rectangular inputs alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distance import pairwise_jaccard
from repro.core.qap import build_encoding
from repro.experiments import build_offline_instance
from repro.matching.greedy import greedy_matching_dense
from repro.matching.lsap import brute_force_lsap, hungarian
from repro.perf import config as perf_config
from repro.perf.bitpack import PackedMatrix, pack_rows, packed_intersections, popcount
from repro.perf.lsap_kernels import hungarian_min_rect

#: Keyword-space widths straddling the uint64 word boundaries.
WIDTHS = (1, 7, 63, 64, 65, 130)


@pytest.fixture(autouse=True)
def _clean_kernel_selection():
    perf_config.reset_kernels()
    yield
    perf_config.reset_kernels()


class TestBitpack:
    def test_popcount_matches_python(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, size=50, dtype=np.uint64)
        expected = np.array([bin(int(w)).count("1") for w in words])
        np.testing.assert_array_equal(popcount(words), expected)

    def test_pack_rows_little_endian_words(self):
        np.testing.assert_array_equal(
            pack_rows(np.array([[1, 0, 1]], dtype=bool)),
            np.array([[5]], dtype=np.uint64),
        )
        # Bit 64 lands in the second word.
        wide = np.zeros((1, 65), dtype=bool)
        wide[0, 64] = True
        np.testing.assert_array_equal(
            pack_rows(wide), np.array([[0, 1]], dtype=np.uint64)
        )

    def test_pack_rows_zero_width(self):
        assert pack_rows(np.zeros((4, 0), dtype=bool)).shape == (4, 0)

    def test_pack_rows_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            pack_rows(np.zeros(8, dtype=bool))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_intersections_match_dense_dot(self, width):
        rng = np.random.default_rng(width)
        left = rng.random((23, width)) < 0.4
        right = rng.random((17, width)) < 0.4
        expected = left.astype(np.int64) @ right.astype(np.int64).T
        got = packed_intersections(pack_rows(left), pack_rows(right))
        np.testing.assert_array_equal(got, expected)

    def test_intersections_word_count_mismatch(self):
        with pytest.raises(ValueError, match="word-count mismatch"):
            packed_intersections(
                pack_rows(np.ones((2, 64), dtype=bool)),
                pack_rows(np.ones((2, 65), dtype=bool)),
            )

    def test_packed_matrix_counts(self):
        rng = np.random.default_rng(5)
        bits = rng.random((12, 70)) < 0.3
        packed = PackedMatrix(bits)
        np.testing.assert_array_equal(packed.counts, bits.sum(axis=1))
        np.testing.assert_array_equal(
            packed.intersections(packed),
            bits.astype(np.int64) @ bits.astype(np.int64).T,
        )


class TestJaccardDifferential:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
    def test_square_bit_identical(self, width, density):
        rng = np.random.default_rng(width * 7 + int(density * 10))
        matrix = rng.random((37, width)) < density
        packed = pairwise_jaccard(matrix, kernel="packed")
        dense = pairwise_jaccard(matrix, kernel="dense")
        assert (packed == dense).all()

    @pytest.mark.parametrize("width", WIDTHS)
    def test_cross_bit_identical(self, width):
        rng = np.random.default_rng(width)
        left = rng.random((19, width)) < 0.3
        right = rng.random((11, width)) < 0.3
        packed = pairwise_jaccard(left, right, kernel="packed")
        dense = pairwise_jaccard(left, right, kernel="dense")
        assert packed.shape == (19, 11)
        assert (packed == dense).all()

    def test_all_zero_rows(self):
        """Empty vectors: union 0 pairs must come out 0.0 on both kernels."""
        rng = np.random.default_rng(2)
        matrix = np.zeros((6, 70), dtype=bool)
        matrix[2] = rng.random(70) < 0.5
        packed = pairwise_jaccard(matrix, kernel="packed")
        dense = pairwise_jaccard(matrix, kernel="dense")
        assert (packed == dense).all()
        assert packed[0, 1] == 0.0  # empty-vs-empty is identical
        assert packed[0, 2] == 1.0  # empty-vs-nonempty is maximally distant

    def test_spans_multiple_blocks(self):
        """Exercise the blockwise loop (> _BLOCK_ROWS rows) on both kernels."""
        rng = np.random.default_rng(3)
        matrix = rng.random((600, 40)) < 0.2
        packed = pairwise_jaccard(matrix, kernel="packed")
        dense = pairwise_jaccard(matrix, kernel="dense")
        assert (packed == dense).all()
        assert (np.diag(packed) == 0.0).all()


class TestKernelConfig:
    def test_default_is_fastest(self):
        assert perf_config.get_kernel("jaccard") == "packed"
        assert perf_config.get_kernel("lsap") == "vectorized"

    def test_set_and_reset(self):
        perf_config.set_kernel("jaccard", "dense")
        assert perf_config.get_kernel("jaccard") == "dense"
        perf_config.reset_kernels()
        assert perf_config.get_kernel("jaccard") == "packed"

    def test_use_kernel_restores(self):
        with perf_config.use_kernel("lsap", "reference"):
            assert perf_config.get_kernel("lsap") == "reference"
        assert perf_config.get_kernel("lsap") == "vectorized"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JACCARD_KERNEL", "dense")
        assert perf_config.get_kernel("jaccard") == "dense"
        perf_config.set_kernel("jaccard", "packed")  # explicit beats env
        assert perf_config.get_kernel("jaccard") == "packed"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown jaccard kernel"):
            perf_config.set_kernel("jaccard", "blazing")
        with pytest.raises(KeyError, match="unknown kernel domain"):
            perf_config.get_kernel("sorting")

    def test_resolve_prefers_explicit(self):
        perf_config.set_kernel("jaccard", "dense")
        assert perf_config.resolve_kernel("jaccard", "packed") == "packed"
        assert perf_config.resolve_kernel("jaccard", None) == "dense"


class TestHungarianDifferential:
    def test_square_assignments_identical(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            profit = rng.random((n, n)) * 10
            fast = hungarian(profit, kernel="vectorized")
            slow = hungarian(profit, kernel="reference")
            np.testing.assert_array_equal(fast.row_to_col, slow.row_to_col)
            assert fast.value == slow.value

    def test_square_with_ties_identical(self):
        """Integer profits force ties; tie-breaking must match exactly."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            profit = rng.integers(0, 4, size=(n, n)).astype(float)
            fast = hungarian(profit, kernel="vectorized")
            slow = hungarian(profit, kernel="reference")
            np.testing.assert_array_equal(fast.row_to_col, slow.row_to_col)

    def test_rectangular_with_ties_identical(self):
        """Wide tie-heavy rectangles: the clique-column LSAP's shape."""
        rng = np.random.default_rng(12)
        for _ in range(200):
            n_rows = int(rng.integers(0, 10))
            n_cols = int(rng.integers(max(n_rows, 1), 30))
            profit = rng.integers(-1, 3, size=(n_rows, n_cols)).astype(float)
            fast = hungarian(profit, kernel="vectorized")
            slow = hungarian(profit, kernel="reference")
            np.testing.assert_array_equal(fast.row_to_col, slow.row_to_col)

    def test_rectangular_matches_brute_force(self):
        """The direct rectangular solve must stay optimal on wide matrices."""
        rng = np.random.default_rng(6)
        for _ in range(60):
            n_rows = int(rng.integers(1, 7))
            n_cols = int(rng.integers(n_rows, 10))
            profit = rng.integers(0, 6, size=(n_rows, n_cols)).astype(float)
            for kernel in ("vectorized", "reference"):
                solution = hungarian(profit, kernel=kernel)
                oracle = brute_force_lsap(profit)
                assert solution.value == pytest.approx(oracle.value)
                assert solution.is_valid(n_cols)

    def test_very_wide_rectangular(self):
        """n_rows << n_cols — a few workers against many candidate tasks."""
        rng = np.random.default_rng(8)
        profit = rng.random((5, 300))
        fast = hungarian(profit, kernel="vectorized")
        slow = hungarian(profit, kernel="reference")
        np.testing.assert_array_equal(fast.row_to_col, slow.row_to_col)
        assert fast.is_valid(300)

    @given(
        n_groups=st.integers(1, 4),
        per_group=st.integers(5, 20),
        n_workers=st.integers(1, 4),
        x_max=st.integers(2, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_clique_profits_from_amt_pools_identical(
        self, n_groups, per_group, n_workers, x_max, seed
    ):
        """The HTA pipeline's rectangular input — clique columns as rows,
        shuffled tasks as columns — is massively tied on AMT pools; both
        kernels must still pick the same columns, or the ``lsap-reference``
        replay variant diverges from the recorded run."""
        instance = build_offline_instance(
            n_groups * per_group, per_group, n_workers, x_max, rng=seed
        )
        encoding = build_encoding(instance)
        n = encoding.n_vertices
        weights = np.zeros(n)
        for i, j in greedy_matching_dense(encoding.diversity):
            weights[i] = weights[j] = encoding.diversity[i, j]
        row_order = np.random.default_rng(seed).permutation(n)
        n_clique = n_workers * x_max
        profit = encoding.profit_matrix(weights)[row_order, :n_clique].T
        fast = hungarian(profit, kernel="vectorized")
        slow = hungarian(profit, kernel="reference")
        np.testing.assert_array_equal(fast.row_to_col, slow.row_to_col)

    def test_kernel_selection_via_config(self):
        profit = np.array([[4.0, 1.0], [2.0, 3.0]])
        with perf_config.use_kernel("lsap", "reference"):
            assert hungarian(profit).value == 7.0
        assert hungarian(profit).value == 7.0

    def test_min_rect_rejects_tall(self):
        with pytest.raises(ValueError, match="n_rows <= n_cols"):
            hungarian_min_rect(np.zeros((3, 2)))

    def test_min_rect_empty(self):
        assert hungarian_min_rect(np.zeros((0, 4))).shape == (0,)
