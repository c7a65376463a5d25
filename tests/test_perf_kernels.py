"""Differential suite for the numeric hot-path kernels.

The BLAS Jaccard kernel must equal the scalar :func:`jaccard_distance`
bit for bit (``==``, not allclose), and the Hungarian kernel at unit
supply without classes must reproduce the reference assignment entry for
entry, on square and rectangular inputs alike.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import distance
from repro.core.distance import jaccard_distance, keyword_intersections, pairwise_jaccard
from repro.core.qap import build_encoding
from repro.experiments import build_offline_instance
from repro.core.solvers import pipeline
from repro.errors import InvalidInstanceError
from repro.matching.lsap import (
    _hungarian_min_reference,
    brute_force_lsap,
    hungarian,
)

#: Keyword-space widths: empty, and either side of the 64-bit boundaries.
WIDTHS = (0, 1, 7, 63, 64, 65, 130)


def scalar_jaccard(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The oracle: :func:`jaccard_distance` on every (left, right) row pair."""
    return np.array(
        [[jaccard_distance(u, v) for v in right] for u in left]
    ).reshape(len(left), len(right))


class TestBitpack:
    """Exact keyword-intersection counts.

    The class keeps the name it had when a bit-packed popcount kernel
    produced these counts; the BLAS product now does.
    """

    @pytest.mark.parametrize("width", WIDTHS)
    def test_intersections_match_dense_dot(self, width):
        rng = np.random.default_rng(width)
        left = rng.random((23, width)) < 0.4
        right = rng.random((17, width)) < 0.4
        expected = left.astype(np.int64) @ right.astype(np.int64).T
        got = keyword_intersections(left, right)
        np.testing.assert_array_equal(got, expected)


class TestJaccardDifferential:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 1.0])
    def test_square_bit_identical(self, width, density):
        rng = np.random.default_rng(width * 7 + int(density * 10))
        matrix = rng.random((37, width)) < density
        got = pairwise_jaccard(matrix)
        assert (got == scalar_jaccard(matrix, matrix)).all()
        assert (got == got.T).all()

    @pytest.mark.parametrize("width", WIDTHS)
    def test_cross_bit_identical(self, width):
        rng = np.random.default_rng(width)
        left = rng.random((19, width)) < 0.3
        right = rng.random((11, width)) < 0.3
        got = pairwise_jaccard(left, right)
        assert got.shape == (19, 11)
        assert (got == scalar_jaccard(left, right)).all()

    def test_all_zero_rows(self):
        """Empty vectors: union 0 pairs come out 0.0; full rows are 1 - |u|/R
        from everything else."""
        rng = np.random.default_rng(2)
        matrix = np.zeros((6, 70), dtype=bool)
        matrix[2] = rng.random(70) < 0.5
        matrix[4] = True
        got = pairwise_jaccard(matrix)
        assert (got == scalar_jaccard(matrix, matrix)).all()
        assert got[0, 1] == 0.0  # empty-vs-empty is identical
        assert got[0, 2] == 1.0  # empty-vs-nonempty is maximally distant
        assert got[2, 4] == 1.0 - matrix[2].sum() / 70

    def test_spans_multiple_blocks(self):
        """More rows than one block: square and cross blocks still exact."""
        rng = np.random.default_rng(3)
        n = distance._BLOCK_ROWS + 88
        matrix = rng.random((n, 40)) < 0.2
        got = pairwise_jaccard(matrix)
        # Every row (both blocks) against a few columns; symmetry covers
        # the transposed strip.
        assert (got[:, -9:] == scalar_jaccard(matrix, matrix[-9:])).all()
        assert (got == got.T).all()
        assert (np.diag(got) == 0.0).all()
        cross = pairwise_jaccard(matrix, matrix[:9])
        assert (cross == got[:, :9]).all()

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairwise_jaccard(np.ones((2, 64), dtype=bool), np.ones((2, 65), dtype=bool))

    @given(
        n=st.integers(1, 30),
        m=st.integers(1, 30),
        width=st.integers(0, 140),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_matches_scalar(self, n, m, width, density, seed):
        rng = np.random.default_rng(seed)
        left = rng.random((n, width)) < density
        right = rng.random((m, width)) < density
        assert (pairwise_jaccard(left, right) == scalar_jaccard(left, right)).all()


class TestBlasThreadPin:
    """``import repro`` defaults OpenBLAS to one thread: after a GEMM, a
    second OpenBLAS thread spins and costs the ingest path CPU."""

    @staticmethod
    def _run(code: str, preset: "str | None") -> str:
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    def test_unset_defaults_to_one(self):
        code = "import os, repro; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert self._run(code, None) == "1"

    def test_preset_value_left_alone(self):
        code = "import os, repro; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert self._run(code, "3") == "3"

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/self/task"
    )
    def test_matmul_runs_on_one_thread(self):
        code = (
            "import os, repro, numpy as np; a = np.ones((600, 600)); a @ a; "
            "print(len(os.listdir('/proc/self/task')))"
        )
        assert self._run(code, None) == "1"


class TestHungarianDifferential:
    def test_square_assignments_identical(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            profit = rng.random((n, n)) * 10
            fast = hungarian(profit)
            slow = _hungarian_min_reference(-profit)
            np.testing.assert_array_equal(fast.row_to_col, slow)
            assert fast.value == profit[np.arange(n), slow].sum()

    def test_square_with_ties_identical(self):
        """Integer profits force ties; tie-breaking must match exactly."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            profit = rng.integers(0, 4, size=(n, n)).astype(float)
            fast = hungarian(profit)
            slow = _hungarian_min_reference(-profit)
            np.testing.assert_array_equal(fast.row_to_col, slow)

    def test_rectangular_with_ties_identical(self):
        """Wide tie-heavy rectangles: the clique-column LSAP's shape."""
        rng = np.random.default_rng(12)
        for _ in range(200):
            n_rows = int(rng.integers(0, 10))
            n_cols = int(rng.integers(max(n_rows, 1), 30))
            profit = rng.integers(-1, 3, size=(n_rows, n_cols)).astype(float)
            fast = hungarian(profit)
            slow = _hungarian_min_reference(-profit)
            np.testing.assert_array_equal(fast.row_to_col, slow)

    def test_rectangular_matches_brute_force(self):
        """The direct rectangular solve must stay optimal on wide matrices."""
        rng = np.random.default_rng(6)
        for _ in range(60):
            n_rows = int(rng.integers(1, 7))
            n_cols = int(rng.integers(n_rows, 10))
            profit = rng.integers(0, 6, size=(n_rows, n_cols)).astype(float)
            oracle = brute_force_lsap(profit)
            solution = hungarian(profit)
            assert solution.value == pytest.approx(oracle.value)
            assert solution.is_valid(n_cols)
            slow = _hungarian_min_reference(-profit)
            assert profit[np.arange(n_rows), slow].sum() == pytest.approx(
                oracle.value
            )

    def test_very_wide_rectangular(self):
        """n_rows << n_cols — a few workers against many candidate tasks."""
        rng = np.random.default_rng(8)
        profit = rng.random((5, 300))
        fast = hungarian(profit)
        slow = _hungarian_min_reference(-profit)
        np.testing.assert_array_equal(fast.row_to_col, slow)
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
        """The HTA pipeline's clique rectangle — each worker's profit row
        repeated x_max times, shuffled tasks as columns — is massively tied
        on AMT pools; the unit-supply kernel must still pick the reference's
        columns, and the worker x twin-class solve must reach its value."""
        instance = build_offline_instance(
            n_groups * per_group, per_group, n_workers, x_max, rng=seed
        )
        encoding = build_encoding(instance)
        n = encoding.n_vertices
        rng = np.random.default_rng(seed)
        matching = pipeline._diversity_matching(encoding, "greedy", rng)
        weights = pipeline._matched_edge_weights(encoding, matching)
        row_order = rng.permutation(n)
        per_worker = encoding.profit_matrix(weights)[row_order].T
        profit = np.repeat(per_worker, x_max, axis=0)
        fast = hungarian(profit)
        slow = _hungarian_min_reference(-profit)
        np.testing.assert_array_equal(fast.row_to_col, slow)
        classes = pipeline.twin_classes(encoding, weights, row_order)
        quotient = hungarian(per_worker, x_max, classes)
        assert quotient.value == pytest.approx(fast.value, rel=1e-12, abs=1e-12)

    def test_kernel_rejects_too_few_columns(self):
        with pytest.raises(InvalidInstanceError, match="n_rows \\* supply <= n_cols"):
            hungarian(np.zeros((2, 5)), supply=3)

    def test_kernel_empty(self):
        assert hungarian(np.zeros((0, 4))).row_to_col.shape == (0,)
        assert hungarian(np.zeros((0, 4)), supply=3).row_to_col.shape == (0,)
