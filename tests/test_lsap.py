"""LSAP solver tests: Hungarian optimality, greedy bound, auction accuracy,
and the supply/class (quotient) forms of the Hungarian and greedy kernels."""

import numpy as np
import pytest

from repro.errors import InvalidInstanceError
from repro.matching import (
    auction_lsap,
    brute_force_lsap,
    greedy_lsap,
    hungarian,
    lsap_methods,
    solve_lsap,
)
from repro.matching.lsap import _hungarian_min_reference

scipy_optimize = pytest.importorskip("scipy.optimize")


def scipy_optimum(profit: np.ndarray) -> float:
    rows, cols = scipy_optimize.linear_sum_assignment(-profit)
    return float(profit[rows, cols].sum())


class TestHungarian:
    def test_two_by_two(self):
        solution = hungarian(np.array([[4.0, 1.0], [2.0, 3.0]]))
        assert solution.value == 7.0
        assert solution.row_to_col.tolist() == [0, 1]

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scipy_square(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        profit = rng.random((n, n)) * 100 - 20
        solution = hungarian(profit)
        assert solution.is_valid(n)
        assert solution.value == pytest.approx(scipy_optimum(profit))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_rectangular(self, seed):
        rng = np.random.default_rng(seed + 50)
        n_rows = int(rng.integers(1, 7))
        n_cols = int(rng.integers(n_rows, 9))
        profit = rng.random((n_rows, n_cols)) * 10
        assert hungarian(profit).value == pytest.approx(
            brute_force_lsap(profit).value
        )

    def test_single_cell(self):
        assert hungarian(np.array([[5.0]])).value == 5.0

    def test_ties_still_optimal(self):
        profit = np.ones((6, 6))
        solution = hungarian(profit)
        assert solution.value == 6.0
        assert solution.is_valid(6)

    def test_rows_exceed_cols_rejected(self):
        with pytest.raises(InvalidInstanceError, match="n_rows"):
            hungarian(np.zeros((3, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInstanceError, match="finite"):
            hungarian(np.array([[np.nan, 1.0], [1.0, 2.0]]))

    def test_one_dimensional_rejected(self):
        with pytest.raises(InvalidInstanceError, match="2-D"):
            hungarian(np.zeros(4))


class TestGreedyLSAP:
    def test_simple_greedy_behaviour(self):
        solution = greedy_lsap(np.array([[4.0, 1.0], [2.0, 3.0]]))
        assert solution.value == 7.0

    def test_returns_perfect_matching_on_rows(self):
        rng = np.random.default_rng(1)
        profit = rng.random((7, 10))
        solution = greedy_lsap(profit)
        assert solution.is_valid(10)
        assert len(solution.row_to_col) == 7

    @pytest.mark.parametrize("seed", range(20))
    def test_half_approximation_on_nonnegative(self, seed):
        rng = np.random.default_rng(seed + 200)
        n = int(rng.integers(2, 25))
        profit = rng.random((n, n)) * 50
        assert greedy_lsap(profit).value >= 0.5 * hungarian(profit).value - 1e-9

    def test_adversarial_half_ratio_instance(self):
        """Greedy grabs the 10 first, forcing 0; optimal pairs 9 + 9."""
        profit = np.array([[10.0, 9.0], [9.0, 0.0]])
        assert greedy_lsap(profit).value == 10.0
        assert hungarian(profit).value == 18.0


def twin_rectangle(rng, integer: bool):
    """A profit matrix whose columns come in classes of identical twins."""
    n_rows = int(rng.integers(1, 6))
    supply = int(rng.integers(1, 5))
    n_classes = int(rng.integers(1, 8))
    n_cols = n_rows * supply + int(rng.integers(0, 10))
    if integer:
        reps = rng.integers(-1, 3, size=(n_rows, n_classes)).astype(float)
    else:
        reps = rng.random((n_rows, n_classes)) * 10 - 2
    classes = rng.integers(0, n_classes, size=n_cols)
    return reps[:, classes], supply, classes


class TestSupplyAndClasses:
    """Each row takes ``supply`` columns; ``classes`` groups identical ones.

    At unit supply without classes the kernel is held to the reference
    entry for entry in ``tests/test_perf_kernels.py``."""

    @pytest.mark.parametrize("integer", [False, True])
    def test_quotient_value_matches_expanded_optimum(self, integer):
        rng = np.random.default_rng(22 + integer)
        for _ in range(60):
            profit, supply, classes = twin_rectangle(rng, integer)
            expanded = np.repeat(profit, supply, axis=0)
            reference = _hungarian_min_reference(-expanded)
            optimum = float(expanded[np.arange(len(expanded)), reference].sum())
            for solution in (
                hungarian(profit, supply, classes),
                hungarian(profit, supply),
            ):
                assert solution.value == pytest.approx(optimum, abs=1e-9)
                assert solution.value == pytest.approx(
                    scipy_optimum(expanded), abs=1e-9
                )

    def test_every_row_gets_supply_distinct_columns(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            profit, supply, classes = twin_rectangle(rng, integer=True)
            for solution in (
                hungarian(profit, supply, classes),
                greedy_lsap(profit, supply),
            ):
                n_rows, n_cols = profit.shape
                assert solution.row_to_col.shape == (n_rows * supply,)
                assert solution.is_valid(n_cols)
                rows = np.repeat(np.arange(n_rows), supply)
                assert solution.value == pytest.approx(
                    profit[rows, solution.row_to_col].sum()
                )

    def test_class_columns_go_out_in_ascending_order(self):
        profit = np.array([[5.0, 1.0, 5.0, 1.0, 5.0], [5.0, 1.0, 5.0, 1.0, 5.0]])
        solution = hungarian(profit, supply=2, classes=[0, 1, 0, 1, 0])
        assert solution.value == 16.0
        # Class 0 (columns 0, 2, 4) goes to rows in ascending order, and
        # each row lists its columns ascending.
        assert solution.row_to_col.tolist() == [0, 2, 1, 4]

    def test_classes_joining_unequal_columns_refused(self):
        profit = np.array([[1.0, 2.0, 1.0]])
        for method in lsap_methods():
            with pytest.raises(InvalidInstanceError, match="not identical"):
                solve_lsap(profit, method, classes=np.array([0, 0, 1]))

    def test_malformed_classes_refused(self):
        with pytest.raises(InvalidInstanceError, match="integer labels"):
            hungarian(np.ones((1, 3)), classes=np.array([0, 1]))
        with pytest.raises(InvalidInstanceError, match="integer labels"):
            hungarian(np.ones((1, 3)), classes=np.array([0.0, 1.0, 1.0]))

    def test_supply_needs_enough_columns(self):
        with pytest.raises(InvalidInstanceError, match="supply"):
            solve_lsap(np.ones((2, 5)), "greedy", supply=3)
        with pytest.raises(InvalidInstanceError, match="supply must be"):
            hungarian(np.ones((2, 5)), supply=0)

    def test_supply_greedy_equals_slot_level(self):
        rng = np.random.default_rng(25)
        for trial in range(100):
            profit, supply, _ = twin_rectangle(rng, integer=trial % 2 == 0)
            np.testing.assert_array_equal(
                greedy_lsap(profit, supply).row_to_col,
                greedy_lsap(np.repeat(profit, supply, axis=0)).row_to_col,
            )

    @pytest.mark.parametrize("method", ["auction", "brute_force"])
    def test_other_methods_solve_the_expanded_rows(self, method):
        rng = np.random.default_rng(26)
        profit = rng.integers(0, 5, size=(2, 6)).astype(float)
        got = solve_lsap(profit, method, supply=2)
        want = solve_lsap(np.repeat(profit, 2, axis=0), method)
        np.testing.assert_array_equal(got.row_to_col, want.row_to_col)
        assert got.value == pytest.approx(want.value)


class TestAuction:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_hungarian_within_precision(self, seed):
        rng = np.random.default_rng(seed + 400)
        n_rows = int(rng.integers(1, 15))
        n_cols = int(rng.integers(n_rows, 18))
        profit = rng.random((n_rows, n_cols)) * 10 - 3
        got = auction_lsap(profit)
        assert got.is_valid(n_cols)
        assert got.value == pytest.approx(hungarian(profit).value, abs=1e-3)

    def test_bad_precision_rejected(self):
        with pytest.raises(InvalidInstanceError, match="precision"):
            auction_lsap(np.ones((2, 2)), precision=0.0)


class TestBruteForce:
    def test_size_limit(self):
        with pytest.raises(InvalidInstanceError, match="limited"):
            brute_force_lsap(np.zeros((10, 10)))

    def test_tiny_instance(self):
        assert brute_force_lsap(np.array([[1.0, 2.0]])).value == 2.0


class TestDispatch:
    def test_methods_listed(self):
        assert set(lsap_methods()) == {"hungarian", "greedy", "auction", "brute_force"}

    @pytest.mark.parametrize("method", ["hungarian", "greedy", "auction", "brute_force"])
    def test_solve_lsap_dispatches(self, method):
        profit = np.array([[4.0, 1.0], [2.0, 3.0]])
        assert solve_lsap(profit, method).value == 7.0

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInstanceError, match="unknown LSAP"):
            solve_lsap(np.ones((2, 2)), "nope")
