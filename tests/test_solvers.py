"""HTA solver tests: validity, determinism, approximation quality, registry."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.qap import build_encoding
from repro.core.solvers import (
    ExactSolver,
    HTAAppSolver,
    HTAGreSolver,
    get_solver,
    register_solver,
    solver_names,
)
from repro.core.solvers.base import Solver
from repro.core.solvers import pipeline
from repro.core.solvers.pipeline import run_qap_pipeline
from repro.errors import InvalidInstanceError, UnknownSolverError
from repro.experiments import build_offline_instance
from repro.matching.lsap import _hungarian_min_reference, greedy_lsap, solve_lsap

from conftest import make_random_instance

ALL_SOLVERS = ("hta-app", "hta-gre", "hta-gre-div", "hta-gre-rel", "random")


class TestRegistry:
    def test_known_names(self):
        for name in ALL_SOLVERS + ("exact",):
            assert name in solver_names()

    def test_get_unknown_raises(self):
        with pytest.raises(UnknownSolverError, match="registered solvers"):
            get_solver("nope")

    def test_register_requires_name(self):
        with pytest.raises(ValueError, match="name"):

            @register_solver
            class Nameless(Solver):
                def solve(self, instance, rng=None):
                    raise NotImplementedError

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already"):

            @register_solver
            class Duplicate(Solver):
                name = "hta-gre"

                def solve(self, instance, rng=None):
                    raise NotImplementedError


class TestSolverContracts:
    @pytest.mark.parametrize("name", ALL_SOLVERS)
    def test_assignment_is_valid(self, name, small_instance):
        result = get_solver(name).solve(small_instance, rng=0)
        result.assignment.validate(small_instance)

    @pytest.mark.parametrize("name", ALL_SOLVERS)
    def test_objective_matches_assignment(self, name, small_instance):
        result = get_solver(name).solve(small_instance, rng=0)
        assert result.objective == pytest.approx(
            result.assignment.objective(small_instance)
        )

    @pytest.mark.parametrize("name", ("hta-app", "hta-gre"))
    def test_deterministic_given_seed(self, name, small_instance):
        a = get_solver(name).solve(small_instance, rng=7)
        b = get_solver(name).solve(small_instance, rng=7)
        assert a.assignment.by_worker == b.assignment.by_worker

    @pytest.mark.parametrize("name", ("hta-app", "hta-gre"))
    def test_fills_capacity_when_tasks_abound(self, name):
        instance = make_random_instance(n_tasks=30, n_workers=3, x_max=4, seed=1)
        result = get_solver(name).solve(instance, rng=0)
        assert result.assignment.size() == 12

    @pytest.mark.parametrize("name", ("hta-app", "hta-gre"))
    def test_handles_fewer_tasks_than_capacity(self, name):
        instance = make_random_instance(n_tasks=5, n_workers=3, x_max=3, seed=2)
        result = get_solver(name).solve(instance, rng=0)
        result.assignment.validate(instance)
        assert result.assignment.size() == 5  # everything assignable assigned

    @pytest.mark.parametrize("name", ("hta-app", "hta-gre"))
    def test_timings_present(self, name, small_instance):
        result = get_solver(name).solve(small_instance, rng=0)
        for phase in ("encode", "matching", "lsap", "decode", "total"):
            assert phase in result.timings

    def test_single_worker_single_task(self):
        instance = make_random_instance(n_tasks=1, n_workers=1, x_max=1, seed=0)
        for name in ("hta-app", "hta-gre"):
            result = get_solver(name).solve(instance, rng=0)
            assert result.assignment.size() == 1

    def test_x_max_one_no_diversity_term(self):
        instance = make_random_instance(n_tasks=6, n_workers=2, x_max=1, seed=3)
        result = get_solver("hta-gre").solve(instance, rng=0)
        result.assignment.validate(instance)
        # Each worker gets exactly one task; Eq. 3 motivation is then zero.
        assert result.objective == pytest.approx(0.0)


class TestApproximationQuality:
    """Empirical check of Theorems 3 and 4 on instances small enough for the
    exact oracle.  The guarantees are in expectation; with the unswapped
    candidate included, the realized ratio comfortably clears the bounds."""

    @pytest.mark.parametrize("seed", range(8))
    def test_hta_app_quarter_bound(self, seed):
        instance = make_random_instance(n_tasks=6, n_workers=2, x_max=3, seed=seed)
        optimal = ExactSolver().solve(instance).objective
        got = HTAAppSolver().solve(instance, rng=seed).objective
        if optimal > 0:
            assert got >= 0.25 * optimal - 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_hta_gre_eighth_bound(self, seed):
        instance = make_random_instance(n_tasks=6, n_workers=2, x_max=3, seed=seed)
        optimal = ExactSolver().solve(instance).objective
        got = HTAGreSolver().solve(instance, rng=seed).objective
        if optimal > 0:
            assert got >= 0.125 * optimal - 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_never_beats_optimal(self, seed):
        instance = make_random_instance(n_tasks=6, n_workers=2, x_max=3, seed=seed)
        optimal = ExactSolver().solve(instance).objective
        for name in ("hta-app", "hta-gre"):
            assert get_solver(name).solve(instance, rng=seed).objective <= optimal + 1e-9

    def test_objectives_comparable_between_algorithms(self):
        """Fig. 2b's finding: HTA-GRE's greedy LSAP costs little objective."""
        ratios = []
        for seed in range(6):
            instance = make_random_instance(
                n_tasks=40, n_workers=4, x_max=5, seed=seed
            )
            app = HTAAppSolver().solve(instance, rng=seed).objective
            gre = HTAGreSolver().solve(instance, rng=seed).objective
            if app > 0:
                ratios.append(gre / app)
        assert np.mean(ratios) > 0.85


class TestPipelineOptions:
    def test_exact_matching_small_instance(self):
        instance = make_random_instance(n_tasks=6, n_workers=2, x_max=3, seed=0)
        output = run_qap_pipeline(
            instance, "hungarian", rng=0, matching_method="exact"
        )
        assert output.info["matching_method"] == "exact"

    def test_exact_matching_too_large_rejected(self):
        instance = make_random_instance(n_tasks=30, n_workers=2, x_max=3, seed=0)
        with pytest.raises(ValueError, match="exact matching"):
            run_qap_pipeline(instance, "greedy", matching_method="exact")

    def test_unknown_matching_method_rejected(self, small_instance):
        with pytest.raises(ValueError, match="matching method"):
            run_qap_pipeline(small_instance, "greedy", matching_method="nope")

    def test_gre_with_auction_lsap(self, small_instance):
        result = HTAGreSolver(lsap_method="auction").solve(small_instance, rng=0)
        result.assignment.validate(small_instance)


class TestLsapShape:
    """The clique-column LSAP reaches the paper's square optimum."""

    @given(
        n_workers=st.integers(1, 4),
        x_max=st.integers(1, 4),
        extra=st.integers(-6, 10),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_clique_and_square_agree(self, n_workers, x_max, extra, seed):
        # |T| below, at and above the clique span |W| * x_max.
        n_clique = n_workers * x_max
        n_tasks = max(1, n_clique + extra)
        instance = make_random_instance(n_tasks, n_workers, x_max, seed=seed)
        encoding = build_encoding(instance)
        n = encoding.n_vertices
        # The pipeline's clique-shape permutation before the swap step, and
        # the diversity matching it was built on.
        with mock.patch.object(pipeline, "_best_swap", wraps=pipeline._best_swap) as swap:
            run_qap_pipeline(instance, "hungarian", rng=seed)
        permutation, matching = swap.call_args.args[1:3]
        per_worker = encoding.profit_matrix(
            pipeline._matched_edge_weights(encoding, matching)
        )
        profits = np.zeros((n, n))
        profits[:, :n_clique] = np.repeat(per_worker, x_max, axis=1)

        square = solve_lsap(profits, "hungarian").value
        assert sorted(permutation.tolist()) == list(range(n))
        clique = float(profits[np.arange(n), permutation].sum())
        assert clique == pytest.approx(square, rel=1e-9, abs=1e-9)

        for shape in pipeline.LSAP_SHAPES:
            output = run_qap_pipeline(instance, "hungarian", rng=seed, lsap_shape=shape)
            assert sorted(output.permutation.tolist()) == list(range(n))
            assert output.qap_objective == pytest.approx(
                encoding.objective_dense(output.permutation), rel=1e-9, abs=1e-9
            )
            assert output.info["lsap_shape"] == shape

    @pytest.mark.parametrize(
        "build",
        [
            lambda: run_qap_pipeline(
                make_random_instance(8, 2, 3), "hungarian", lsap_shape="dense"
            ),
            lambda: HTAAppSolver(lsap_shape="dense"),
            lambda: HTAGreSolver(lsap_shape="dense"),
        ],
    )
    def test_unknown_shape_names_both(self, build):
        with pytest.raises(InvalidInstanceError, match="'clique' or 'square'"):
            build()

    @pytest.mark.parametrize("name", ["hta-app", "hta-gre"])
    def test_solvers_default_to_clique(self, small_instance, name):
        assert get_solver(name).solve(small_instance, 0).info["lsap_shape"] == "clique"
        square = get_solver(name, lsap_shape="square").solve(small_instance, 0)
        assert square.info["lsap_shape"] == "square"


class TestQuotientLsap:
    """The clique LSAP runs over workers (x_max columns each) and, for
    HTA-APP, over twin classes of tasks."""

    @staticmethod
    def _amt_instance(seed):
        return build_offline_instance(60, 10, 4, 3, rng=seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_hta_gre_groups_match_slot_level_walk(self, seed):
        """The worker-row greedy equals greedy_lsap on the clique rectangle
        (each worker's row repeated x_max times), so HTA-GRE's groups are
        those of the slot-level run."""

        def slot_level(profit, method, supply=1, classes=None):
            return greedy_lsap(np.repeat(profit, supply, axis=0))

        for instance in (self._amt_instance(seed), make_random_instance(14, 3, 3, seed=seed)):
            output = run_qap_pipeline(instance, "greedy", rng=seed)
            with mock.patch.object(pipeline, "solve_lsap", slot_level):
                slot = run_qap_pipeline(instance, "greedy", rng=seed)
            assert output.groups == slot.groups
            np.testing.assert_array_equal(output.permutation, slot.permutation)

    @pytest.mark.parametrize("seed", range(6))
    def test_hta_app_quotient_reaches_the_clique_optimum(self, seed):
        calls = []

        def record(profit, method, supply=1, classes=None):
            calls.append((profit, supply, classes))
            return solve_lsap(profit, method, supply, classes)

        instance = self._amt_instance(seed)
        with mock.patch.object(pipeline, "solve_lsap", record):
            run_qap_pipeline(instance, "hungarian", rng=seed)
        (profit, supply, classes), = calls
        assert supply == instance.x_max
        # Twins share a class: far fewer classes than tasks.
        assert classes.max() + 1 < profit.shape[1]
        expanded = np.repeat(profit, supply, axis=0)
        reference = _hungarian_min_reference(-expanded)
        optimum = expanded[np.arange(len(expanded)), reference].sum()
        assert solve_lsap(profit, "hungarian", supply, classes).value == pytest.approx(
            optimum, rel=1e-12, abs=1e-12
        )
