"""Baseline solver tests: DIV-only, REL-only, random, and weight override."""

import numpy as np
import pytest

from repro.core import MotivationWeights
from repro.core.solvers import (
    HTAGreDivSolver,
    HTAGreRelSolver,
    HTAGreSolver,
    RandomSolver,
    override_weights,
)

from conftest import make_random_instance


class TestOverrideWeights:
    def test_all_workers_forced(self, small_instance):
        forced = override_weights(small_instance, MotivationWeights(1.0, 0.0))
        assert all(w.alpha == 1.0 for w in forced.workers)

    def test_matrices_are_transplanted_not_recomputed(self, small_instance):
        """The solve reads the profile pair and relevance: both are shared,
        and the task-level diversity carved from the shared pair is equal."""
        forced = override_weights(small_instance, MotivationWeights(0.0, 1.0))
        assert forced.profile_pair is small_instance.profile_pair
        assert forced.relevance is small_instance.relevance
        assert np.array_equal(forced.diversity, small_instance.diversity)

    def test_original_untouched(self, small_instance):
        override_weights(small_instance, MotivationWeights(1.0, 0.0))
        assert small_instance.workers[0].alpha == 0.3


class TestFixedWeightBaselines:
    def test_div_optimizes_diversity(self):
        """On a pool with one tight cluster and scattered singletons, the
        DIV baseline should prefer scattered tasks over the cluster."""
        instance = make_random_instance(n_tasks=20, n_workers=2, x_max=4, seed=8)
        div_result = HTAGreDivSolver().solve(instance, rng=0)
        rel_result = HTAGreRelSolver().solve(instance, rng=0)
        div_idx = div_result.assignment.indices(instance)
        rel_idx = rel_result.assignment.indices(instance)

        def mean_set_diversity(groups):
            values = []
            for group in groups:
                if len(group) > 1:
                    sub = instance.diversity[np.ix_(group, group)]
                    values.append(sub[np.triu_indices(len(group), 1)].mean())
            return np.mean(values)

        def mean_set_relevance(groups):
            return np.mean(
                [
                    instance.relevance[q, group].mean()
                    for q, group in enumerate(groups)
                    if group
                ]
            )

        assert mean_set_diversity(div_idx) >= mean_set_diversity(rel_idx) - 1e-9
        assert mean_set_relevance(rel_idx) >= mean_set_relevance(div_idx) - 1e-9

    def test_objective_reported_under_original_weights(self, small_instance):
        result = HTAGreDivSolver().solve(small_instance, rng=0)
        assert result.objective == pytest.approx(
            result.assignment.objective(small_instance)
        )

    def test_info_carries_forced_weights(self, small_instance):
        div = HTAGreDivSolver().solve(small_instance, rng=0)
        assert div.info["forced_alpha"] == 1.0
        rel = HTAGreRelSolver().solve(small_instance, rng=0)
        assert rel.info["forced_beta"] == 1.0

    def test_rel_assigns_most_relevant_tasks(self):
        instance = make_random_instance(n_tasks=30, n_workers=1, x_max=5, seed=12)
        result = HTAGreRelSolver().solve(instance, rng=0)
        chosen = result.assignment.indices(instance)[0]
        chosen_rel = instance.relevance[0, chosen].sum()
        top5 = np.sort(instance.relevance[0])[-5:].sum()
        assert chosen_rel == pytest.approx(top5)


class TestRandomSolver:
    def test_validity_and_capacity(self):
        instance = make_random_instance(n_tasks=25, n_workers=4, x_max=5, seed=0)
        result = RandomSolver().solve(instance, rng=0)
        result.assignment.validate(instance)
        assert result.assignment.size() == 20

    def test_short_pool_handled(self):
        instance = make_random_instance(n_tasks=5, n_workers=3, x_max=3, seed=0)
        result = RandomSolver().solve(instance, rng=0)
        result.assignment.validate(instance)
        assert result.assignment.size() == 5

    def test_deterministic_with_seed(self):
        instance = make_random_instance(n_tasks=12, n_workers=2, x_max=3, seed=1)
        a = RandomSolver().solve(instance, rng=5)
        b = RandomSolver().solve(instance, rng=5)
        assert a.assignment.by_worker == b.assignment.by_worker

    def test_typically_below_hta_gre(self):
        """The optimizer should usually beat random dealing."""
        wins = 0
        for seed in range(10):
            instance = make_random_instance(n_tasks=40, n_workers=3, x_max=5, seed=seed)
            gre = HTAGreSolver().solve(instance, rng=seed).objective
            rnd = RandomSolver().solve(instance, rng=seed).objective
            wins += gre >= rnd
        assert wins >= 8
