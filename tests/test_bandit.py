"""Unit tests for the bandit layer (:mod:`repro.core.bandit`).

The contract under test: the default configuration (mean weights) never
consults a bandit, and every bandit that does run is reconstructible —
Thompson's draw stream from a seed, UCB from pure state — so journals and
snapshots stay bit-identical.
"""

import json

import numpy as np
import pytest

from repro.core.adaptive import GainObservation, MotivationEstimator
from repro.core.bandit import (
    ESTIMATORS,
    WEIGHT_POLICIES,
    MeanWeightPolicy,
    ThompsonWeightPolicy,
    UCBWeightPolicy,
    build_adaptivity,
    make_estimator,
    make_weight_policy,
)
from repro.core.estimators import BayesianMotivationEstimator
from repro.errors import InvalidInstanceError


def obs(div, rel):
    return GainObservation(diversity=div, relevance=rel)


def fed_bayes(n=6, decay=1.0):
    estimator = BayesianMotivationEstimator(decay=decay)
    for i in range(n):
        estimator.record("w", obs(0.2 + 0.1 * (i % 3), 0.5))
    return estimator


class TestFactories:
    def test_estimator_names(self):
        assert isinstance(make_estimator("plain"), MotivationEstimator)
        assert isinstance(make_estimator("bayes"), BayesianMotivationEstimator)
        with pytest.raises(InvalidInstanceError):
            make_estimator("nope")

    def test_weight_policy_names(self):
        assert make_weight_policy("off") is None
        assert isinstance(make_weight_policy("thompson"), ThompsonWeightPolicy)
        assert isinstance(make_weight_policy("ucb"), UCBWeightPolicy)
        with pytest.raises(InvalidInstanceError):
            make_weight_policy("nope")

    def test_name_tuples_cover_the_factories(self):
        assert set(ESTIMATORS) == {"plain", "bayes"}
        assert set(WEIGHT_POLICIES) == {"off", "thompson", "ucb"}

    def test_build_adaptivity_defaults_to_the_paper(self):
        estimator, policy = build_adaptivity({})
        assert isinstance(estimator, MotivationEstimator)
        assert policy is None

    def test_thompson_requires_a_sampling_estimator(self):
        # The estimator-swap crash's sibling: thompson draws from the
        # posterior, which the plain averaging estimator does not have.
        with pytest.raises(InvalidInstanceError, match="bayes"):
            build_adaptivity({"estimator": "plain", "bandit": "thompson"})
        estimator, policy = build_adaptivity(
            {"estimator": "bayes", "bandit": "thompson"}, seed=7
        )
        assert isinstance(policy, ThompsonWeightPolicy)

    def test_ucb_runs_on_either_estimator(self):
        for name in ESTIMATORS:
            _, policy = build_adaptivity({"estimator": name, "bandit": "ucb"})
            assert isinstance(policy, UCBWeightPolicy)


class TestMeanWeightPolicy:
    def test_is_the_identity_over_the_estimator(self):
        estimator = fed_bayes()
        policy = MeanWeightPolicy()
        assert policy.weights_for(estimator, "w") == estimator.weights_for("w")
        policy.load_state_dict(policy.state_dict())
        assert policy.state_dict() == {"name": "off"}


class TestThompsonWeightPolicy:
    def test_same_seed_same_draw_sequence(self):
        draws = []
        for _ in range(2):
            estimator = fed_bayes()
            policy = ThompsonWeightPolicy(seed=42)
            draws.append(
                [policy.weights_for(estimator, "w").alpha for _ in range(8)]
            )
        assert draws[0] == draws[1]

    def test_different_seeds_differ(self):
        estimator = fed_bayes()
        a = ThompsonWeightPolicy(seed=1).weights_for(estimator, "w").alpha
        b = ThompsonWeightPolicy(seed=2).weights_for(estimator, "w").alpha
        assert a != b

    def test_draws_stay_on_the_simplex(self):
        estimator = fed_bayes()
        policy = ThompsonWeightPolicy(seed=0)
        for _ in range(20):
            weights = policy.weights_for(estimator, "w")
            assert 0.0 <= weights.alpha <= 1.0
            assert weights.alpha + weights.beta == pytest.approx(1.0)
        assert policy.draws == 20

    def test_state_dict_round_trip_continues_the_stream(self):
        estimator = fed_bayes()
        source = ThompsonWeightPolicy(seed=9)
        for _ in range(5):
            source.weights_for(estimator, "w")
        state = source.state_dict()
        clone = ThompsonWeightPolicy(seed=0)  # wrong seed, state overrides
        clone.load_state_dict(state)
        tail_a = [source.weights_for(estimator, "w").alpha for _ in range(6)]
        tail_b = [clone.weights_for(estimator, "w").alpha for _ in range(6)]
        assert tail_a == tail_b
        assert clone.draws == source.draws


class TestUCBWeightPolicy:
    def test_is_deterministic(self):
        results = []
        for _ in range(2):
            estimator = fed_bayes()
            policy = UCBWeightPolicy()
            results.append(
                [policy.weights_for(estimator, "w").alpha for _ in range(5)]
            )
        assert results[0] == results[1]

    def test_bonus_shrinks_with_evidence(self):
        # An under-observed worker gets a bigger diversity push than a
        # well-observed one with the same posterior mean.
        sparse, dense = fed_bayes(n=0), fed_bayes(n=0)
        for _ in range(50):
            dense.record("w", obs(0.5, 0.5))
        policy = UCBWeightPolicy()
        optimism_sparse = (
            policy.weights_for(sparse, "w").alpha
            - sparse.weights_for("w").alpha
        )
        optimism_dense = (
            policy.weights_for(dense, "w").alpha - dense.weights_for("w").alpha
        )
        assert optimism_sparse > optimism_dense >= 0.0

    def test_alpha_is_clipped_to_the_simplex(self):
        estimator = BayesianMotivationEstimator(prior_alpha=50.0, prior_beta=1.0)
        policy = UCBWeightPolicy(c=10.0)
        weights = policy.weights_for(estimator, "w")
        assert weights.alpha == 1.0
        assert weights.beta == 0.0

    def test_rejects_negative_exploration(self):
        with pytest.raises(InvalidInstanceError):
            UCBWeightPolicy(c=-0.1)

    def test_state_dict_round_trip(self):
        estimator = fed_bayes()
        source = UCBWeightPolicy(c=0.5)
        for _ in range(3):
            source.weights_for(estimator, "w")
        clone = UCBWeightPolicy()
        clone.load_state_dict(json.loads(json.dumps(source.state_dict())))
        assert clone.state_dict() == source.state_dict()
        assert (
            clone.weights_for(estimator, "w")
            == source.weights_for(estimator, "w")
        )


class TestMakeTierController:
    """The solver tier is not a bandit decision: every daemon walks its
    ladder with the breach/recovery-streak controller."""

    def test_streak_is_the_fixed_policy_default(self):
        from repro.core import Task, TaskPool, Vocabulary
        from repro.serve.app import AssignmentDaemon, ServeConfig
        from repro.serve.resilience import DegradationController

        vocab = Vocabulary(["k0", "k1"])
        pool = TaskPool(
            [Task(f"t{i}", np.array([True, i % 2 == 0])) for i in range(4)],
            vocab,
        )
        daemon = AssignmentDaemon(
            pool, ServeConfig(seed=0, estimator="bayes", bandit="thompson")
        )
        assert type(daemon.degradation) is DegradationController
        assert daemon.degradation.ladder == ("hta-gre", "greedy-relevance")
