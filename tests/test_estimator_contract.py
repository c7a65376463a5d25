"""Estimator-contract suite for the paper's averaging estimator.

The estimator behind the ``AssignmentService`` seam must honour the whole
contract: ``record``/``weights_for`` for the loop, plus
``reset``/``observation_count``/``state_dict``/``load_state_dict`` for
snapshots.  This suite runs that surface against the plain and the decayed
configuration.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adaptive import GainObservation, MotivationEstimator

#: name -> zero-argument factory returning a fresh estimator.  Snapshot
#: partners must be built from the *same* factory.
FACTORIES = {
    "plain": lambda: MotivationEstimator(),
    "plain-decayed": lambda: MotivationEstimator(decay=0.8),
}


@pytest.fixture(params=sorted(FACTORIES), ids=sorted(FACTORIES))
def factory(request):
    return FACTORIES[request.param]


def obs(div, rel):
    return GainObservation(diversity=div, relevance=rel)


def feed(estimator, worker_id, n, start=0):
    """Record ``n`` complete observations with varied gains."""
    for i in range(start, start + n):
        estimator.record(worker_id, obs(0.2 + 0.6 * ((i * 7) % 5) / 4, 0.5))


def assert_simplex(weights):
    assert 0.0 <= weights.alpha <= 1.0
    assert 0.0 <= weights.beta <= 1.0
    assert weights.alpha + weights.beta == pytest.approx(1.0)


class TestRecordAndWeights:
    def test_cold_start_is_on_the_simplex(self, factory):
        estimator = factory()
        assert_simplex(estimator.weights_for("w"))
        assert estimator.observation_count("w") == 0

    def test_weights_stay_on_the_simplex(self, factory):
        estimator = factory()
        feed(estimator, "w", 5)
        assert_simplex(estimator.weights_for("w"))

    def test_observation_count_is_raw_even_under_decay(self, factory):
        estimator = factory()
        feed(estimator, "w", 7)
        assert estimator.observation_count("w") == 7

    def test_unobservable_observation_is_a_noop(self, factory):
        estimator = factory()
        before = estimator.weights_for("w")
        estimator.record("w", obs(None, None))
        assert estimator.observation_count("w") == 0
        assert estimator.weights_for("w") == before
        assert estimator.state_dict() == factory().state_dict()

    def test_workers_are_independent(self, factory):
        estimator = factory()
        feed(estimator, "a", 4)
        cold = estimator.weights_for("b")
        assert estimator.observation_count("b") == 0
        assert cold == factory().weights_for("b")

    def test_reset_one_worker_forgets_only_that_worker(self, factory):
        estimator = factory()
        feed(estimator, "a", 4)
        feed(estimator, "b", 4)
        kept = estimator.weights_for("b")
        estimator.reset("a")
        assert estimator.observation_count("a") == 0
        assert estimator.weights_for("a") == factory().weights_for("a")
        assert estimator.weights_for("b") == kept
        estimator.reset()
        assert estimator.observation_count("b") == 0


class TestStateDict:
    def test_round_trip_through_json(self, factory):
        source, target = factory(), factory()
        feed(source, "a", 5)
        feed(source, "b", 2)
        state = json.loads(json.dumps(source.state_dict()))
        target.load_state_dict(state)
        for worker in ("a", "b", "cold"):
            assert target.weights_for(worker) == source.weights_for(worker)
            assert target.observation_count(worker) == source.observation_count(
                worker
            )
        assert target.state_dict() == source.state_dict()

    def test_legacy_snapshot_without_raw_counts_still_loads(self, factory):
        # Snapshots written before this PR carry no "raw" map; the loader
        # derives it from the effective counts (exact when decay == 1.0).
        source, target = factory(), factory()
        feed(source, "w", 4)
        state = source.state_dict()
        state.pop("raw")
        target.load_state_dict(state)
        assert target.weights_for("w") == source.weights_for("w")
        assert target.observation_count("w") >= 1

class TestDecaySemantics:
    """The satellite bug: decayed mass must not masquerade as raw counts."""

    def test_plain_effective_count_decays_but_raw_does_not(self):
        estimator = MotivationEstimator(decay=0.5)
        feed(estimator, "w", 10)
        assert estimator.observation_count("w") == 10
        # The decayed mass the averages divide by: a geometric series,
        # sum of 0.5^k, is bounded by 2.
        assert estimator.state_dict()["diversity"]["w"][1] < 2.0

    def test_plain_undecayed_counts_agree(self):
        estimator = MotivationEstimator()
        feed(estimator, "w", 10)
        assert estimator.observation_count("w") == 10
        assert estimator.state_dict()["diversity"]["w"][1] == pytest.approx(10.0)

    def test_one_sided_observations_count_per_factor(self):
        # Three diversity-only and one relevance-only observation: the raw
        # count reports the better-observed factor, not their sum.
        estimator = MotivationEstimator()
        for _ in range(3):
            estimator.record("w", obs(0.4, None))
        estimator.record("w", obs(None, 0.7))
        assert estimator.observation_count("w") == 3


class TestContractProperties:
    @given(
        gains=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=0,
            max_size=30,
        ),
        name=st.sampled_from(sorted(FACTORIES)),
    )
    @settings(max_examples=60, deadline=None)
    def test_weights_always_on_simplex(self, gains, name):
        estimator = FACTORIES[name]()
        for div, rel in gains:
            estimator.record("w", obs(div, rel))
        weights = estimator.weights_for("w")
        assert_simplex(weights)
        assert math.isfinite(weights.alpha)
        assert 0 <= estimator.observation_count("w") <= len(gains)
