"""Distance function tests: values, metric axioms, pairwise matrices."""

import numpy as np
import pytest

from repro.core.distance import (
    DistanceSpec,
    angular_distance,
    check_metric_on_sample,
    euclidean_distance,
    first_appearance_index,
    get_distance,
    hamming_distance,
    jaccard_distance,
    keyword_profiles,
    pairwise_jaccard,
    pairwise_matrix,
    register_distance,
    registered_distances,
)
from repro.errors import NotAMetricError


def bools(*bits):
    return np.array(bits, dtype=bool)


class TestJaccard:
    def test_disjoint_sets_distance_one(self):
        assert jaccard_distance(bools(1, 1, 0), bools(0, 0, 1)) == 1.0

    def test_identical_sets_distance_zero(self):
        assert jaccard_distance(bools(1, 0, 1), bools(1, 0, 1)) == 0.0

    def test_partial_overlap(self):
        # |A & B| = 1, |A | B| = 3 -> 1 - 1/3
        assert jaccard_distance(bools(1, 1, 0), bools(0, 1, 1)) == pytest.approx(2 / 3)

    def test_both_empty_distance_zero(self):
        assert jaccard_distance(bools(0, 0), bools(0, 0)) == 0.0

    def test_empty_vs_nonempty_distance_one(self):
        assert jaccard_distance(bools(0, 0), bools(1, 0)) == 1.0


class TestOtherDistances:
    def test_hamming(self):
        assert hamming_distance(bools(1, 0, 1, 0), bools(1, 1, 0, 0)) == 0.5

    def test_hamming_shape_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(bools(1), bools(1, 0))

    def test_euclidean_normalized(self):
        assert euclidean_distance(bools(1, 0), bools(0, 1)) == pytest.approx(1.0)

    def test_euclidean_identical(self):
        assert euclidean_distance(bools(1, 1), bools(1, 1)) == 0.0

    def test_angular_orthogonal_is_one(self):
        assert angular_distance(bools(1, 0), bools(0, 1)) == pytest.approx(1.0)

    def test_angular_parallel_is_zero(self):
        assert angular_distance(bools(1, 1), bools(1, 1)) == pytest.approx(0.0, abs=1e-7)

    def test_angular_zero_vs_nonzero(self):
        assert angular_distance(bools(0, 0), bools(1, 0)) == 1.0
        assert angular_distance(bools(0, 0), bools(0, 0)) == 0.0


class TestMetricAxioms:
    @pytest.mark.parametrize("name", ["jaccard", "hamming", "euclidean", "angular"])
    def test_registered_distances_are_metrics_on_sample(self, name):
        rng = np.random.default_rng(7)
        sample = rng.random((12, 8)) < 0.4
        check_metric_on_sample(get_distance(name), sample)

    def test_violation_detected(self):
        def fake(u, v):  # violates d(x, x) = 0
            return 1.0

        with pytest.raises(NotAMetricError):
            check_metric_on_sample(fake, np.ones((3, 2), dtype=bool))

    def test_asymmetry_detected(self):
        calls = []

        def asym(u, v):
            if (u == v).all():
                return 0.0
            calls.append(1)
            return float(len(calls) % 2)  # different each direction

        with pytest.raises(NotAMetricError):
            check_metric_on_sample(asym, np.eye(3, dtype=bool))


class TestRegistry:
    def test_get_known(self):
        assert get_distance("jaccard") is jaccard_distance

    def test_get_unknown_raises_with_names(self):
        with pytest.raises(KeyError, match="jaccard"):
            get_distance("nope")

    def test_register_and_list(self):
        name = "test-only-metric"
        if name not in registered_distances():
            register_distance(name, hamming_distance)
        assert name in registered_distances()

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already"):
            register_distance("jaccard", jaccard_distance)

    def test_register_with_failing_sample_rejected(self):
        def broken(u, v):
            return -1.0 if not (u == v).all() else 0.0

        with pytest.raises(NotAMetricError):
            register_distance(
                "broken-metric", broken, check_sample=np.eye(3, dtype=bool)
            )


class TestPairwiseMatrices:
    def test_pairwise_jaccard_matches_scalar(self):
        rng = np.random.default_rng(3)
        matrix = rng.random((15, 9)) < 0.4
        dense = pairwise_jaccard(matrix)
        for i in range(15):
            for j in range(15):
                assert dense[i, j] == pytest.approx(
                    jaccard_distance(matrix[i], matrix[j])
                )

    def test_pairwise_jaccard_cross(self):
        rng = np.random.default_rng(4)
        left = rng.random((6, 7)) < 0.5
        right = rng.random((4, 7)) < 0.5
        cross = pairwise_jaccard(left, right)
        assert cross.shape == (6, 4)
        assert cross[2, 3] == pytest.approx(jaccard_distance(left[2], right[3]))

    def test_pairwise_jaccard_diagonal_zero(self):
        rng = np.random.default_rng(5)
        matrix = rng.random((8, 5)) < 0.5
        assert (np.diag(pairwise_jaccard(matrix)) == 0).all()

    def test_pairwise_jaccard_empty_rows(self):
        matrix = np.zeros((3, 4), dtype=bool)
        matrix[2, 0] = True
        dense = pairwise_jaccard(matrix)
        assert dense[0, 1] == 0.0  # empty vs empty
        assert dense[0, 2] == 1.0  # empty vs non-empty

    def test_pairwise_matrix_generic_path(self):
        rng = np.random.default_rng(6)
        matrix = rng.random((5, 4)) < 0.5
        dense = pairwise_matrix(matrix, "hamming")
        assert dense[1, 3] == pytest.approx(hamming_distance(matrix[1], matrix[3]))
        assert (dense == dense.T).all()

    def test_pairwise_matrix_blockwise_consistency(self):
        # Exercise the block loop with > _BLOCK_ROWS rows.
        rng = np.random.default_rng(8)
        matrix = rng.random((600, 6)) < 0.5
        dense = pairwise_jaccard(matrix)
        i, j = 17, 599
        assert dense[i, j] == pytest.approx(jaccard_distance(matrix[i], matrix[j]))


class TestKeywordProfiles:
    def test_profiles_reproduce_rows_and_carve(self):
        rng = np.random.default_rng(4)
        alphabet = rng.random((4, 11)) < 0.5
        rows = alphabet[rng.integers(0, 4, size=30)]
        profiles, profile = keyword_profiles(rows)
        assert len(profiles) == len({r.tobytes() for r in rows})
        assert np.array_equal(profiles[profile], rows)
        # Numbered in order of first appearance.
        assert profile[0] == 0 and (np.diff(np.maximum.accumulate(profile)) <= 1).all()
        carved = pairwise_jaccard(profiles)[np.ix_(profile, profile)]
        assert np.array_equal(carved, pairwise_jaccard(rows))

    def test_known_index_returns_only_new_profiles(self):
        a, b, c = np.eye(3, dtype=bool)
        index: dict[bytes, int] = {}
        keyword_profiles(np.stack([a, b]), index)
        fresh, profile = keyword_profiles(np.stack([b, c, a, c]), index)
        assert profile.tolist() == [1, 2, 0, 2]
        assert np.array_equal(fresh, c[None, :])
        assert len(index) == 3

    def test_first_appearance_numbering_is_shared(self):
        # The serving cache numbers its carve's rows with the same helper,
        # so both sides must agree with keyword_profiles on any input.
        rng = np.random.default_rng(3)
        rows = rng.random((60, 6)) < 0.3
        _, profile = keyword_profiles(rows)
        first, index = first_appearance_index(profile * 7 + 11)
        assert index.tolist() == profile.tolist()
        assert first.tolist() == sorted(first.tolist())
        assert (index[first] == np.arange(len(first))).all()

    def test_empty_inputs(self):
        fresh, profile = keyword_profiles(np.zeros((0, 5), dtype=bool))
        assert fresh.shape == (0, 5) and profile.shape == (0,)
        fresh, profile = keyword_profiles(np.zeros((3, 0), dtype=bool))
        assert fresh.shape == (1, 0) and profile.tolist() == [0, 0, 0]


class TestDistanceSpec:
    def test_fn_resolution(self):
        assert DistanceSpec("hamming").fn is hamming_distance

    def test_matrix(self):
        rng = np.random.default_rng(1)
        matrix = rng.random((4, 3)) < 0.5
        spec = DistanceSpec("jaccard")
        assert spec.matrix(matrix).shape == (4, 4)


class TestWeightedJaccard:
    def _fn(self, weights):
        from repro.core.distance import weighted_jaccard_factory

        return weighted_jaccard_factory(np.asarray(weights, dtype=float))

    def test_uniform_weights_match_plain_jaccard(self):
        rng = np.random.default_rng(0)
        fn = self._fn(np.ones(8))
        for _ in range(20):
            u, v = rng.random(8) < 0.5, rng.random(8) < 0.5
            assert fn(u, v) == pytest.approx(jaccard_distance(u, v))

    def test_heavy_keyword_dominates(self):
        fn = self._fn([10.0, 0.1, 0.1])
        sharing_heavy = fn(bools(1, 1, 0), bools(1, 0, 1))
        sharing_light = fn(bools(0, 1, 1), bools(1, 0, 1))
        assert sharing_heavy < sharing_light

    def test_is_a_metric_on_sample(self):
        rng = np.random.default_rng(2)
        weights = rng.random(6) + 0.1
        sample = rng.random((10, 6)) < 0.5
        check_metric_on_sample(self._fn(weights), sample)

    def test_both_empty_zero(self):
        fn = self._fn([1.0, 2.0])
        assert fn(bools(0, 0), bools(0, 0)) == 0.0

    def test_invalid_weights(self):
        from repro.core.distance import weighted_jaccard_factory

        with pytest.raises(ValueError, match="non-negative"):
            weighted_jaccard_factory(np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="all zero"):
            weighted_jaccard_factory(np.zeros(3))
        with pytest.raises(ValueError, match="1-D"):
            weighted_jaccard_factory(np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        fn = self._fn([1.0, 1.0])
        with pytest.raises(ValueError, match="shape"):
            fn(bools(1, 0, 1), bools(1, 0, 0))


class TestIdfWeights:
    def test_rare_keywords_weigh_more(self):
        from repro.core.distance import idf_weights

        corpus = np.array(
            [[1, 1, 0], [1, 1, 0], [1, 0, 0], [1, 0, 1]], dtype=bool
        )
        weights = idf_weights(corpus)
        # Document frequencies 4, 2, 1: rarer keywords get larger weights.
        assert weights[2] > weights[1] > weights[0]

    def test_shapes_and_validation(self):
        from repro.core.distance import idf_weights

        with pytest.raises(ValueError, match="2-D"):
            idf_weights(np.zeros(3))
        with pytest.raises(ValueError, match="smoothing"):
            idf_weights(np.zeros((2, 2)), smoothing=0.0)

    def test_integration_with_solver(self):
        """IDF-weighted diversity plugs into the full pipeline."""
        from repro.core.distance import idf_weights, weighted_jaccard_factory
        from repro.core.distance import register_distance, registered_distances
        from repro.core import DistanceSpec, HTAInstance
        from repro.core.solvers import get_solver
        import sys

        sys.path.insert(0, "tests")
        from conftest import make_random_instance

        base = make_random_instance(15, 2, 3, seed=1)
        weights = idf_weights(base.tasks.matrix)
        name = "idf-jaccard-test"
        if name not in registered_distances():
            register_distance(name, weighted_jaccard_factory(weights))
        instance = HTAInstance(base.tasks, base.workers, 3, DistanceSpec(name))
        result = get_solver("hta-gre").solve(instance, rng=0)
        result.assignment.validate(instance)
