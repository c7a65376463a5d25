"""HTAInstance tests."""

import numpy as np
import pytest

from repro.core import HTAInstance, Task, TaskPool, Vocabulary, Worker, WorkerPool
from repro.core.distance import pairwise_jaccard
from repro.errors import InvalidInstanceError

from conftest import make_random_instance


class TestHTAInstance:
    def test_basic_properties(self, small_instance):
        assert small_instance.n_tasks == 12
        assert small_instance.n_workers == 3
        assert small_instance.capacity == 9
        assert "12 tasks" in small_instance.describe()

    def test_x_max_must_be_positive(self, small_instance):
        with pytest.raises(InvalidInstanceError, match="x_max"):
            HTAInstance(small_instance.tasks, small_instance.workers, 0)

    def test_vocabulary_mismatch_rejected(self):
        vocab_a = Vocabulary(["a", "b"])
        vocab_b = Vocabulary(["x", "y"])
        tasks = TaskPool([Task("t", np.array([1, 0], bool))], vocab_a)
        workers = WorkerPool([Worker("w", np.array([1, 0], bool))], vocab_b)
        with pytest.raises(InvalidInstanceError, match="vocabulary"):
            HTAInstance(tasks, workers, 1)

    def test_diversity_matrix_shape_and_symmetry(self, small_instance):
        d = small_instance.diversity
        assert d.shape == (12, 12)
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()

    def test_diversity_matches_direct_computation(self, small_instance):
        expected = pairwise_jaccard(small_instance.tasks.matrix)
        assert np.allclose(small_instance.diversity, expected)

    def test_relevance_matrix_shape_and_range(self, small_instance):
        r = small_instance.relevance
        assert r.shape == (3, 12)
        assert (r >= 0).all() and (r <= 1).all()

    def test_relevance_is_one_minus_distance(self, small_instance):
        expected = 1.0 - pairwise_jaccard(
            small_instance.workers.matrix, small_instance.tasks.matrix
        )
        assert np.allclose(small_instance.relevance, expected)

    def test_matrices_are_cached(self, small_instance):
        assert small_instance.diversity is small_instance.diversity
        assert small_instance.relevance is small_instance.relevance

    def test_alphas_betas(self, small_instance):
        assert small_instance.alphas().tolist() == [0.3, 0.8, 0.5]
        assert small_instance.betas().tolist() == pytest.approx([0.7, 0.2, 0.5])

    def test_factory_helper(self):
        instance = make_random_instance(20, 4, 3, seed=5)
        assert instance.n_tasks == 20
        assert instance.n_workers == 4
        assert instance.x_max == 3


class TestProfileDiversity:
    """``diversity`` is computed over distinct keyword profiles and carved
    per task pair; it must equal the task-level matrix bit for bit."""

    @staticmethod
    def _instance(distance: str) -> HTAInstance:
        from repro.core import DistanceSpec

        rng = np.random.default_rng(11)
        vocab = Vocabulary([f"k{i}" for i in range(8)])
        alphabet = rng.random((5, 8)) < 0.4
        alphabet[0] = False  # an empty keyword vector among the profiles
        picks = rng.integers(0, len(alphabet), size=40)
        tasks = TaskPool(
            [Task(f"t{i}", alphabet[p]) for i, p in enumerate(picks)], vocab
        )
        workers = WorkerPool([Worker("w", alphabet[1])], vocab)
        return HTAInstance(tasks, workers, 2, DistanceSpec(distance))

    @pytest.mark.parametrize("distance", ["jaccard", "hamming", "angular"])
    def test_matches_task_level_matrix(self, distance):
        from repro.core.distance import pairwise_matrix

        instance = self._instance(distance)
        expected = pairwise_matrix(instance.tasks.matrix, distance)
        assert np.array_equal(instance.diversity, expected)

    def test_matches_task_level_matrix_for_registered_distance(self):
        from repro.core.distance import (
            idf_weights,
            pairwise_matrix,
            register_distance,
            registered_distances,
            weighted_jaccard_factory,
        )

        name = "idf-jaccard-profile-test"
        base = self._instance("jaccard")
        if name not in registered_distances():
            register_distance(name, weighted_jaccard_factory(idf_weights(base.tasks.matrix)))
        instance = self._instance(name)
        expected = pairwise_matrix(instance.tasks.matrix, name)
        assert np.array_equal(instance.diversity, expected)

    @pytest.mark.parametrize("past_end", [False, True])
    def test_prime_rejects_profile_index_out_of_range(self, past_end):
        instance = self._instance("jaccard")
        matrix, profile = instance.profile_pair
        profile = profile.copy()
        profile[3] = len(matrix) if past_end else -1
        fresh = self._instance("jaccard")
        with pytest.raises(InvalidInstanceError, match="profile indices"):
            fresh.prime((matrix, profile))

    def test_prime_rejects_mis_shaped_pair(self):
        instance = self._instance("jaccard")
        matrix, profile = instance.profile_pair
        with pytest.raises(InvalidInstanceError, match="square matrix"):
            self._instance("jaccard").prime((matrix[:, :-1], profile))
        with pytest.raises(InvalidInstanceError, match="square matrix"):
            self._instance("jaccard").prime((matrix, profile[:-1]))
