"""Instance-diagnostics tests."""

import numpy as np
import pytest

from repro.core import HTAInstance, MotivationWeights, Task, TaskPool, Vocabulary, Worker, WorkerPool
from repro.validate import Finding, diagnose, has_blockers, mean_pairwise_diversity

from conftest import make_random_instance


def codes(findings):
    return {f.code for f in findings}


class TestFinding:
    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Finding("catastrophic", "x", "boom")


class TestCapacityChecks:
    def test_xmax_one_is_an_error(self):
        instance = make_random_instance(6, 2, 1, seed=0)
        findings = diagnose(instance)
        assert "xmax-one" in codes(findings)
        assert has_blockers(findings)

    def test_overcapacity_warning(self):
        instance = make_random_instance(4, 3, 4, seed=0)  # capacity 12 > 8
        assert "overcapacity" in codes(diagnose(instance))

    def test_healthy_instance_has_no_blockers(self):
        instance = make_random_instance(30, 3, 4, seed=1)
        assert not has_blockers(diagnose(instance))


class TestVectorChecks:
    def test_empty_tasks_flagged(self):
        vocab = Vocabulary(["a", "b", "c"])
        tasks = TaskPool(
            [
                Task("t0", np.zeros(3, bool)),
                Task("t1", np.array([1, 0, 0], bool)),
                Task("t2", np.array([0, 1, 0], bool)),
                Task("t3", np.array([0, 0, 1], bool)),
            ],
            vocab,
        )
        workers = WorkerPool([Worker("w", np.array([1, 1, 0], bool))], vocab)
        findings = diagnose(HTAInstance(tasks, workers, 2))
        assert "empty-tasks" in codes(findings)

    def test_empty_worker_flagged(self):
        vocab = Vocabulary(["a", "b"])
        tasks = TaskPool(
            [Task("t0", np.array([1, 0], bool)), Task("t1", np.array([0, 1], bool))],
            vocab,
        )
        workers = WorkerPool([Worker("w", np.zeros(2, bool))], vocab)
        findings = diagnose(HTAInstance(tasks, workers, 2))
        assert "empty-workers" in codes(findings)
        assert "irrelevant-workers" in codes(findings)

    def test_clustered_pool_detected(self):
        vocab = Vocabulary(["a", "b", "c", "d"])
        same = np.array([1, 1, 0, 0], bool)
        tasks = TaskPool(
            [Task(f"t{i}", same.copy()) for i in range(8)]
            + [Task("t8", np.array([0, 0, 1, 1], bool))],
            vocab,
        )
        workers = WorkerPool([Worker("w", same.copy())], vocab)
        findings = diagnose(HTAInstance(tasks, workers, 3))
        assert "clustered-pool" in codes(findings)


class TestWeightChecks:
    def test_diversity_only_regime(self):
        instance = make_random_instance(10, 2, 2, seed=2)
        forced = HTAInstance(
            instance.tasks,
            instance.workers.with_updated(
                [w.with_weights(MotivationWeights(1.0, 0.0)) for w in instance.workers]
            ),
            2,
        )
        assert "diversity-only" in codes(diagnose(forced))

    def test_relevance_only_regime(self):
        instance = make_random_instance(10, 2, 2, seed=2)
        forced = HTAInstance(
            instance.tasks,
            instance.workers.with_updated(
                [w.with_weights(MotivationWeights(0.0, 1.0)) for w in instance.workers]
            ),
            2,
        )
        assert "relevance-only" in codes(diagnose(forced))


class TestStructureChecks:
    def test_high_average_diversity_info(self):
        instance = make_random_instance(20, 2, 3, seed=3, density=0.2)
        assert "high-average-diversity" in codes(diagnose(instance))

    def test_near_identical_pool_warning(self):
        vocab = Vocabulary(["a", "b"])
        same = np.array([1, 1], bool)
        tasks = TaskPool([Task(f"t{i}", same.copy()) for i in range(5)], vocab)
        workers = WorkerPool([Worker("w", same.copy())], vocab)
        findings = diagnose(HTAInstance(tasks, workers, 2))
        assert "near-identical-pool" in codes(findings)

    @pytest.mark.parametrize("seed", range(4))
    def test_mean_diversity_equals_the_task_level_mean(self, seed):
        """The profile-weighted mean is the mean over the task matrix's
        upper triangle, on pools with and without repeated profiles."""
        for n_keywords in (3, 10):
            instance = make_random_instance(25, 2, 3, seed=seed, n_keywords=n_keywords)
            task_level = instance.diversity[np.triu_indices(25, k=1)].mean()
            assert mean_pairwise_diversity(instance) == pytest.approx(
                task_level, rel=1e-12, abs=1e-15
            )
        assert mean_pairwise_diversity(make_random_instance(1, 1, 1, seed=seed)) is None

    def test_findings_sorted_by_severity(self):
        instance = make_random_instance(6, 2, 1, seed=4)  # error + infos
        findings = diagnose(instance)
        severities = [f.severity for f in findings]
        order = {"error": 0, "warning": 1, "info": 2}
        assert severities == sorted(severities, key=order.__getitem__)
