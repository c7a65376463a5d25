"""Assignment-service tests: the Fig. 4 workflow invariants."""

from unittest import mock

import numpy as np
import pytest

from repro.core import MotivationWeights, Task, TaskPool, Vocabulary, Worker
from repro.core.distance import pairwise_jaccard, take_submatrix
from repro.crowd.service import (
    ADAPTIVE_STRATEGIES,
    AssignmentService,
    ServiceConfig,
    execute_prepared,
)
from repro.errors import SimulationError
from repro.serve.cache import IncrementalDiversityCache


@pytest.fixture
def vocab():
    return Vocabulary([f"k{i}" for i in range(12)])


@pytest.fixture
def pool(vocab):
    rng = np.random.default_rng(0)
    return TaskPool(
        [Task(f"t{i}", rng.random(12) < 0.35) for i in range(120)], vocab
    )


def make_worker(vocab, worker_id="w0", seed=1) -> Worker:
    rng = np.random.default_rng(seed)
    return Worker(worker_id, rng.random(12) < 0.35)


SMALL_CONFIG = ServiceConfig(
    x_max=4, n_random_pad=2, reassign_after=3, min_pending=1, candidate_cap=None
)


class TestServiceConfig:
    def test_paper_defaults(self):
        cfg = ServiceConfig()
        assert cfg.x_max == 15
        assert cfg.n_random_pad == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x_max": 0},
            {"n_random_pad": -1},
            {"reassign_after": 0},
            {"min_pending": -2},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)


class TestRegistration:
    def test_adaptive_cold_start_is_random_x_max(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        event = service.register_worker(make_worker(vocab), 0.0)
        assert len(event.task_ids) == 4  # x_max random tasks
        assert len(event.random_pad_ids) == 2
        assert event.iteration == 0

    def test_non_adaptive_solves_immediately(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre-rel", SMALL_CONFIG, rng=0)
        event = service.register_worker(make_worker(vocab), 0.0)
        assert len(event.task_ids) == 4
        assert event.alpha == 0.0 and event.beta == 1.0

    @pytest.mark.parametrize(
        "strategy, solver_name, expected",
        [
            ("hta-gre-div", "greedy-relevance", "greedy-relevance"),
            ("hta-gre-div", None, "hta-gre-div"),
            ("hta-gre", "greedy-relevance", None),
        ],
    )
    def test_registration_solves_on_the_given_tier(
        self, pool, vocab, strategy, solver_name, expected
    ):
        """A fixed-weight registration is one prepared solve on
        ``solver_name`` (default: the strategy); an adaptive one solves
        nothing."""
        service = AssignmentService(pool, strategy, SMALL_CONFIG, rng=0)
        solved = []

        def spy(prepared):
            assigned = execute_prepared(prepared)
            solved.append((prepared.solver_name, assigned))
            return assigned

        with mock.patch("repro.crowd.service.execute_prepared", spy):
            event = service.register_worker(
                make_worker(vocab), 0.0, solver_name=solver_name
            )
        if expected is None:
            assert solved == []
            return
        [(name, assigned)] = solved
        assert name == expected
        assert event.task_ids == assigned["w0"]
        assert event.session_time == 0.0 and event.iteration == 0

    def test_double_registration_rejected(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        worker = make_worker(vocab)
        service.register_worker(worker, 0.0)
        with pytest.raises(SimulationError, match="already"):
            service.register_worker(worker, 1.0)

    def test_displayed_tasks_leave_the_pool(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        before = service.remaining_tasks()
        event = service.register_worker(make_worker(vocab), 0.0)
        shown = len(event.task_ids) + len(event.random_pad_ids)
        assert service.remaining_tasks() == before - shown

    def test_adaptive_flag(self, pool):
        assert AssignmentService(pool, "hta-gre", SMALL_CONFIG).is_adaptive
        assert not AssignmentService(pool, "hta-gre-div", SMALL_CONFIG).is_adaptive
        assert "hta-gre" in ADAPTIVE_STRATEGIES


class TestWeights:
    def test_forced_weights_for_baselines(self, pool):
        div = AssignmentService(pool, "hta-gre-div", SMALL_CONFIG)
        assert div.weights_of("anyone") == MotivationWeights.diversity_only()
        rel = AssignmentService(pool, "hta-gre-rel", SMALL_CONFIG)
        assert rel.weights_of("anyone") == MotivationWeights.relevance_only()

    def test_adaptive_weights_start_balanced(self, pool):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG)
        assert service.weights_of("w0") == MotivationWeights.balanced()


class TestCompletions:
    def test_completion_bookkeeping(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        worker = make_worker(vocab)
        event = service.register_worker(worker, 0.0)
        first = event.task_ids[0]
        service.observe_completion(worker.worker_id, first)
        assert first not in service.pending_ids(worker.worker_id)

    def test_completion_of_undisplayed_task_rejected(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        worker = make_worker(vocab)
        service.register_worker(worker, 0.0)
        with pytest.raises(SimulationError, match="not displayed"):
            service.observe_completion(worker.worker_id, "t119")

    def test_double_completion_rejected(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        worker = make_worker(vocab)
        event = service.register_worker(worker, 0.0)
        service.observe_completion(worker.worker_id, event.task_ids[0])
        with pytest.raises(SimulationError, match="already"):
            service.observe_completion(worker.worker_id, event.task_ids[0])

    def test_completions_move_adaptive_weights(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        worker = make_worker(vocab)
        event = service.register_worker(worker, 0.0)
        for task_id in event.task_ids[:3]:
            service.observe_completion(worker.worker_id, task_id)
        weights = service.weights_of(worker.worker_id)
        assert weights != MotivationWeights.balanced() or True
        assert weights.alpha + weights.beta == pytest.approx(1.0)


class TestReassignment:
    def test_triggers_after_threshold(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        worker = make_worker(vocab)
        event = service.register_worker(worker, 0.0)
        shown = list(event.task_ids) + list(event.random_pad_ids)
        for task_id in shown[:2]:
            service.observe_completion(worker.worker_id, task_id)
        assert not service.needs_reassignment(worker.worker_id)
        service.observe_completion(worker.worker_id, shown[2])
        assert service.needs_reassignment(worker.worker_id)

    def test_maybe_reassign_returns_event(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        worker = make_worker(vocab)
        event = service.register_worker(worker, 0.0)
        for task_id in event.task_ids[:3]:
            service.observe_completion(worker.worker_id, task_id)
        new_event = service.maybe_reassign(worker.worker_id, 100.0, 100.0)
        assert new_event is not None
        assert new_event.iteration == 1
        assert new_event.session_time == 100.0

    def test_no_reassign_before_threshold(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        worker = make_worker(vocab)
        service.register_worker(worker, 0.0)
        assert service.maybe_reassign(worker.worker_id, 1.0, 1.0) is None

    def test_no_task_ever_displayed_twice(self, pool, vocab):
        """C2 across the whole deployment: the pool never re-serves a task."""
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        workers = [make_worker(vocab, f"w{i}", seed=i) for i in range(3)]
        shown: set[str] = set()
        for worker in workers:
            event = service.register_worker(worker, 0.0)
            ids = set(event.task_ids) | set(event.random_pad_ids)
            assert not (ids & shown)
            shown |= ids
        # Drive several reassignment rounds.
        for round_ in range(3):
            for worker in workers:
                for task_id in list(service.pending_ids(worker.worker_id))[:3]:
                    service.observe_completion(worker.worker_id, task_id)
                event = service.maybe_reassign(worker.worker_id, 10.0 * round_, 10.0)
                if event is not None:
                    ids = set(event.task_ids) | set(event.random_pad_ids)
                    assert not (ids & shown)
                    shown |= ids

    def test_unregister_frees_bookkeeping(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        worker = make_worker(vocab)
        service.register_worker(worker, 0.0)
        service.unregister_worker(worker.worker_id)
        with pytest.raises(SimulationError, match="no display"):
            service.display_of(worker.worker_id)


class TestPoolExhaustion:
    def test_tiny_pool_registration_fails_cleanly(self, vocab):
        rng = np.random.default_rng(0)
        tiny = TaskPool([Task("only", rng.random(12) < 0.5)], vocab)
        service = AssignmentService(tiny, "hta-gre", SMALL_CONFIG, rng=0)
        event = service.register_worker(make_worker(vocab), 0.0)
        # One task total: it gets displayed (as assignment or pad).
        assert len(event.task_ids) + len(event.random_pad_ids) == 1
        assert service.remaining_tasks() == 0

    def test_no_reassignment_when_pool_empty(self, vocab):
        rng = np.random.default_rng(0)
        tiny = TaskPool(
            [Task(f"t{i}", rng.random(12) < 0.5) for i in range(6)], vocab
        )
        service = AssignmentService(tiny, "hta-gre", SMALL_CONFIG, rng=0)
        worker = make_worker(vocab)
        event = service.register_worker(worker, 0.0)
        for task_id in list(event.task_ids)[:3]:
            service.observe_completion(worker.worker_id, task_id)
        assert service.remaining_tasks() == 0
        assert not service.needs_reassignment(worker.worker_id)


class TestCandidateCap:
    def test_cap_limits_solver_pool_but_keeps_validity(self, vocab):
        rng = np.random.default_rng(1)
        big = TaskPool(
            [Task(f"t{i}", rng.random(12) < 0.35) for i in range(300)], vocab
        )
        config = ServiceConfig(
            x_max=4, n_random_pad=2, reassign_after=3, min_pending=1, candidate_cap=30
        )
        service = AssignmentService(big, "hta-gre-rel", config, rng=0)
        event = service.register_worker(make_worker(vocab), 0.0)
        assert len(event.task_ids) == 4

    def test_cap_none_offers_whole_pool_to_solver(self, vocab):
        """candidate_cap=None must disable shortlisting entirely."""
        rng = np.random.default_rng(2)
        big = TaskPool(
            [Task(f"t{i}", rng.random(12) < 0.35) for i in range(250)], vocab
        )
        config = ServiceConfig(
            x_max=4, n_random_pad=0, reassign_after=2, min_pending=0,
            candidate_cap=None,
        )
        service = AssignmentService(big, "hta-gre-rel", config, rng=0)
        assert len(service.pool_state.shortlist(config.candidate_cap)) == 250
        event = service.register_worker(make_worker(vocab), 0.0)
        assert len(event.task_ids) == 4
        assert service.remaining_tasks() == 246


class TestReassignmentTriggers:
    def test_reassign_after_and_min_pending_fire_together(self, pool, vocab):
        """Both triggers true at once must yield exactly one new display."""
        config = ServiceConfig(
            x_max=4, n_random_pad=0, reassign_after=3, min_pending=3,
            candidate_cap=None,
        )
        service = AssignmentService(pool, "hta-gre", config, rng=0)
        worker = make_worker(vocab)
        event = service.register_worker(worker, 0.0)
        # After 3 of 4 completions: completed_since_assignment == 3 ==
        # reassign_after AND pending (1) < min_pending (3) simultaneously.
        for task_id in event.task_ids[:3]:
            service.observe_completion(worker.worker_id, task_id)
        assert service.needs_reassignment(worker.worker_id)
        new_event = service.maybe_reassign(worker.worker_id, 5.0, 5.0)
        assert new_event is not None
        assert new_event.iteration == 1
        # The trigger resets: one firing, not one per satisfied condition.
        assert not service.needs_reassignment(worker.worker_id)
        assert service.display_of(worker.worker_id).completed_since_assignment == 0

    def test_min_pending_alone_fires_without_enough_completions(self, pool, vocab):
        config = ServiceConfig(
            x_max=4, n_random_pad=0, reassign_after=50, min_pending=4,
            candidate_cap=None,
        )
        service = AssignmentService(pool, "hta-gre", config, rng=0)
        worker = make_worker(vocab)
        event = service.register_worker(worker, 0.0)
        service.observe_completion(worker.worker_id, event.task_ids[0])
        # 3 pending < min_pending 4, though only one completion happened.
        assert service.needs_reassignment(worker.worker_id)

    def test_pool_exhaustion_mid_iteration(self, vocab):
        """When the pool dies mid-batch, early workers win, late ones keep
        their old display, and nothing is served twice."""
        rng = np.random.default_rng(5)
        small = TaskPool(
            [Task(f"t{i}", rng.random(12) < 0.4) for i in range(14)], vocab
        )
        config = ServiceConfig(
            x_max=4, n_random_pad=0, reassign_after=2, min_pending=0,
            candidate_cap=None,
        )
        service = AssignmentService(small, "hta-gre", config, rng=0)
        workers = [make_worker(vocab, f"w{i}", seed=10 + i) for i in range(3)]
        shown: set[str] = set()
        for worker in workers:
            event = service.register_worker(worker, 0.0)
            shown |= set(event.task_ids) | set(event.random_pad_ids)
        assert service.remaining_tasks() == 2  # 14 - 3*4
        for worker in workers:
            for task_id in service.pending_ids(worker.worker_id)[:2]:
                service.observe_completion(worker.worker_id, task_id)
        iterations_before = {
            w.worker_id: service.display_of(w.worker_id).iteration for w in workers
        }
        events = service.reassign_workers([w.worker_id for w in workers], 10.0)
        # Only 2 tasks remained: not every worker can get a fresh display.
        assert 1 <= len(events) < 3
        for worker_id, event in events.items():
            ids = set(event.task_ids) | set(event.random_pad_ids)
            assert ids and not (ids & shown)
            shown |= ids
        assert service.remaining_tasks() == 0
        # Workers left out keep their previous display untouched.
        for worker in workers:
            if worker.worker_id not in events:
                display = service.display_of(worker.worker_id)
                assert display.iteration == iterations_before[worker.worker_id]
                assert service.pending_ids(worker.worker_id)
        # And with an empty pool, nothing is due anymore.
        assert service.due_workers() == []


class TestBatchReassignment:
    def test_reassign_workers_solves_all_in_one_iteration(self, pool, vocab):
        config = ServiceConfig(
            x_max=4, n_random_pad=1, reassign_after=2, min_pending=0,
            candidate_cap=None,
        )
        service = AssignmentService(pool, "hta-gre", config, rng=0)
        workers = [make_worker(vocab, f"w{i}", seed=20 + i) for i in range(4)]
        for worker in workers:
            event = service.register_worker(worker, 0.0)
            for task_id in event.task_ids[:2]:
                service.observe_completion(worker.worker_id, task_id)
        due = service.due_workers()
        assert sorted(due) == [f"w{i}" for i in range(4)]
        events = service.reassign_workers(due, 30.0, {"w1": 12.5})
        assert set(events) == set(due)
        assert events["w1"].session_time == 12.5
        assert events["w0"].session_time == -1.0
        all_ids = [
            tid
            for e in events.values()
            for tid in tuple(e.task_ids) + tuple(e.random_pad_ids)
        ]
        assert len(all_ids) == len(set(all_ids))  # C2 within the batch

    @pytest.mark.parametrize("strategy", ["hta-gre", "hta-gre-div"])
    def test_reassign_workers_is_prepare_execute_commit(self, pool, strategy):
        """The simulator's iteration is the daemon's three steps run back to
        back: a twin service driven step by step installs the same events
        and leaves the same pool and RNG position."""
        config = dict(x_max=4, n_random_pad=2, reassign_after=2, min_pending=1)
        twins = []
        for _ in range(2):
            service = AssignmentService(
                pool, strategy, ServiceConfig(**config), rng=0
            )
            rng = np.random.default_rng(9)
            for i in range(3):
                worker = Worker(f"w{i}", rng.random(len(pool.vocabulary)) < 0.3)
                service.register_worker(worker, 0.0)
            twins.append(service)
        batch, times = ["w0", "w2", "ghost"], {"w2": 7.5}
        events = twins[0].reassign_workers(batch, 3.0, times, "hta-gre-rel")
        prepared = twins[1].prepare_solve(batch, "hta-gre-rel")
        assert prepared.worker_ids == ["w0", "w2"]
        expected = twins[1].commit_solve(
            prepared, execute_prepared(prepared), 3.0, times
        )
        assert events == expected and sorted(events) == ["w0", "w2"]
        assert twins[0].pool_state.task_ids() == twins[1].pool_state.task_ids()
        assert twins[0].snapshot_state() == twins[1].snapshot_state()

    def test_pool_state_notifies_removal_listeners(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        removed: list[str] = []
        service.pool_state.add_removal_listener(removed.extend)
        event = service.register_worker(make_worker(vocab), 0.0)
        shown = set(event.task_ids) | set(event.random_pad_ids)
        assert shown == set(removed)
        assert len(service.pool_state) == 120 - len(shown)


def make_arrivals(n, seed=2, prefix="arr"):
    rng = np.random.default_rng(seed)
    return [Task(f"{prefix}-{i}", rng.random(12) < 0.35) for i in range(n)]


class TestOpenWorldAdmission:
    """POST /tasks semantics at the service layer: atomic batch admission."""

    def test_admit_grows_pool_in_arrival_order(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        batch = make_arrivals(5)
        ids = service.admit_tasks(batch)
        assert ids == [f"arr-{i}" for i in range(5)]
        assert [t.task_id for t in service.admitted_tasks()] == ids
        assert service.remaining_tasks() == 125
        for tid in ids:
            assert tid in service.pool_state

    def test_arrival_listeners_hear_admissions(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        heard: list[str] = []
        service.pool_state.add_arrival_listener(
            lambda tasks: heard.extend(t.task_id for t in tasks)
        )
        service.admit_tasks(make_arrivals(3))
        assert heard == ["arr-0", "arr-1", "arr-2"]

    def test_corpus_collision_rejected_atomically(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        batch = make_arrivals(2) + [Task("t7", np.zeros(12, dtype=bool))]
        with pytest.raises(SimulationError, match="t7"):
            service.admit_tasks(batch)
        assert service.admitted_tasks() == []
        assert service.remaining_tasks() == 120
        assert "arr-0" not in service.pool_state

    def test_duplicate_within_batch_rejected(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        twin = make_arrivals(1)[0]
        with pytest.raises(SimulationError, match="arr-0"):
            service.admit_tasks([twin, twin])
        assert service.admitted_tasks() == []

    def test_previously_admitted_id_rejected(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        service.admit_tasks(make_arrivals(2))
        retry = [
            Task("fresh-0", np.zeros(12, dtype=bool)),
            Task("arr-1", np.zeros(12, dtype=bool)),
        ]
        with pytest.raises(SimulationError, match="arr-1"):
            service.admit_tasks(retry)
        assert len(service.admitted_tasks()) == 2
        assert "fresh-0" not in service.pool_state

    def test_displayed_task_id_rejected_while_out_of_pool(self, pool, vocab):
        """A displayed task has left the pool but its id is not reusable."""
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        event = service.register_worker(make_worker(vocab), 0.0)
        shown = event.task_ids[0]
        assert shown not in service.pool_state
        with pytest.raises(SimulationError, match=shown):
            service.admit_tasks([Task(shown, np.zeros(12, dtype=bool))])

    def test_leased_candidate_id_rejected(self, pool, vocab):
        """A prepared solve's candidates stay pooled; their ids are taken."""
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        service.register_worker(make_worker(vocab), 0.0)
        prepared = service.prepare_solve(["w0"])
        assert prepared is not None
        candidate_id = prepared.candidates[0].task_id
        assert candidate_id in service.pool_state
        with pytest.raises(SimulationError, match=candidate_id):
            service.admit_tasks([Task(candidate_id, np.zeros(12, dtype=bool))])

    def test_vector_length_mismatch_rejected(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        with pytest.raises(SimulationError, match="keyword"):
            service.admit_tasks([Task("arr-bad", np.zeros(9, dtype=bool))])

    def test_arrived_tasks_become_assignable(self, pool, vocab):
        """Completing an arrived task counts like any corpus task."""
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        service.admit_tasks(make_arrivals(4))
        event = service.register_worker(make_worker(vocab), 0.0)
        shown = set(event.task_ids) | set(event.random_pad_ids)
        arrived_shown = sorted(tid for tid in shown if tid.startswith("arr-"))
        for tid in list(shown)[:2]:
            service.observe_completion("w0", tid)
        assert len(service.pending_ids("w0")) == len(shown) - 2
        assert arrived_shown or service.remaining_tasks() > 0


class TestMidSolveArrival:
    """Regression: a solve prepared before an append must commit against
    the pre-append candidate set — arrivals never leak into a prepared
    solve."""

    def test_commit_uses_pre_append_candidates(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        service.register_worker(make_worker(vocab), 0.0)
        prepared = service.prepare_solve(["w0"])
        assert prepared is not None
        pre_append = {t.task_id for t in prepared.candidates}
        batch = make_arrivals(6)
        service.admit_tasks(batch)  # arrives mid-solve
        assigned = {"w0": [t.task_id for t in prepared.candidates[:4]]}
        events = service.commit_solve(prepared, assigned, 1.0)
        displayed = set(events["w0"].task_ids)
        assert displayed <= pre_append  # C1: only pre-append candidates
        arrived_ids = {t.task_id for t in batch}
        assert not displayed & arrived_ids
        # The arrivals are untouched and still assignable afterwards.
        for tid in arrived_ids:
            assert tid in service.pool_state

    def test_abandon_mid_arrival_restores_cleanly(self, pool, vocab):
        """A solve that fails after an arrival (prepared, never committed)
        leaves the pool holding every candidate plus the arrivals."""
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        service.register_worker(make_worker(vocab), 0.0)
        before = service.pool_state.task_ids()
        prepared = service.prepare_solve(["w0"])
        batch = make_arrivals(3)
        service.admit_tasks(batch)
        assert service.pool_state.task_ids() == before + [
            t.task_id for t in batch
        ]
        assert all(t.task_id in service.pool_state for t in prepared.candidates)


class TestAdmissionSnapshot:
    """Snapshots carry the arrival log; restore works from the startup
    corpus alone — arrived tasks are rebuilt from the snapshot itself."""

    def test_snapshot_restore_preserves_admitted(self, pool, vocab):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        service.register_worker(make_worker(vocab), 0.0)
        batch = make_arrivals(3)
        service.admit_tasks(batch)
        state = service.snapshot_state()
        restored = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        restored.restore_state(state, {t.task_id: t for t in pool})
        assert [t.task_id for t in restored.admitted_tasks()] == [
            t.task_id for t in batch
        ]
        assert restored.remaining_tasks() == service.remaining_tasks()
        for original, rebuilt in zip(batch, restored.admitted_tasks()):
            np.testing.assert_array_equal(original.vector, rebuilt.vector)
        # Re-admitting a restored id must still collide.
        with pytest.raises(SimulationError, match="arr-0"):
            restored.admit_tasks([Task("arr-0", np.zeros(12, dtype=bool))])


class TestRetiredAdaptivitySnapshot:
    """Snapshots written with a weight bandit or the Bayesian estimator are
    refused by name, before any state is replaced."""

    @staticmethod
    def refused(pool, vocab, mutate, match):
        service = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        service.register_worker(make_worker(vocab), 0.0)
        state = service.snapshot_state()
        mutate(state)
        restored = AssignmentService(pool, "hta-gre", SMALL_CONFIG, rng=0)
        before = restored.snapshot_state()
        with pytest.raises(SimulationError, match=match):
            restored.restore_state(state, {t.task_id: t for t in pool})
        assert restored.snapshot_state() == before

    def test_weight_policy_refused(self, pool, vocab):
        def add_policy(state):
            state["weight_policy"] = {"name": "thompson", "draws": 4, "pulls": {}}

        self.refused(pool, vocab, add_policy, "weight policy.*'thompson'")

    def test_bayesian_estimator_state_refused(self, pool, vocab):
        def bayesian(state):
            state["estimator"] = {
                "prior": [1.0, 1.0],
                "decay": 1.0,
                "counts": {"w0": [2.0, 1.0]},
                "raw": {"w0": 3},
            }

        self.refused(pool, vocab, bayesian, "Bayesian estimator")


def make_service(pool, **config_kwargs):
    """A seeded service over ``pool`` with three registered workers."""
    defaults = dict(x_max=4, n_random_pad=2, reassign_after=2, min_pending=1)
    defaults.update(config_kwargs)
    service = AssignmentService(pool, "hta-gre", ServiceConfig(**defaults), rng=0)
    rng = np.random.default_rng(9)
    width = len(pool.vocabulary)
    for i in range(3):
        service.register_worker(Worker(f"w{i}", rng.random(width) < 0.3), 0.0)
    return service


class TestPrepareCommit:
    def test_interleaved_prepares_never_display_a_task_twice(self, pool):
        """Two solves prepared before either commits see the same pool; the
        commit's in-pool filter is what keeps their displays disjoint."""
        service = make_service(pool, candidate_cap=None)
        first = service.prepare_solve(["w0"])
        second = service.prepare_solve(["w1", "w2"])
        assert [t.task_id for t in first.candidates] == [
            t.task_id for t in second.candidates
        ]
        taken = execute_prepared(first)
        events = service.commit_solve(first, taken, 1.0)
        # Hand w1 everything w0 just got on top of its own solve.
        clash = dict(execute_prepared(second))
        clash["w1"] = tuple(taken["w0"]) + tuple(clash["w1"])
        events.update(service.commit_solve(second, clash, 2.0))
        assert sorted(events) == ["w0", "w1", "w2"]
        assert set(taken["w0"]) <= set(events["w0"].task_ids)
        shown = [
            tid
            for event in events.values()
            for tid in event.task_ids + event.random_pad_ids
        ]
        assert len(shown) == len(set(shown))
        assert not set(shown) & set(service.pool_state.task_ids())

    def test_lease_is_silent_commit_notifies_once(self, pool):
        service = make_service(pool, candidate_cap=20)
        removed: list[str] = []
        service.pool_state.add_removal_listener(removed.extend)
        prepared = service.prepare_solve(["w0"])
        assert removed == []  # preparing never notifies listeners
        picked = [t.task_id for t in prepared.candidates[:3]]
        events = service.commit_solve(prepared, {"w0": picked}, 1.0)
        assert set(picked) <= set(removed)
        assert events["w0"].task_ids == tuple(picked)
        # Assigned tasks and pads left the pool exactly once.
        assert len(removed) == len(set(removed))
        for tid in removed:
            assert tid not in service.pool_state

    def test_commit_skips_unregistered_worker(self, pool):
        service = make_service(pool, candidate_cap=20)
        before = service.remaining_tasks()
        prepared = service.prepare_solve(["w0"])
        picked = [t.task_id for t in prepared.candidates[:3]]
        service.unregister_worker("w0")
        events = service.commit_solve(prepared, {"w0": picked}, 1.0)
        assert events == {}
        # The would-be assignment never left the pool.
        assert service.remaining_tasks() == before

    def test_commit_falls_back_to_random_draws(self, pool):
        service = make_service(pool, candidate_cap=20)
        prepared = service.prepare_solve(["w0"])
        events = service.commit_solve(prepared, {}, 1.0)
        # Solver gave w0 nothing; it drew x_max random tasks instead.
        assert len(events["w0"].task_ids) == 4

    def test_prepare_returns_none_without_workers_or_tasks(self, pool):
        service = make_service(pool, candidate_cap=20)
        assert service.prepare_solve(["ghost"]) is None
        service.pool_state.remove(service.pool_state.task_ids())
        assert service.prepare_solve(["w0"]) is None

    def test_prepare_primes_cached_diversity(self, pool):
        service = make_service(pool, candidate_cap=None)
        IncrementalDiversityCache(pool).attach(service)
        prepared = service.prepare_solve(["w0"])
        ids = [t.task_id for t in prepared.candidates]
        expected = pairwise_jaccard(pool.subset(ids).matrix)
        np.testing.assert_allclose(prepared.instance.diversity, expected)

    def test_cache_stays_in_parity_across_commits(self, pool):
        service = make_service(pool, candidate_cap=30)
        cache = IncrementalDiversityCache(pool).attach(service)
        # Registration drew tasks before the cache attached; sync it the way
        # the daemon's restore path does.
        cache.on_removed(
            [t.task_id for t in pool if t.task_id not in service.pool_state]
        )
        for _ in range(3):
            prepared = service.prepare_solve(["w0", "w1"])
            picked = [t.task_id for t in prepared.candidates[:4]]
            service.commit_solve(prepared, {"w0": picked[:2], "w1": picked[2:]}, 1.0)
        live = service.pool_state.task_ids()
        assert len(cache) == len(live)
        sample = live[:10]
        np.testing.assert_allclose(
            take_submatrix(*cache.submatrix(sample)),
            pairwise_jaccard(pool.subset(sample).matrix),
        )
