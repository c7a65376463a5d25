"""Chaos and resilience regression tests for the serving layer.

Covers the failure-mode contract of :mod:`repro.serve.resilience`:

* deterministic fault plans (same seed -> same fault sequence);
* deadline misses answered from the stale display, never with a 5xx;
* exact degradation-tier transitions under an injected solve-delay burst,
  including recovery once the burst passes;
* the worker-unregisters-during-in-flight-solve race (regression: used to
  fail the whole batch with a KeyError);
* seeded chaos runs that must keep C1/C2 intact — zero duplicate displays,
  zero disjointness violations — while connections drop, bodies corrupt and
  solves fail around them;
* crash-safe snapshot/restore: a restarted daemon resumes bit-identical
  state, including recomputed display matrices and the RNG stream.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core import Task, TaskPool, Vocabulary
from repro.crowd.service import ServiceConfig
from repro.errors import UnknownSolverError
from repro.serve.app import SNAPSHOT_KIND, AssignmentDaemon, ServeConfig
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.serve.metrics import MetricsRegistry
from repro.serve.protocol import HttpClient
from repro.serve.resilience import (
    DegradationController,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    ResilienceConfig,
    degradation_ladder,
)

N_KEYWORDS = 16


def make_pool(n_tasks=300, seed=0):
    vocab = Vocabulary([f"k{i}" for i in range(N_KEYWORDS)])
    rng = np.random.default_rng(seed)
    return TaskPool(
        [
            Task(f"t{i}", rng.random(N_KEYWORDS) < 0.3, title=f"Task {i}")
            for i in range(n_tasks)
        ],
        vocab,
    )


def serve_config(**overrides):
    defaults = dict(
        host="127.0.0.1",
        port=0,
        strategy="hta-gre",
        service=ServiceConfig(
            x_max=5, n_random_pad=2, reassign_after=3, min_pending=1,
            candidate_cap=None,
        ),
        max_batch_delay=0.01,
        seed=0,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def with_daemon(coro_fn, n_tasks=300, pool_seed=0, timeout=30.0, **config_overrides):
    """Run ``coro_fn(daemon, client)`` against a live daemon."""

    async def scenario():
        daemon = AssignmentDaemon(
            make_pool(n_tasks, seed=pool_seed), serve_config(**config_overrides)
        )
        await daemon.start()
        client = HttpClient("127.0.0.1", daemon.port)
        try:
            return await coro_fn(daemon, client)
        finally:
            await client.close()
            await daemon.stop()

    return asyncio.run(asyncio.wait_for(scenario(), timeout=timeout))


# -- unit: ladder and controller ---------------------------------------------


class TestDegradationLadder:
    def test_ladder_shapes(self):
        assert degradation_ladder("hta-app") == (
            "hta-app", "hta-gre", "greedy-relevance",
        )
        assert degradation_ladder("hta-gre") == ("hta-gre", "greedy-relevance")
        assert degradation_ladder("greedy-relevance") == ("greedy-relevance",)
        # An unrelated strategy keeps its spot at tier 0.
        assert degradation_ladder("hta-adapt")[0] == "hta-adapt"

    def test_daemon_walks_its_strategy_ladder_with_the_streak_controller(self):
        daemon = AssignmentDaemon(make_pool(4), ServeConfig(seed=0))
        assert type(daemon.degradation) is DegradationController
        assert daemon.degradation.ladder == ("hta-gre", "greedy-relevance")

    def _controller(self, breach=2, recover=2):
        registry = MetricsRegistry()
        controller = DegradationController(
            ("hta-app", "hta-gre", "greedy-relevance"),
            ResilienceConfig(
                solve_budget=0.1, breach_threshold=breach,
                recovery_threshold=recover,
            ),
            registry,
        )
        return controller, registry

    def test_escalates_one_tier_per_breach_streak(self):
        controller, registry = self._controller()
        assert controller.tier == 0 and controller.strategy == "hta-app"
        controller.observe_solve(0.5)
        assert controller.tier == 0  # one breach is not a streak
        controller.observe_solve(0.5)
        assert controller.tier == 1 and controller.strategy == "hta-gre"
        controller.observe_solve(0.5)
        controller.observe_solve(0.5)
        assert controller.tier == 2 and controller.strategy == "greedy-relevance"
        # The ladder has a floor: further breaches keep the bottom tier.
        for _ in range(5):
            controller.observe_solve(0.5)
        assert controller.tier == 2
        assert registry.get("serve_degradations_total").value == 2
        assert registry.get("serve_degradation_tier").value == 2

    def test_recovers_one_tier_per_healthy_streak(self):
        controller, registry = self._controller()
        for _ in range(4):
            controller.observe_solve(0.5)  # down to tier 2
        controller.observe_solve(0.01)
        controller.observe_solve(0.01)
        assert controller.tier == 1
        controller.observe_solve(0.01)
        controller.observe_solve(0.01)
        assert controller.tier == 0
        for _ in range(5):  # the ladder also has a ceiling
            controller.observe_solve(0.01)
        assert controller.tier == 0
        assert registry.get("serve_recoveries_total").value == 2
        assert registry.get("serve_degradation_tier").value == 0

    def test_mixed_signals_never_escalate(self):
        controller, _ = self._controller(breach=2)
        for _ in range(10):  # breaches interleaved with health: no streak
            controller.observe_solve(0.5)
            controller.observe_solve(0.01)
        assert controller.tier == 0

    def test_misses_and_failures_count_as_breaches(self):
        controller, _ = self._controller(breach=2)
        controller.observe_deadline_miss()
        controller.observe_solve_failure()
        assert controller.tier == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(request_deadline=0.0)
        with pytest.raises(ValueError):
            ResilienceConfig(solve_budget=-1.0)
        with pytest.raises(ValueError):
            ResilienceConfig(breach_threshold=0)
        with pytest.raises(ValueError):
            ResilienceConfig(recovery_threshold=0)
        with pytest.raises(ValueError):
            DegradationController((), ResilienceConfig(), MetricsRegistry())
        with pytest.raises(UnknownSolverError, match="nope"):
            DegradationController(
                ("hta-gre", "nope"), ResilienceConfig(), MetricsRegistry()
            )


# -- unit: fault plans --------------------------------------------------------


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(solve_delay_p=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_body_p=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(solve_delay_s=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(max_solve_delays=-1)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"seed": 1, "explode_p": 1.0})

    def test_removed_worker_crash_keys_are_refused_by_name(self, tmp_path):
        """Plans written for the removed process-pool solver still carry
        ``worker_crash_p``; loading one fails loudly, naming the key."""
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"seed": 1, "solve_fail_p": 0.1, "worker_crash_p": 0.5,
             "max_worker_crashes": 1}
        ))
        with pytest.raises(ValueError, match="worker_crash_p") as excinfo:
            FaultPlan.from_file(path)
        assert "max_worker_crashes" in str(excinfo.value)

    def test_file_roundtrip(self, tmp_path):
        plan = FaultPlan(
            seed=9, solve_delay_p=0.5, solve_delay_s=0.1, max_solve_delays=3,
            solve_fail_p=0.1, drop_connection_p=0.2, corrupt_body_p=0.05,
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.from_file(path) == plan
        (tmp_path / "bad.json").write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_file(tmp_path / "bad.json")

    def test_same_seed_same_fault_sequence(self):
        plan = FaultPlan(
            seed=1234, solve_delay_p=0.4, solve_delay_s=0.0,
            solve_fail_p=0.2, drop_connection_p=0.3, corrupt_body_p=0.5,
        )

        def trace(injector: FaultInjector) -> list:
            events = []
            for _ in range(200):
                try:
                    injector.on_solve()
                    events.append("solve-ok")
                except InjectedFault:
                    events.append("solve-fail")
                events.append(injector.drop_connection())
                events.append(injector.corrupt_body(b'{"k": 1}'))
            return events

        first = trace(FaultInjector(plan, MetricsRegistry()))
        second = trace(FaultInjector(plan, MetricsRegistry()))
        assert first == second
        assert "solve-fail" in first and True in first  # chaos actually fired

    def test_corrupted_body_is_never_valid_json(self):
        plan = FaultPlan(seed=0, corrupt_body_p=1.0)
        injector = FaultInjector(plan, MetricsRegistry())
        corrupted = injector.corrupt_body(b'{"worker_id": "w"}')
        assert corrupted is not None and corrupted[0] == 0
        with pytest.raises((json.JSONDecodeError, UnicodeDecodeError)):
            json.loads(corrupted)
        assert injector.corrupt_body(b"") is None  # empty bodies left alone


# -- e2e: deadlines -----------------------------------------------------------


class TestDeadlinePath:
    def test_server_deadline_miss_answers_with_stale_display(self):
        """A request that blows its deadline waiting on the batch window gets
        the worker's current display *now*; the solve still lands later."""

        async def check(daemon, client):
            status, body = await client.request(
                "POST", "/workers", {"worker_id": "ann", "keywords": ["k1", "k2"]}
            )
            assert status == 200
            first = body["display"]["pending"][0]
            status, body = await client.request(
                "POST", "/complete", {"worker_id": "ann", "task_id": first}
            )
            assert status == 200
            assert body["deadline_exceeded"] is True
            assert body["reassigned"] is False
            assert first not in body["display"]["pending"]  # stale but current
            # The batched solve was not abandoned: it installs the new
            # display once the batch window closes.
            for _ in range(40):
                await asyncio.sleep(0.05)
                status, polled = await client.request("GET", "/display/ann")
                if polled["display"]["iteration"] == 1:
                    break
            assert polled["display"]["iteration"] == 1
            return daemon.registry.snapshot()

        metrics = with_daemon(
            check,
            service=ServiceConfig(
                x_max=5, n_random_pad=2, reassign_after=1, min_pending=1,
                candidate_cap=None,
            ),
            max_batch_delay=0.4,
            resilience=ResilienceConfig(request_deadline=0.08),
        )
        assert metrics["serve_deadline_exceeded_total"] == 1
        assert metrics["serve_disjointness_violations_total"] == 0
        assert metrics["serve_errors_total"] == 0

    def test_client_header_tightens_deadline(self):
        async def check(daemon, client):
            status, body = await client.request(
                "POST", "/workers", {"worker_id": "ben", "keywords": ["k3"]}
            )
            first = body["display"]["pending"][0]
            status, body = await client.request(
                "POST",
                "/complete",
                {"worker_id": "ben", "task_id": first},
                headers={"x-deadline-ms": "60"},
            )
            assert status == 200
            return body, daemon.registry.snapshot()

        body, metrics = with_daemon(
            check,
            service=ServiceConfig(
                x_max=5, n_random_pad=2, reassign_after=1, min_pending=1,
                candidate_cap=None,
            ),
            max_batch_delay=0.4,
            resilience=ResilienceConfig(request_deadline=5.0),
        )
        assert body["deadline_exceeded"] is True
        assert metrics["serve_deadline_exceeded_total"] == 1

    def test_bad_deadline_header_rejected_before_any_state_change(self):
        async def check(daemon, client):
            _, body = await client.request(
                "POST", "/workers", {"worker_id": "cas", "keywords": ["k4"]}
            )
            first = body["display"]["pending"][0]
            statuses = []
            for header in ("abc", "-5", "0"):
                status, _ = await client.request(
                    "POST",
                    "/complete",
                    {"worker_id": "cas", "task_id": first},
                    headers={"x-deadline-ms": header},
                )
                statuses.append(status)
            # None of the rejected requests recorded the completion.
            _, body = await client.request("GET", "/display/cas")
            return statuses, first, body, daemon.registry.snapshot()

        statuses, first, body, metrics = with_daemon(check)
        assert all(status == 400 for status in statuses)
        assert first in body["display"]["pending"]
        assert metrics["serve_completions_total"] == 0


# -- e2e: tier transitions under injected delay -------------------------------


class TestTierTransitions:
    def test_exact_escalation_and_recovery_trajectory(self):
        """A capped burst of injected solve delays walks the daemon down the
        ladder one tier per breach streak, then back up after the burst."""

        async def check(daemon, client):
            status, body = await client.request(
                "POST", "/workers", {"worker_id": "solo", "keywords": ["k0", "k5"]}
            )
            assert status == 200
            pending = body["display"]["pending"]
            tiers, strategies = [], []
            for _ in range(10):
                status, body = await client.request(
                    "POST", "/complete", {"worker_id": "solo", "task_id": pending[0]}
                )
                assert status == 200
                pending = body["display"]["pending"]
                assert pending, "display ran dry mid-test"
                _, health = await client.request("GET", "/healthz")
                tiers.append(health["resilience"]["tier"])
                strategies.append(health["active_strategy"])
            return tiers, strategies, daemon.registry.snapshot()

        tiers, strategies, metrics = with_daemon(
            check,
            n_tasks=150,
            strategy="hta-app",
            service=ServiceConfig(
                x_max=3, n_random_pad=1, reassign_after=1, min_pending=1,
                candidate_cap=30,
            ),
            max_batch_delay=0.0,
            resilience=ResilienceConfig(
                request_deadline=5.0, solve_budget=0.05,
                breach_threshold=2, recovery_threshold=3,
            ),
            fault_plan=FaultPlan(
                seed=1, solve_delay_p=1.0, solve_delay_s=0.12, max_solve_delays=4
            ),
        )
        # Solves 1-4 carry the injected 0.12s delay (> 0.05 budget): tier 1
        # after the second breach, tier 2 after the fourth.  Solves 5-10 are
        # healthy: back to tier 1 after three, tier 0 after six.
        assert tiers == [0, 1, 1, 2, 2, 2, 1, 1, 1, 0]
        assert strategies[3] == "greedy-relevance"
        assert strategies[-1] == "hta-app"
        assert metrics["serve_degradations_total"] == 2
        assert metrics["serve_recoveries_total"] == 2
        assert metrics["serve_fault_solve_delays_total"] == 4
        assert metrics["serve_disjointness_violations_total"] == 0


# -- e2e: unregister-during-solve race ---------------------------------------


class TestUnregisterRace:
    def test_worker_leaving_mid_batch_does_not_fail_the_solve(self):
        """Regression: a worker unregistering while its reassignment sat in a
        scheduler batch used to KeyError the whole batch, failing innocent
        co-batched workers.  Now the leaver is dropped and everyone else is
        served."""

        async def check(daemon, client):
            client_a = HttpClient("127.0.0.1", daemon.port)
            client_b = HttpClient("127.0.0.1", daemon.port)
            try:
                _, body_a = await client.request(
                    "POST", "/workers", {"worker_id": "goner", "keywords": ["k1"]}
                )
                _, body_b = await client.request(
                    "POST", "/workers", {"worker_id": "stayer", "keywords": ["k2"]}
                )

                async def complete(http, worker_id, task_id):
                    return await http.request(
                        "POST", "/complete",
                        {"worker_id": worker_id, "task_id": task_id},
                    )

                task_gone = asyncio.ensure_future(
                    complete(client_a, "goner", body_a["display"]["pending"][0])
                )
                task_stay = asyncio.ensure_future(
                    complete(client_b, "stayer", body_b["display"]["pending"][0])
                )
                await asyncio.sleep(0.05)  # both parked in the batch window
                status, _ = await client.request("DELETE", "/workers/goner")
                assert status == 200
                (status_a, resp_a), (status_b, resp_b) = await asyncio.gather(
                    task_gone, task_stay
                )
            finally:
                await client_a.close()
                await client_b.close()
            return status_a, resp_a, status_b, resp_b, daemon.registry.snapshot()

        status_a, resp_a, status_b, resp_b, metrics = with_daemon(
            check,
            service=ServiceConfig(
                x_max=5, n_random_pad=2, reassign_after=1, min_pending=1,
                candidate_cap=None,
            ),
            max_batch_delay=0.25,
        )
        assert status_a == 200 and resp_a["display"] is None
        assert resp_a["reassigned"] is False
        assert status_b == 200 and resp_b["reassigned"] is True
        assert resp_b["display"]["iteration"] == 1
        assert metrics["serve_solve_errors_total"] == 0
        assert metrics["serve_degraded_responses_total"] == 0
        assert metrics["serve_disjointness_violations_total"] == 0

    def test_sole_leaver_leaves_an_empty_batch(self):
        """The degenerate case: the only due worker leaves, the batch solves
        over an empty worker set and must still resolve cleanly."""

        async def check(daemon, client):
            client_a = HttpClient("127.0.0.1", daemon.port)
            try:
                _, body = await client.request(
                    "POST", "/workers", {"worker_id": "lone", "keywords": ["k6"]}
                )
                pending = body["display"]["pending"]
                task = asyncio.ensure_future(
                    client_a.request(
                        "POST", "/complete",
                        {"worker_id": "lone", "task_id": pending[0]},
                    )
                )
                await asyncio.sleep(0.05)
                await client.request("DELETE", "/workers/lone")
                status, resp = await task
            finally:
                await client_a.close()
            return status, resp, daemon.registry.snapshot()

        status, resp, metrics = with_daemon(
            check,
            service=ServiceConfig(
                x_max=5, n_random_pad=2, reassign_after=1, min_pending=1,
                candidate_cap=None,
            ),
            max_batch_delay=0.25,
        )
        assert status == 200 and resp["display"] is None
        assert metrics["serve_solve_errors_total"] == 0


# -- e2e: seeded chaos runs ---------------------------------------------------

CHAOS_PLAN = dict(
    solve_delay_p=0.25, solve_delay_s=0.03, solve_fail_p=0.05,
    drop_connection_p=0.05, corrupt_body_p=0.03,
)


def run_chaos(seed, n_workers=8, completions=6, n_tasks=400, timeout=60.0):
    async def scenario():
        daemon = AssignmentDaemon(
            make_pool(n_tasks, seed=seed),
            serve_config(
                resilience=ResilienceConfig(
                    request_deadline=1.0, solve_budget=0.02,
                    breach_threshold=2, recovery_threshold=3,
                ),
                fault_plan=FaultPlan(seed=seed, **CHAOS_PLAN),
            ),
        )
        await daemon.start()
        try:
            result = await run_loadgen(
                LoadgenConfig(
                    port=daemon.port, n_workers=n_workers,
                    completions_per_worker=completions, seed=seed,
                    max_retries=4, request_deadline=1.5,
                )
            )
            return result, daemon.registry.snapshot()
        finally:
            await daemon.stop()

    return asyncio.run(asyncio.wait_for(scenario(), timeout=timeout))


def assert_chaos_invariants(result, metrics, n_workers):
    # The paper's constraints hold no matter what the injector does.
    assert result.duplicate_display_violations == 0
    assert metrics["serve_disjointness_violations_total"] == 0
    assert result.completions > 0
    # Dropped connections are absorbed by client retries (drops happen
    # before dispatch, so retrying is safe and the retry budget covers the
    # observed burst lengths at p=0.05).
    assert result.transport_errors == 0
    # Corrupted bodies are *rejected*, not crashed on: the only client-
    # visible 4xx are injected corruptions (a corruption whose connection is
    # then also dropped is retried and never surfaces, hence <=).
    assert result.http_errors <= metrics.get("serve_fault_corrupted_bodies_total", 0)
    # A corrupted registration is the only thing that can sink a worker.
    assert result.workers_finished >= n_workers - result.http_errors
    # Injected solve failures are the *only* solve errors — the solver
    # pipeline itself never raises under chaos.
    assert metrics["serve_solve_errors_total"] == metrics.get(
        "serve_fault_solve_failures_total", 0
    )


class TestChaosRuns:
    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_seeded_chaos_keeps_contract(self, seed):
        result, metrics = run_chaos(seed)
        assert_chaos_invariants(result, metrics, n_workers=8)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [101, 211])
    def test_long_fuzz(self, seed):
        """Longer opt-in fuzz (--runslow): more workers, more traffic."""
        result, metrics = run_chaos(
            seed, n_workers=20, completions=10, n_tasks=1500, timeout=180.0
        )
        assert_chaos_invariants(result, metrics, n_workers=20)
        assert result.reassignments > 0


# -- e2e: snapshot / restore --------------------------------------------------


def snapshot_config(db_path, **overrides):
    overrides.setdefault(
        "service",
        ServiceConfig(
            x_max=4, n_random_pad=1, reassign_after=2, min_pending=1,
            candidate_cap=None,
        ),
    )
    return serve_config(snapshot_path=str(db_path), **overrides)


class TestSnapshotRestore:
    WORKERS = ("ann", "ben", "cas")

    def _drive_and_stop(self, db_path):
        """Register workers, push them through reassignments, stop (which
        snapshots).  Returns the stopped daemon for state comparison."""

        async def scenario():
            daemon = AssignmentDaemon(
                make_pool(250, seed=5), snapshot_config(db_path)
            )
            await daemon.start()
            client = HttpClient("127.0.0.1", daemon.port)
            try:
                pending = {}
                for i, worker_id in enumerate(self.WORKERS):
                    _, body = await client.request(
                        "POST", "/workers",
                        {"worker_id": worker_id, "keywords": [f"k{i}", f"k{i + 4}"]},
                    )
                    pending[worker_id] = body["display"]["pending"]
                for worker_id in self.WORKERS:
                    for _ in range(2):  # reassign_after=2: triggers one solve
                        status, body = await client.request(
                            "POST", "/complete",
                            {"worker_id": worker_id,
                             "task_id": pending[worker_id][0]},
                        )
                        assert status == 200
                        pending[worker_id] = body["display"]["pending"]
            finally:
                await client.close()
                await daemon.stop()
            return daemon

        return asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))

    def test_restore_resumes_identical_state(self, tmp_path):
        db_path = tmp_path / "serve.db"
        daemon1 = self._drive_and_stop(db_path)
        state1 = daemon1.service.snapshot_state()

        daemon2 = AssignmentDaemon(
            make_pool(250, seed=5), snapshot_config(db_path, restore=True)
        )
        state2 = daemon2.service.snapshot_state()
        # Full mutable state — pool, workers, displays, estimator, RNG
        # position — survives the round trip exactly.
        assert json.loads(json.dumps(state2)) == json.loads(json.dumps(state1))
        assert daemon2._displayed_ever == daemon1._displayed_ever
        assert daemon2.registry.get("serve_restores_total").value == 1
        # The diversity cache was re-synced against the restored pool.
        assert len(daemon2.cache) == daemon2.service.remaining_tasks()
        # Display matrices are recomputed bit-identically, not approximately.
        for worker_id in self.WORKERS:
            d1 = daemon1.service.display_of(worker_id)
            d2 = daemon2.service.display_of(worker_id)
            assert d2.task_ids == d1.task_ids
            assert d2.completed == d1.completed
            assert np.array_equal(d2.diversity, d1.diversity)
            assert np.array_equal(d2.relevance, d1.relevance)

    def test_restored_daemon_keeps_serving(self, tmp_path):
        db_path = tmp_path / "serve.db"
        self._drive_and_stop(db_path)

        async def resume():
            daemon = AssignmentDaemon(
                make_pool(250, seed=5), snapshot_config(db_path, restore=True)
            )
            await daemon.start()
            client = HttpClient("127.0.0.1", daemon.port)
            try:
                status, body = await client.request("GET", "/display/ann")
                assert status == 200
                next_task = body["display"]["pending"][0]
                status, body = await client.request(
                    "POST", "/complete",
                    {"worker_id": "ann", "task_id": next_task},
                )
                assert status == 200
                _, health = await client.request("GET", "/healthz")
                return health, daemon.registry.snapshot()
            finally:
                await client.close()
                await daemon.stop()

        health, metrics = asyncio.run(asyncio.wait_for(resume(), timeout=30.0))
        assert health["workers"] == 3
        assert health["snapshots"]["retained"] >= 1
        assert metrics["serve_disjointness_violations_total"] == 0

    def test_restore_with_empty_store_starts_fresh(self, tmp_path):
        daemon = AssignmentDaemon(
            make_pool(50, seed=1),
            snapshot_config(tmp_path / "empty.db", restore=True),
        )
        assert daemon.registry.get("serve_restores_total").value == 0
        assert daemon.service.remaining_tasks() == 50

    def test_periodic_snapshots_are_pruned(self, tmp_path):
        db_path = tmp_path / "serve.db"

        async def scenario():
            daemon = AssignmentDaemon(
                make_pool(400, seed=2),
                snapshot_config(
                    db_path,
                    snapshot_every=1,
                    service=ServiceConfig(
                        x_max=4, n_random_pad=1, reassign_after=1,
                        min_pending=1, candidate_cap=None,
                    ),
                ),
            )
            await daemon.start()
            client = HttpClient("127.0.0.1", daemon.port)
            try:
                _, body = await client.request(
                    "POST", "/workers", {"worker_id": "w", "keywords": ["k7"]}
                )
                pending = body["display"]["pending"]
                for _ in range(7):  # one solve (and one snapshot) each
                    _, body = await client.request(
                        "POST", "/complete",
                        {"worker_id": "w", "task_id": pending[0]},
                    )
                    pending = body["display"]["pending"]
            finally:
                await client.close()
                await daemon.stop()
            return daemon

        daemon = asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
        taken = daemon.registry.get("serve_snapshots_total").value
        assert taken >= 8  # snapshot_every=1 fires per solve, plus one at stop
        # ... but the store keeps a bounded history.
        assert 1 <= daemon._snapshots.count(SNAPSHOT_KIND) <= 5


# -- e2e: traced failure edges ------------------------------------------------


class TestTracedFailureEdges:
    """A deadline expiring while the request's batch is still forming must
    answer the request AND leave a complete, closed trace carrying an error
    span — never a hung request or a leak."""

    def test_deadline_in_queue_leaves_closed_trace(self):
        async def scenario():
            # The batch window outlasts the deadline: the request answers
            # while still queued, and its batch is dequeued and solved
            # after the trace has closed.
            daemon = AssignmentDaemon(
                make_pool(300),
                serve_config(
                    max_batch_delay=0.25,
                    service=ServiceConfig(
                        x_max=5, n_random_pad=2, reassign_after=1,
                        min_pending=1, candidate_cap=None,
                    ),
                    resilience=ResilienceConfig(request_deadline=0.08),
                    trace_sample_rate=1.0,
                ),
            )
            await daemon.start()
            client = HttpClient("127.0.0.1", daemon.port)
            try:
                status, body = await client.request(
                    "POST", "/workers", {"worker_id": "dee", "keywords": ["k1"]}
                )
                assert status == 200
                first = body["display"]["pending"][0]
                status, body = await client.request(
                    "POST", "/complete", {"worker_id": "dee", "task_id": first}
                )
                trace_id = client.last_headers["x-trace-id"]
                # The solve lands after the response; wait for it so the
                # straggler spans hit the closed trace (late-span path).
                for _ in range(60):
                    await asyncio.sleep(0.05)
                    if daemon.registry.get(
                        "serve_trace_late_spans_total"
                    ).value > 0:
                        break
                _, polled = await client.request("GET", "/display/dee")
                trace = daemon.tracer.get(trace_id)
                return (
                    status, body, trace.to_dict(), polled,
                    daemon.registry.snapshot(),
                )
            finally:
                await client.close()
                await daemon.stop()

        status, body, trace, polled, metrics = asyncio.run(
            asyncio.wait_for(scenario(), timeout=30.0)
        )
        # The request answered in time, from the stale display.
        assert status == 200
        assert body["deadline_exceeded"] is True
        assert body["reassigned"] is False
        # Its trace is complete: closed root and a deadline error span
        # marking why it ended early.
        assert trace["closed"] is True
        names = [span["name"] for span in trace["spans"]]
        deadline_span = trace["spans"][names.index("deadline")]
        assert deadline_span["status"] == "error"
        assert "deadline" in deadline_span["error"]
        # The queue span (sealed at dequeue) and the straggler solve's
        # spans were dropped and counted, not leaked into the closed trace.
        assert metrics["serve_trace_late_spans_total"] > 0
        assert "queue" not in names
        assert "solve" not in names
        # And the solve still installed the fresh display afterwards.
        assert polled["display"]["iteration"] == 1
        assert metrics["serve_deadline_exceeded_total"] == 1
