"""Daemon end-to-end tests over real sockets (ephemeral ports)."""

import asyncio
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import Task, TaskPool, Vocabulary
from repro.crowd.service import ServiceConfig
from repro.serve.app import AssignmentDaemon, ServeConfig
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.serve.protocol import HttpClient

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


def with_daemon(coro_fn, n_tasks=300, **config_overrides):
    """Run ``coro_fn(daemon, client)`` against a live daemon."""

    async def scenario():
        daemon = AssignmentDaemon(make_pool(n_tasks), serve_config(**config_overrides))
        await daemon.start()
        client = HttpClient("127.0.0.1", daemon.port)
        try:
            return await coro_fn(daemon, client)
        finally:
            await client.close()
            await daemon.stop()

    return asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))


class TestEndpoints:
    def test_healthz(self):
        async def check(daemon, client):
            status, body = await client.request("GET", "/healthz")
            return status, body

        status, body = with_daemon(check)
        assert status == 200
        assert body["status"] == "ok"
        assert body["remaining_tasks"] == 300
        assert body["cache"]["live_tasks"] == 300

    def test_vocabulary(self):
        async def check(daemon, client):
            return await client.request("GET", "/vocabulary")

        status, body = with_daemon(check)
        assert status == 200
        assert body["keywords"] == [f"k{i}" for i in range(N_KEYWORDS)]

    def test_worker_lifecycle_roundtrip(self):
        async def check(daemon, client):
            status, body = await client.request(
                "POST", "/workers", {"worker_id": "alice", "keywords": ["k1", "k2"]}
            )
            assert status == 200
            display = body["display"]
            assert len(display["pending"]) == 7  # x_max 5 + 2 pads
            first = display["pending"][0]
            status, body = await client.request(
                "POST", "/complete", {"worker_id": "alice", "task_id": first}
            )
            assert status == 200
            assert body["completed"] == first
            assert first not in body["display"]["pending"]
            status, body = await client.request("GET", "/display/alice")
            assert status == 200
            assert first not in body["display"]["pending"]
            status, body = await client.request("DELETE", "/workers/alice")
            assert status == 200
            status, body = await client.request("GET", "/display/alice")
            assert status == 404
            return True

        assert with_daemon(check)

    def test_completion_triggers_batched_reassignment(self):
        async def check(daemon, client):
            status, body = await client.request(
                "POST", "/workers", {"worker_id": "bob", "keywords": ["k0"]}
            )
            pending = body["display"]["pending"]
            reassigned = False
            for task_id in pending[:3]:  # reassign_after=3
                status, body = await client.request(
                    "POST", "/complete", {"worker_id": "bob", "task_id": task_id}
                )
                assert status == 200
                reassigned = reassigned or body["reassigned"]
            return reassigned, body["display"]["iteration"], daemon

        reassigned, iteration, daemon = with_daemon(check)
        assert reassigned
        assert iteration == 1
        assert daemon.registry.get("serve_solves_total").value >= 1
        assert daemon.registry.get("serve_disjointness_violations_total").value == 0

    def test_error_paths(self):
        async def check(daemon, client):
            results = {}
            results["no_route"] = (await client.request("GET", "/nope"))[0]
            results["bad_json"] = (
                await client.request("POST", "/workers", {"worker_id": "x"})
            )[0]
            results["unknown_keyword"] = (
                await client.request(
                    "POST", "/workers", {"worker_id": "x", "keywords": ["zzz"]}
                )
            )[0]
            await client.request(
                "POST", "/workers", {"worker_id": "carol", "keywords": ["k3"]}
            )
            # Same interests again: an idempotent retry, answered with the
            # current display rather than a 409.
            results["reregister_same"] = await client.request(
                "POST", "/workers", {"worker_id": "carol", "keywords": ["k3"]}
            )
            # Different interests: a genuine conflict.
            results["reregister_conflict"] = (
                await client.request(
                    "POST", "/workers", {"worker_id": "carol", "keywords": ["k4"]}
                )
            )[0]
            results["bogus_completion"] = (
                await client.request(
                    "POST", "/complete", {"worker_id": "carol", "task_id": "t999"}
                )
            )[0]
            return results

        results = with_daemon(check)
        assert results["no_route"] == 404
        assert results["bad_json"] == 400
        assert results["unknown_keyword"] == 400
        status, body = results["reregister_same"]
        assert status == 200
        assert body["already_registered"] is True
        assert body["display"]["pending"]
        assert results["reregister_conflict"] == 409
        assert results["bogus_completion"] == 409

    def test_metrics_exposition_format(self):
        async def check(daemon, client):
            await client.request(
                "POST", "/workers", {"worker_id": "dora", "keywords": ["k5"]}
            )
            return await client.request("GET", "/metrics")

        status, text = with_daemon(check)
        assert status == 200
        assert "# TYPE serve_requests_total counter" in text
        assert "# TYPE serve_request_seconds histogram" in text
        assert "serve_workers_registered_total 1" in text


class TestLoadgenEndToEnd:
    @pytest.mark.slow
    def test_fifty_workers_zero_violations(self):
        """The acceptance run: >= 50 workers through the full workflow."""

        async def scenario():
            daemon = AssignmentDaemon(
                make_pool(4000),
                serve_config(
                    service=ServiceConfig(
                        x_max=5, n_random_pad=2, reassign_after=3,
                        min_pending=1, candidate_cap=300,
                    )
                ),
            )
            await daemon.start()
            try:
                result = await run_loadgen(
                    LoadgenConfig(
                        port=daemon.port, n_workers=50,
                        completions_per_worker=8, seed=1,
                    )
                )
                return result, daemon.registry.snapshot()
            finally:
                await daemon.stop()

        result, metrics = asyncio.run(asyncio.wait_for(scenario(), timeout=120.0))
        assert result.workers_finished == 50
        assert result.completions == 400
        assert result.duplicate_display_violations == 0
        assert result.http_errors == 0 and result.transport_errors == 0
        assert result.reassignments > 0
        assert metrics["serve_disjointness_violations_total"] == 0
        assert metrics["serve_solves_total"] > 0
        assert metrics["serve_solve_batch_size"]["count"] > 0
        assert result.clean

    def test_small_loadgen_is_clean(self):
        async def scenario():
            daemon = AssignmentDaemon(make_pool(400), serve_config())
            await daemon.start()
            try:
                result = await run_loadgen(
                    LoadgenConfig(
                        port=daemon.port, n_workers=6,
                        completions_per_worker=5, seed=2,
                    )
                )
                return result, daemon.registry.snapshot()
            finally:
                await daemon.stop()

        result, metrics = asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
        assert result.clean
        assert result.workers_finished == 6
        assert metrics["serve_disjointness_violations_total"] == 0
        assert metrics["serve_solves_total"] > 0
        # Keep-alive: one connection per worker plus the probe, never one
        # per request.
        assert result.requests > result.connections_opened
        assert result.connections_opened <= result.workers_started + 1


class TestKeepAlive:
    def test_client_reuses_one_connection_across_requests(self):
        async def check(daemon, client):
            for _ in range(5):
                status, _ = await client.request("GET", "/healthz")
                assert status == 200
            return client.connections_opened

        assert with_daemon(check) == 1

    def test_reconnect_after_close_is_counted(self):
        async def check(daemon, client):
            await client.request("GET", "/healthz")
            await client.close()
            await client.request("GET", "/healthz")
            return client.connections_opened

        assert with_daemon(check) == 2


class TestTaskIngestion:
    """POST /tasks: open-world arrivals through the daemon."""

    @staticmethod
    def _spec(task_id, keywords=("k0", "k3"), **extra):
        return {"task_id": task_id, "keywords": list(keywords), **extra}

    def test_batch_admitted_end_to_end(self):
        async def scenario(daemon, client):
            status, body = await client.request(
                "POST",
                "/tasks",
                {"tasks": [self._spec("arr-0"), self._spec("arr-1", ["k5"])]},
            )
            _, health = await client.request("GET", "/healthz")
            return status, body, health, daemon.registry.snapshot()

        status, body, health, metrics = with_daemon(scenario)
        assert status == 200
        assert body["admitted"] == ["arr-0", "arr-1"]
        assert body["remaining_tasks"] == 302
        assert health["remaining_tasks"] == 302
        assert health["admitted_tasks"] == 2
        assert health["cache"]["live_tasks"] == 302
        assert health["cache"]["appends"] == 1
        assert metrics["serve_tasks_admitted_total"] == 2
        assert metrics["serve_task_arrival_batches_total"] == 1
        assert metrics["serve_task_admissions_rejected_total"] == 0

    def test_arrived_task_can_be_served_and_completed(self):
        async def scenario(daemon, client):
            await client.request(
                "POST",
                "/tasks",
                {"tasks": [self._spec(f"arr-{i}") for i in range(4)]},
            )
            status, body = await client.request(
                "POST", "/workers", {"worker_id": "w0", "keywords": ["k0"]}
            )
            assert status == 200
            shown = body["display"]["pending"]
            status, body = await client.request(
                "POST",
                "/complete",
                {"worker_id": "w0", "task_id": shown[0], "completion_key": "w0:1"},
            )
            return status, body

        status, body = with_daemon(scenario, n_tasks=50)
        assert status == 200

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ([1, 2], "JSON object"),
            ({}, "non-empty list"),
            ({"tasks": []}, "non-empty list"),
            ({"tasks": ["nope"]}, "JSON object"),
            ({"tasks": [{"keywords": ["k0"]}]}, "task_id"),
            (
                {
                    "tasks": [
                        {"task_id": "arr-0", "keywords": ["k0"]},
                        {"task_id": "arr-0", "keywords": ["k1"]},
                    ]
                },
                "duplicate",
            ),
            ({"tasks": [{"task_id": "arr-0", "keywords": ["zzz"]}]}, "unknown"),
            ({"tasks": [{"task_id": "arr-0"}]}, "keywords"),
            (
                {"tasks": [{"task_id": "arr-0", "keywords": ["k0"], "group": 3}]},
                "group",
            ),
            (
                {
                    "tasks": [
                        {"task_id": "arr-0", "keywords": ["k0"], "reward": -1}
                    ]
                },
                "reward",
            ),
        ],
    )
    def test_malformed_batches_rejected_400(self, payload, fragment):
        async def scenario(daemon, client):
            status, body = await client.request("POST", "/tasks", payload)
            _, health = await client.request("GET", "/healthz")
            return status, body, health, daemon.registry.snapshot()

        status, body, health, metrics = with_daemon(scenario)
        assert status == 400
        assert fragment in body["error"]
        assert health["remaining_tasks"] == 300  # nothing admitted
        assert metrics["serve_task_admissions_rejected_total"] == 1

    def test_collisions_rejected_409_atomically(self):
        async def scenario(daemon, client):
            # Corpus id: the whole batch (including the fresh task) bounces.
            status1, body1 = await client.request(
                "POST",
                "/tasks",
                {"tasks": [self._spec("fresh-0"), self._spec("t0")]},
            )
            # A displayed task has left the pool; its id still collides.
            _, reg = await client.request(
                "POST", "/workers", {"worker_id": "w0", "keywords": ["k0"]}
            )
            shown = reg["display"]["pending"][0]
            status2, body2 = await client.request(
                "POST", "/tasks", {"tasks": [self._spec(shown)]}
            )
            # Repost of an admitted arrival collides; fresh-0 (atomically
            # rejected above) is still admissible.
            await client.request(
                "POST", "/tasks", {"tasks": [self._spec("arr-0")]}
            )
            status3, body3 = await client.request(
                "POST", "/tasks", {"tasks": [self._spec("arr-0")]}
            )
            status4, _ = await client.request(
                "POST", "/tasks", {"tasks": [self._spec("fresh-0")]}
            )
            return (status1, body1), (status2, body2), (status3, body3), status4

        (s1, b1), (s2, b2), (s3, b3), s4 = with_daemon(scenario)
        assert s1 == 409 and "t0" in b1["error"]
        assert s2 == 409
        assert s3 == 409 and "arr-0" in b3["error"]
        assert s4 == 200


class TestIngestionSnapshotRestart:
    """A snapshot taken after arrivals restores a working open-world pool."""

    def test_restart_preserves_arrivals_and_displays(self, tmp_path):
        store = str(tmp_path / "ingest.db")

        async def record():
            daemon = AssignmentDaemon(
                make_pool(60), serve_config(snapshot_path=store)
            )
            await daemon.start()
            client = HttpClient("127.0.0.1", daemon.port)
            try:
                _, reg = await client.request(
                    "POST", "/workers", {"worker_id": "w0", "keywords": ["k0"]}
                )
                status, _ = await client.request(
                    "POST",
                    "/tasks",
                    {
                        "tasks": [
                            {"task_id": f"arr-{i}", "keywords": ["k1", "k2"]}
                            for i in range(5)
                        ]
                    },
                )
                assert status == 200
                assert daemon.snapshot_now()
                return reg["display"]["pending"], daemon.service.remaining_tasks()
            finally:
                await client.close()
                await daemon.stop()

        async def restart(pending, remaining):
            daemon = AssignmentDaemon(
                make_pool(60), serve_config(snapshot_path=store, restore=True)
            )
            await daemon.start()
            client = HttpClient("127.0.0.1", daemon.port)
            try:
                _, health = await client.request("GET", "/healthz")
                assert health["admitted_tasks"] == 5
                assert health["remaining_tasks"] == remaining
                assert health["cache"]["live_tasks"] == remaining
                for i in range(5):
                    assert f"arr-{i}" in daemon.service.pool_state
                # The worker's display survived with the same pending set.
                assert daemon.service.pending_ids("w0") == pending
                # Restored arrival ids still collide on re-POST.
                status, _ = await client.request(
                    "POST",
                    "/tasks",
                    {"tasks": [{"task_id": "arr-0", "keywords": ["k1"]}]},
                )
                assert status == 409
                # And the restored pool keeps serving (worker can complete).
                status, _ = await client.request(
                    "POST",
                    "/complete",
                    {
                        "worker_id": "w0",
                        "task_id": pending[0],
                        "completion_key": "w0:post-restore",
                    },
                )
                assert status == 200
            finally:
                await client.close()
                await daemon.stop()

        async def scenario():
            pending, remaining = await record()
            await restart(pending, remaining)

        asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))


class TestWriterStampedSnapshot:
    """Version-4 snapshots written by earlier builds carry a writer-id
    stamp (``"shard_id": null``) in the payload; restore ignores it."""

    FIXTURE = Path(__file__).parent / "fixtures" / "snapshot_v4_writer_stamp.json"

    def test_stamped_snapshot_restores(self, tmp_path):
        from repro.serve.app import SNAPSHOT_KIND, SNAPSHOT_SCHEMA_VERSION
        from repro.storage import SnapshotStore

        payload = json.loads(self.FIXTURE.read_text())
        assert payload["shard_id"] is None
        store = str(tmp_path / "stamped.db")
        with SnapshotStore(store, schema_version=SNAPSHOT_SCHEMA_VERSION) as db:
            db.save(SNAPSHOT_KIND, payload)

        async def restart():
            daemon = AssignmentDaemon(
                make_pool(60), serve_config(snapshot_path=store, restore=True)
            )
            await daemon.start()
            client = HttpClient("127.0.0.1", daemon.port)
            try:
                assert daemon.service.snapshot_state() == payload["service"]
                _, health = await client.request("GET", "/healthz")
                assert health["workers"] == 2
                assert health["admitted_tasks"] == 1
                pending = daemon.service.pending_ids("w1")
                status, _ = await client.request(
                    "POST",
                    "/complete",
                    {"worker_id": "w1", "task_id": pending[0]},
                )
                assert status == 200
            finally:
                await client.close()
                await daemon.stop()

        asyncio.run(asyncio.wait_for(restart(), timeout=60.0))
