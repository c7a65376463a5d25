"""Daemon integration for the quality subsystem over real sockets.

What the unit tests (test_quality.py) cannot cover: the HTTP protocol
never reveals which displayed ids are gold, snapshots carry reputation
state across a restart (schema v2), a v1 snapshot is refused instead of
silently misread, and a journal recorded with quality active replays
bit-identically.
"""

import asyncio
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import Task, TaskPool, Vocabulary
from repro.crowd.service import ServiceConfig
from repro.quality import AdjudicationConfig, GoldConfig, QualityConfig
from repro.serve.app import SNAPSHOT_SCHEMA_VERSION, AssignmentDaemon, ServeConfig
from repro.serve.protocol import HttpClient
from repro.serve.replay import (
    load_journal,
    pool_from_corpus_spec,
    replay_journal,
)
from repro.storage import SnapshotStore, StorageError

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


def quality_config(rate=1.0, redundancy=1, **gold_overrides):
    return QualityConfig(
        gold=GoldConfig(rate=rate, seed=3, n_labels=4, **gold_overrides),
        adjudication=AdjudicationConfig(redundancy=redundancy),
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
    async def scenario():
        daemon = AssignmentDaemon(
            make_pool(n_tasks), serve_config(**config_overrides)
        )
        await daemon.start()
        client = HttpClient("127.0.0.1", daemon.port)
        try:
            return await coro_fn(daemon, client)
        finally:
            await client.close()
            await daemon.stop()

    return asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))


class TestQualityEndpoint:
    def test_inactive_daemon_reports_inactive(self):
        async def check(daemon, client):
            return await client.request("GET", "/quality")

        status, body = with_daemon(check)
        assert status == 200
        assert body == {"active": False}

    def test_active_daemon_reports_summary(self):
        async def check(daemon, client):
            await client.request(
                "POST", "/workers", {"worker_id": "w", "keywords": ["k1"]}
            )
            return await client.request("GET", "/quality")

        status, body = with_daemon(check, quality=quality_config())
        assert status == 200
        assert body["active"] is True
        assert body["gold"]["outstanding"] == 1  # rate 1.0: probe on display
        assert body["reputation"]["tracked"] == 0  # no answers yet


class TestGoldOverHttp:
    def test_probe_is_protocol_invisible(self):
        """The alias rides the display like any task; the completion
        response never reveals it was gold."""

        async def check(daemon, client):
            _, body = await client.request(
                "POST", "/workers", {"worker_id": "w", "keywords": ["k1", "k2"]}
            )
            display = body["display"]
            aliases = [t for t in display["pending"] if t.startswith("gold-")]
            assert len(aliases) == 1
            alias = aliases[0]
            # The alias renders with keywords, like every displayed task.
            rendered = [
                t for t in display["tasks"] if t["task_id"] == alias
            ]
            assert len(rendered) == 1 and rendered[0]["keywords"]
            status, resp = await client.request(
                "POST",
                "/complete",
                {"worker_id": "w", "task_id": alias, "answer": 1},
            )
            assert status == 200
            assert resp["completed"] == alias
            # Same response shape as a real completion: no scoring fields.
            assert "correct" not in resp
            assert "kind" not in resp
            assert "truth" not in json.dumps(resp)
            # Scored: the tracker now knows this worker.
            _, quality = await client.request("GET", "/quality")
            assert quality["reputation"]["tracked"] == 1
            # A second completion of the same alias is a conflict, exactly
            # like re-completing a real task.
            status, resp = await client.request(
                "POST",
                "/complete",
                {"worker_id": "w", "task_id": alias, "answer": 1},
            )
            return status

        assert with_daemon(check, quality=quality_config()) == 409

    def test_unknown_alias_conflicts(self):
        async def check(daemon, client):
            await client.request(
                "POST", "/workers", {"worker_id": "w", "keywords": ["k1"]}
            )
            status, _ = await client.request(
                "POST",
                "/complete",
                {"worker_id": "w", "task_id": "gold-0000000000000000",
                 "answer": 0},
            )
            return status

        assert with_daemon(check, quality=quality_config()) == 409

    def test_boolean_answer_rejected(self):
        async def check(daemon, client):
            _, body = await client.request(
                "POST", "/workers", {"worker_id": "w", "keywords": ["k1"]}
            )
            task_id = body["display"]["pending"][0]
            status, _ = await client.request(
                "POST",
                "/complete",
                {"worker_id": "w", "task_id": task_id, "answer": True},
            )
            return status

        assert with_daemon(check, quality=quality_config()) == 400

    def test_gold_metrics_exposed(self):
        async def check(daemon, client):
            _, body = await client.request(
                "POST", "/workers", {"worker_id": "w", "keywords": ["k1"]}
            )
            alias = [
                t for t in body["display"]["pending"] if t.startswith("gold-")
            ][0]
            await client.request(
                "POST",
                "/complete",
                {"worker_id": "w", "task_id": alias, "answer": 2},
            )
            return await client.request("GET", "/metrics")

        status, text = with_daemon(check, quality=quality_config())
        assert status == 200
        assert "quality_gold_served_total 1" in text
        assert 'quality_gold_outcomes_total{outcome="' in text


class TestSnapshotV2:
    def test_quality_state_survives_restart(self, tmp_path):
        db = tmp_path / "snap.db"
        pool = make_pool(250, seed=5)
        config = dict(
            quality=quality_config(),
            snapshot_path=str(db),
            seed=5,
        )

        async def drive():
            daemon = AssignmentDaemon(pool, serve_config(**config))
            await daemon.start()
            client = HttpClient("127.0.0.1", daemon.port)
            try:
                _, body = await client.request(
                    "POST", "/workers", {"worker_id": "w", "keywords": ["k1"]}
                )
                alias = [
                    t for t in body["display"]["pending"]
                    if t.startswith("gold-")
                ][0]
                await client.request(
                    "POST",
                    "/complete",
                    {"worker_id": "w", "task_id": alias, "answer": 0},
                )
                assert daemon.snapshot_now()
                return daemon.quality.quality_payload()
            finally:
                await client.close()
                await daemon.stop()

        async def restore():
            daemon = AssignmentDaemon(
                pool, serve_config(restore=True, **config)
            )
            await daemon.start()
            try:
                return daemon.quality.quality_payload()
            finally:
                await daemon.stop()

        before = asyncio.run(asyncio.wait_for(drive(), timeout=30.0))
        after = asyncio.run(asyncio.wait_for(restore(), timeout=30.0))
        assert before["reputation"]["tracked"] == 1
        assert after["reputation"] == before["reputation"]
        assert after["gold"]["served_total"] == before["gold"]["served_total"]

    def test_daemon_store_uses_current_schema_version(self, tmp_path):
        db = tmp_path / "snap.db"

        async def drive():
            daemon = AssignmentDaemon(
                make_pool(250), serve_config(snapshot_path=str(db))
            )
            await daemon.start()
            try:
                assert daemon.snapshot_now()
            finally:
                await daemon.stop()

        asyncio.run(asyncio.wait_for(drive(), timeout=30.0))
        # A store opened at an older schema refuses the daemon's snapshot.
        old_store = SnapshotStore(db, schema_version=1)
        assert SNAPSHOT_SCHEMA_VERSION != 1
        with pytest.raises(StorageError, match="schema version"):
            old_store.latest_record("serve")
        old_store.close()

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_snapshot_refused_on_restore(self, tmp_path, version):
        """A daemon pointed at an older-layout snapshot store (v1 before
        quality, v2 before arrivals, v3 before the writer-id stamp) fails
        loudly at restore instead of misreading the payload."""
        db = tmp_path / "snap.db"
        old = SnapshotStore(db, schema_version=version)
        old.save("serve", {"service": {}, "displayed_ever": []})
        old.close()

        async def restore():
            daemon = AssignmentDaemon(
                make_pool(250),
                serve_config(snapshot_path=str(db), restore=True),
            )
            await daemon.start()
            await daemon.stop()

        with pytest.raises(StorageError, match=f"schema version {version}"):
            asyncio.run(asyncio.wait_for(restore(), timeout=30.0))


class TestQualityReplay:
    def _record(self, tmp_path, quality):
        journal_path = tmp_path / "journal.jsonl"

        async def drive():
            daemon = AssignmentDaemon(
                make_pool(300),
                serve_config(
                    journal_path=str(journal_path), quality=quality
                ),
            )
            await daemon.start()
            client = HttpClient("127.0.0.1", daemon.port)
            try:
                pending = {}
                for i, worker_id in enumerate(("ann", "ben", "cas")):
                    _, body = await client.request(
                        "POST", "/workers",
                        {"worker_id": worker_id,
                         "keywords": [f"k{i}", f"k{i + 4}"]},
                    )
                    pending[worker_id] = list(body["display"]["pending"])
                for worker_id in ("ann", "ben", "cas"):
                    for _ in range(4):
                        task_id = pending[worker_id][0]
                        status, body = await client.request(
                            "POST", "/complete",
                            {"worker_id": worker_id, "task_id": task_id,
                             "answer": 1},
                        )
                        assert status == 200
                        pending[worker_id] = list(body["display"]["pending"])
                await asyncio.sleep(0.3)  # let reassignment solves commit
            finally:
                await client.close()
                await daemon.stop()

        asyncio.run(asyncio.wait_for(drive(), timeout=30.0))
        return journal_path

    def test_quality_journal_replays_bit_identically(self, tmp_path):
        journal_path = self._record(
            tmp_path, quality_config(rate=0.5, redundancy=2)
        )
        journal = load_journal(journal_path)
        assert journal.quality_config() is not None
        assert any(e["type"] == "probe" for e in journal.events)
        report = replay_journal(journal, make_pool(300))
        assert report.ok, report.divergence
        assert report.state_verified

    def test_quality_free_journal_stays_quality_free(self, tmp_path):
        journal_path = self._record(tmp_path, None)
        journal = load_journal(journal_path)
        assert journal.quality_config() is None
        assert all(
            e["type"] not in ("probe", "tick") for e in journal.events
        )
        report = replay_journal(journal, make_pool(300))
        assert report.ok, report.divergence
        assert report.state_verified


SHARED_JOURNAL_ENV = "REPRO_QUALITY_JOURNAL"


def record_seeded_quality_journal(path, workers=8, completions=8,
                                  tasks=400, seed=11):
    """The canonical seeded quality scenario: spammers + gold + redundancy.

    CI's quality-smoke job records the same scenario (larger) once with the
    loadgen CLI and exports it via ``REPRO_QUALITY_JOURNAL`` so this suite
    replays that journal instead of regenerating its own.
    """
    from repro.serve.loadgen import LoadgenConfig, run_self_contained

    config = LoadgenConfig(
        n_workers=workers,
        completions_per_worker=completions,
        seed=seed,
        max_retries=8,
        answer_labels=4,
        quality_seed=0,
        spammer_fraction=0.3,
    )
    serve = ServeConfig(
        strategy="hta-gre",
        seed=seed,
        journal_path=str(path),
        quality=QualityConfig(
            gold=GoldConfig(rate=0.6, seed=0, n_labels=4),
            adjudication=AdjudicationConfig(redundancy=3),
        ),
    )
    result, _ = asyncio.run(
        run_self_contained(config, n_tasks=tasks, serve_config=serve)
    )
    assert result.clean, result.to_dict()


@pytest.fixture(scope="module")
def seeded_quality_journal(tmp_path_factory):
    """Shared seeded-journal fixture: env-pointed in CI, recorded locally."""
    env = os.environ.get(SHARED_JOURNAL_ENV)
    if env:
        path = Path(env)
        if not path.exists():
            pytest.fail(
                f"{SHARED_JOURNAL_ENV} points at a missing journal: {path}"
            )
        return path
    path = tmp_path_factory.mktemp("shared") / "quality.jsonl"
    record_seeded_quality_journal(path)
    return path


class TestSharedSeededJournal:
    """The seeded quality journal — wherever it was recorded — replays
    bit-identically."""

    def test_shared_journal_replays_differentially(
        self, seeded_quality_journal
    ):
        journal = load_journal(seeded_quality_journal)
        assert journal.quality_config() is not None
        assert any(e["type"] == "probe" for e in journal.events)
        pool = pool_from_corpus_spec(journal.corpus_spec)
        report = replay_journal(journal, pool)
        assert report.ok and report.state_verified, report.to_dict()
