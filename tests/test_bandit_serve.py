"""Daemon-level adaptivity tests: the repaired estimator seam end to end.

The regression at the heart of PR 10: booting the daemon with
``--estimator bayes`` worked until the first snapshot, which crashed on
the estimator's missing ``state_dict`` half of the contract.  These tests
boot real daemons over sockets and prove

* the default configuration exposes no bandit surface and keeps the
  paper's mean path;
* a Bayesian daemon snapshots and restores with a bit-identical
  estimator;
* a journal recorded under ``bayes + thompson`` replays bit-identically
  (the Thompson draw stream reconstructs from the journal header alone).
"""

import asyncio

import numpy as np
import pytest

from repro.core import Task, TaskPool, Vocabulary
from repro.crowd.service import ServiceConfig
from repro.serve.app import AssignmentDaemon, ServeConfig
from repro.serve.protocol import HttpClient
from repro.serve.replay import load_journal, replay_journal

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

    return asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))


async def drive(client, n_workers=3, rounds=5):
    """Register workers and run keyed completions across several solves."""
    pending = {}
    counter = 0
    for i in range(n_workers):
        wid = f"w{i}"
        status, body = await client.request(
            "POST",
            "/workers",
            {
                "worker_id": wid,
                "keywords": [
                    f"k{(2 * i) % N_KEYWORDS}", f"k{(2 * i + 1) % N_KEYWORDS}"
                ],
            },
        )
        assert status == 200, body
        pending[wid] = list(body["display"]["pending"])
    for _ in range(rounds):
        for wid in pending:
            if not pending[wid]:
                continue
            counter += 1
            status, body = await client.request(
                "POST",
                "/complete",
                {
                    "worker_id": wid,
                    "task_id": pending[wid][0],
                    "completion_key": f"{wid}:{counter}",
                },
            )
            assert status == 200, body
            pending[wid] = list(body["display"]["pending"])
    return pending


class TestDefaultsExposeNoBanditSurface:
    def test_default_daemon_is_the_paper_path(self):
        async def check(daemon, client):
            assert daemon.service.weight_policy is None
            _, health = await client.request("GET", "/healthz")
            _, metrics = await client.request("GET", "/metrics")
            return health, metrics

        health, metrics = with_daemon(check)
        assert health["adaptivity"]["estimator"] == "plain"
        assert health["adaptivity"]["bandit"] == {"policy": "off", "draws": 0}
        assert "serve_bandit" not in metrics

    def test_bandit_daemon_reports_draws(self):
        async def check(daemon, client):
            await drive(client)
            _, health = await client.request("GET", "/healthz")
            _, metrics = await client.request("GET", "/metrics")
            return health, metrics

        health, metrics = with_daemon(check, estimator="bayes", bandit="thompson")
        adaptivity = health["adaptivity"]
        assert adaptivity["estimator"] == "bayes"
        assert adaptivity["bandit"]["policy"] == "thompson"
        assert adaptivity["bandit"]["draws"] > 0
        assert "serve_bandit_weight_draws" in metrics


class TestBayesianSnapshotRestore:
    """Satellite 1: the estimator-swap crash, pinned as a regression test."""

    def test_snapshot_restore_is_bit_identical(self, tmp_path):
        store = str(tmp_path / "bayes.db")

        async def record():
            daemon = AssignmentDaemon(
                make_pool(200),
                serve_config(snapshot_path=store, estimator="bayes"),
            )
            await daemon.start()
            client = HttpClient("127.0.0.1", daemon.port)
            try:
                await drive(client)
                estimator = daemon.service.estimator
                # The session generated real posterior evidence.
                assert any(
                    estimator.observation_count(f"w{i}") > 0 for i in range(3)
                )
                # The crash under repair: snapshotting a Bayesian daemon.
                assert daemon.snapshot_now()
                return (
                    estimator.state_dict(),
                    daemon.service.snapshot_state(),
                )
            finally:
                await client.close()
                await daemon.stop()

        async def restart(state, service_state):
            daemon = AssignmentDaemon(
                make_pool(200),
                serve_config(
                    snapshot_path=store, restore=True, estimator="bayes"
                ),
            )
            await daemon.start()
            client = HttpClient("127.0.0.1", daemon.port)
            try:
                assert daemon.service.estimator.state_dict() == state
                assert daemon.service.snapshot_state() == service_state
                # The restored posterior keeps estimating (not just loading).
                _, body = await client.request("GET", "/display/w0")
                assert body["display"]["pending"]
            finally:
                await client.close()
                await daemon.stop()

        async def scenario():
            state, service_state = await record()
            await restart(state, service_state)

        asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))


class TestBanditJournalReplay:
    """A bayes+thompson journal carries its adaptivity config and replays."""

    def test_thompson_journal_replays_bit_identically(self, tmp_path):
        journal_path = tmp_path / "thompson.jsonl"

        async def scenario():
            daemon = AssignmentDaemon(
                make_pool(200),
                serve_config(
                    journal_path=str(journal_path),
                    estimator="bayes",
                    bandit="thompson",
                ),
            )
            await daemon.start()
            client = HttpClient("127.0.0.1", daemon.port)
            try:
                await drive(client)
            finally:
                await client.close()
                await daemon.stop()

        asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))

        journal = load_journal(journal_path)
        assert journal.adaptivity() == {
            "estimator": "bayes",
            "bandit": "thompson",
        }
        report = replay_journal(journal, make_pool(200))
        assert report.ok, report.divergence
        assert report.state_verified

    def test_legacy_journal_defaults_to_the_paper_config(self, tmp_path):
        journal_path = tmp_path / "plain.jsonl"

        async def scenario():
            daemon = AssignmentDaemon(
                make_pool(200),
                serve_config(journal_path=str(journal_path)),
            )
            await daemon.start()
            client = HttpClient("127.0.0.1", daemon.port)
            try:
                await drive(client, n_workers=2, rounds=3)
            finally:
                await client.close()
                await daemon.stop()

        asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))

        journal = load_journal(journal_path)
        # Journals written before the adaptivity header (and any journal
        # whose header is stripped of it) replay under the paper defaults.
        journal.header.pop("adaptivity", None)
        assert journal.adaptivity() == {
            "estimator": "plain",
            "bandit": "off",
        }
