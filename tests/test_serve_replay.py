"""Record/replay tests: journal schema, bit-identity, and the bug the
recorder exposed (duplicate completion delivery).

The tentpole claims here:

* a journal recorded by a live daemon — healthy or under fault
  injection — replays to *bit-identical* display events and final state
  hash, and a healthy run also replays pinned to the tier it ran on;
* a tampered journal is pinpointed: first divergent seq, offending worker,
  the trace ids that rode that solve;
* schema drift (unknown event type, missing field, seq gap, version bump)
  refuses to load instead of replaying garbage.
"""

import asyncio
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Task, TaskPool, Vocabulary
from repro.crowd.service import ServiceConfig
from repro.serve.app import AssignmentDaemon, ServeConfig
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.serve.protocol import HttpClient
from repro.serve.replay import (
    JOURNAL_VERSION,
    ReplayError,
    ReplayVariant,
    load_journal,
    replay_journal,
)
from repro.serve.resilience import FaultPlan, ResilienceConfig

N_KEYWORDS = 16

#: What ``repro replay J --pin-tier hta-gre`` runs: the in-loop replay plus
#: every solve pinned to the tier a healthy hta-gre daemon never left.
PINNED_PANEL = (
    ReplayVariant(),
    ReplayVariant("pin:hta-gre", pinned_solver="hta-gre"),
)


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


async def drive_session(client, n_workers=4, rounds=8):
    """A deterministic client session: registers, keyed completions, one
    unregister — enough traffic to cross several reassignment solves."""
    pending = {}
    counters = {}
    for i in range(n_workers):
        wid = f"w{i}"
        status, body = await client.request(
            "POST",
            "/workers",
            {
                "worker_id": wid,
                "keywords": [
                    f"k{(2 * i) % N_KEYWORDS}",
                    f"k{(2 * i + 1) % N_KEYWORDS}",
                ],
            },
        )
        assert status == 200, body
        pending[wid] = list(body["display"]["pending"])
        counters[wid] = 0
    for _ in range(rounds):
        for wid in list(pending):
            if not pending[wid]:
                continue
            counters[wid] += 1
            status, body = await client.request(
                "POST",
                "/complete",
                {
                    "worker_id": wid,
                    "task_id": pending[wid][0],
                    "completion_key": f"{wid}:{counters[wid]}",
                },
            )
            assert status == 200, body
            pending[wid] = list(body["display"]["pending"])
    status, _ = await client.request("DELETE", "/workers/w0")
    assert status == 200
    pending.pop("w0", None)


def record_journal(journal_path, n_tasks=300, pool_seed=0, n_workers=4,
                   rounds=8, loadgen=None, **overrides):
    """Run a journaling daemon through one session; returns when closed."""

    async def scenario():
        daemon = AssignmentDaemon(
            make_pool(n_tasks, pool_seed),
            serve_config(journal_path=str(journal_path), **overrides),
        )
        await daemon.start()
        client = HttpClient("127.0.0.1", daemon.port)
        try:
            if loadgen is not None:
                from dataclasses import replace

                result = await run_loadgen(replace(loadgen, port=daemon.port))
            else:
                result = await drive_session(
                    client, n_workers=n_workers, rounds=rounds
                )
        finally:
            await client.close()
            await daemon.stop()
        return daemon, result

    return asyncio.run(asyncio.wait_for(scenario(), timeout=120.0))


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One in-loop recorded run, shared by the read-only tests."""
    journal = tmp_path_factory.mktemp("replay") / "run.jsonl"
    record_journal(journal)
    return journal


@pytest.fixture(scope="module")
def cli_recorded(tmp_path_factory):
    """A journal `repro replay` can run on its own: the CLI rebuilds the
    pool from the header's corpus spec, so this records against a
    crowdflower corpus."""
    from dataclasses import replace

    from repro.data import CrowdFlowerConfig, generate_crowdflower_corpus

    journal = tmp_path_factory.mktemp("cli") / "cli.jsonl"

    async def scenario():
        corpus = generate_crowdflower_corpus(CrowdFlowerConfig(n_tasks=200), rng=0)
        daemon = AssignmentDaemon(
            corpus.pool,
            serve_config(
                journal_path=str(journal),
                corpus_spec={"kind": "crowdflower", "n_tasks": 200, "seed": 0},
            ),
        )
        await daemon.start()
        try:
            config = LoadgenConfig(n_workers=4, completions_per_worker=6, seed=0)
            await run_loadgen(replace(config, port=daemon.port))
        finally:
            await daemon.stop()

    asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
    return journal


def rewrite(journal: Path, out: Path, mutate) -> Path:
    """Copy a journal through a per-record mutation (None drops the line)."""
    lines = []
    for line in journal.read_text().splitlines():
        record = mutate(json.loads(line))
        if record is not None:
            lines.append(json.dumps(record, sort_keys=True))
    out.write_text("\n".join(lines) + "\n")
    return out


class TestJournalSchema:
    def test_loads_and_validates(self, recorded):
        journal = load_journal(recorded)
        assert journal.header["version"] == JOURNAL_VERSION
        assert journal.strategy == "hta-gre"
        types = {event["type"] for event in journal.events}
        assert {"register", "complete", "unregister", "lease", "commit",
                "end"} <= types
        assert [e["seq"] for e in journal.events] == list(
            range(1, len(journal.events) + 1)
        )

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ReplayError, match="empty"):
            load_journal(empty)

    @pytest.mark.parametrize(
        "version", [*range(1, JOURNAL_VERSION), JOURNAL_VERSION + 1]
    )
    def test_version_mismatch_rejected(self, recorded, tmp_path, version):
        def bump(record):
            if record["type"] == "header":
                record["version"] = version
            return record

        with pytest.raises(ReplayError) as err:
            load_journal(rewrite(recorded, tmp_path / "v.jsonl", bump))
        message = str(err.value)
        assert f"journal version {version}" in message
        assert f"this build reads {JOURNAL_VERSION}" in message

    def test_unknown_event_type_is_schema_drift(self, recorded, tmp_path):
        def relabel(record):
            if record["type"] == "complete":
                record["type"] = "completion_v2"
            return record

        with pytest.raises(ReplayError, match="unknown event type"):
            load_journal(rewrite(recorded, tmp_path / "u.jsonl", relabel))

    def test_missing_field_is_schema_drift(self, recorded, tmp_path):
        def strip(record):
            if record["type"] == "lease":
                record.pop("candidates_sha", None)
            return record

        with pytest.raises(ReplayError, match="missing"):
            load_journal(rewrite(recorded, tmp_path / "m.jsonl", strip))

    def test_seq_gap_rejected(self, recorded, tmp_path):
        dropped = []

        def drop_first_complete(record):
            if record["type"] == "complete" and not dropped:
                dropped.append(record["seq"])
                return None
            return record

        with pytest.raises(ReplayError, match="seq"):
            load_journal(
                rewrite(recorded, tmp_path / "g.jsonl", drop_first_complete)
            )
        assert dropped

    def test_header_missing_key_rejected(self, recorded, tmp_path):
        def strip(record):
            if record["type"] == "header":
                record.pop("pool_sha", None)
            return record

        with pytest.raises(ReplayError, match="pool_sha"):
            load_journal(rewrite(recorded, tmp_path / "h.jsonl", strip))


def replay_cli(journal, capsys):
    """``repro replay JOURNAL``: the exit code and stderr, never a traceback."""
    from repro.cli import main

    code = main(["replay", str(journal)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


class TestReplayErrorsNameThePathOnce:
    """``repro replay`` prefixes its error with the journal path once,
    whether loading or replaying fails."""

    def test_load_error(self, cli_recorded, tmp_path, capsys):
        def bump(record):
            if record["type"] == "header":
                record["version"] = JOURNAL_VERSION - 1
            return record

        journal = rewrite(cli_recorded, tmp_path / "old.jsonl", bump)
        code, err = replay_cli(journal, capsys)
        assert code == 2
        assert err == (
            f"cannot replay {journal}: journal version {JOURNAL_VERSION - 1}, "
            f"this build reads {JOURNAL_VERSION}\n"
        )

    def test_replay_error(self, cli_recorded, tmp_path, capsys):
        def repoint(record):
            if record["type"] == "header":
                record["pool_sha"] = "0" * 64
            return record

        journal = rewrite(cli_recorded, tmp_path / "moved.jsonl", repoint)
        code, err = replay_cli(journal, capsys)
        assert code == 2
        assert err.startswith(f"cannot replay {journal}: corpus mismatch")
        assert err.count(str(journal)) == 1


class TestEarlierBuildJournals:
    """Journals recorded by an earlier build (``repro.serve.loadgen
    --spawn-server --workers 6 --completions 10 --tasks 400 --seed 7``, one
    per strategy) replay bit-identically on this one: a refactor that moves
    a tie-break shows here."""

    @pytest.mark.parametrize("strategy", ["hta_gre", "hta_app"])
    def test_fixture_replays(self, strategy, capsys):
        from repro.cli import main

        journal = Path(__file__).parent / "fixtures" / f"journal_v6_{strategy}.jsonl"
        assert main(["replay", str(journal)]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports and all(r["ok"] and r["state_verified"] for r in reports)
        assert reports[0]["solves_committed"] >= 1


class TestParentTierPolicyHeader:
    """Journals recorded by earlier builds carry an ``adaptivity`` block in
    their header: the paper's ``{"estimator": "plain", "bandit": "off"}``,
    and before the tier bandit was removed a ``tier_policy`` too.  Replay
    never read the tier policy (every ``register`` and ``lease`` event
    records its solver), so every such block loads and replays clean."""

    @pytest.mark.parametrize("tier_policy", [None, "streak", "bandit"])
    def test_parent_journal_replays(self, recorded, tmp_path, tier_policy):
        block = {"estimator": "plain", "bandit": "off"}
        if tier_policy is not None:
            block["tier_policy"] = tier_policy

        def stamp(record):
            if record["type"] == "header":
                assert "adaptivity" not in record
                record["adaptivity"] = dict(block)
            return record

        journal = load_journal(
            rewrite(recorded, tmp_path / f"{tier_policy}.jsonl", stamp)
        )
        assert journal.header["adaptivity"] == block
        report = replay_journal(journal, make_pool())
        assert report.ok and report.state_verified, report.to_dict()


class TestRetiredAdaptivityRefused:
    """A journal recorded with the Bayesian estimator or a weight bandit
    cannot be replayed by a build without them: it is refused by name,
    exit 2, before any event is applied."""

    @pytest.mark.parametrize(
        "key, value",
        [("estimator", "bayes"), ("bandit", "thompson"), ("bandit", "ucb")],
    )
    def test_retired_adaptivity_refused(
        self, cli_recorded, tmp_path, capsys, key, value
    ):
        block = {"estimator": "plain", "bandit": "off", key: value}

        def stamp(record):
            if record["type"] == "header":
                record["adaptivity"] = block
            return record

        journal = rewrite(cli_recorded, tmp_path / f"{value}.jsonl", stamp)
        with pytest.raises(ReplayError, match=f"adaptivity.{key} is '{value}'"):
            load_journal(journal)
        code, err = replay_cli(journal, capsys)
        assert code == 2
        assert f"adaptivity.{key} is '{value}'" in err


class TestParentShardIdHeader:
    """Journals recorded by earlier builds carry ``"shard_id": null`` in
    their header.  It lies outside the fingerprinted ``end`` payload, so
    such a journal still loads and replays clean."""

    def test_parent_journal_replays(self, recorded, tmp_path):
        def stamp(record):
            if record["type"] == "header":
                record["shard_id"] = None
            return record

        journal = load_journal(rewrite(recorded, tmp_path / "p.jsonl", stamp))
        assert journal.header["shard_id"] is None
        report = replay_journal(journal, make_pool())
        assert report.ok and report.state_verified, report.to_dict()


class TestShardJournalsRefused:
    """Journals only a sharded topology wrote are refused by name: exit 2,
    the offending key or event in the message, and no traceback."""

    def test_sliced_corpus_spec_refused(self, cli_recorded, tmp_path, capsys):
        def slice_corpus(record):
            if record["type"] == "header":
                record["corpus"]["shard"] = {"index": 0, "count": 2}
            return record

        journal = rewrite(cli_recorded, tmp_path / "slice.jsonl", slice_corpus)
        code, err = replay_cli(journal, capsys)
        assert code == 2
        assert "['shard']" in err

    def test_handoff_event_refused(self, cli_recorded, tmp_path, capsys):
        relabeled = []

        def hand_off(record):
            if record["type"] == "unregister" and not relabeled:
                relabeled.append(record["seq"])
                return {
                    "type": "handoff_out",
                    "seq": record["seq"],
                    "worker_id": record["worker_id"],
                    "state": {},
                }
            return record

        journal = rewrite(cli_recorded, tmp_path / "handoff.jsonl", hand_off)
        assert relabeled
        code, err = replay_cli(journal, capsys)
        assert code == 2
        assert "unknown event type 'handoff_out'" in err

    def test_routing_journal_refused(self, tmp_path, capsys):
        routing = tmp_path / "routing.jsonl"
        lines = [
            {"version": 1, "kind": "routing",
             "ring": {"replicas": 64, "members": ["shard-0", "shard-1"]},
             "shards": [{"index": 0, "host": "127.0.0.1", "port": 8101},
                        {"index": 1, "host": "127.0.0.1", "port": 8102}]},
            {"seq": 1, "type": "route", "op": "register", "worker_id": "w0",
             "shard": 0, "ring_version": 0},
        ]
        routing.write_text("".join(json.dumps(line) + "\n" for line in lines))
        code, err = replay_cli(routing, capsys)
        assert code == 2
        assert "routing.jsonl:1: not a journal record (no 'type' key)" in err


class TestBitIdentity:
    def test_inloop_journal_replays_under_every_variant(self, recorded):
        journal = load_journal(recorded)
        pool = make_pool()
        for variant in PINNED_PANEL:
            report = replay_journal(journal, pool, variant)
            assert report.ok, report.to_dict()
            assert report.state_verified
            assert report.registers == 4
            assert report.solves_committed >= 2
            assert report.displays_checked >= 4
            assert report.disjointness_violations == 0

    def test_differential_panel_agrees(self, recorded):
        journal, pool = load_journal(recorded), make_pool()
        reports = [replay_journal(journal, pool, v) for v in PINNED_PANEL]
        assert [r.variant for r in reports] == ["in-loop", "pin:hta-gre"]
        assert reports[0].to_dict() | {"variant": None} == (
            reports[1].to_dict() | {"variant": None}
        )
        for report in reports:
            assert report.ok and report.state_verified, report.to_dict()

    def test_wrong_pool_refused(self, recorded):
        with pytest.raises(ReplayError, match="corpus mismatch"):
            replay_journal(load_journal(recorded), make_pool(seed=1))

    def test_chaos_recorded_journal_replays_clean(self, tmp_path):
        journal = tmp_path / "chaos.jsonl"
        plan = FaultPlan(
            seed=11,
            drop_connection_p=0.05,
            drop_response_p=0.1,
            solve_fail_p=0.15,
        )
        daemon, result = record_journal(
            journal,
            n_tasks=400,
            fault_plan=plan,
            loadgen=LoadgenConfig(
                n_workers=8, completions_per_worker=10, seed=3, max_retries=8
            ),
        )
        assert result.clean, result.to_dict()
        report = replay_journal(load_journal(journal), make_pool(400))
        assert report.ok and report.state_verified, report.to_dict()

    def test_failed_solves_replay_clean(self, tmp_path):
        """An injected failure hits after prepare, so the journal holds a
        ``lease`` + ``abandon`` pair per failed solve and the pool is left
        as it was; replay re-prepares each one and lands on the same state."""
        journal = tmp_path / "failing.jsonl"
        record_journal(journal, fault_plan=FaultPlan(seed=0, solve_fail_p=1.0))
        events = load_journal(journal).events
        types = [e["type"] for e in events]
        assert "commit" not in types
        assert types.count("abandon") == types.count("lease") > 0
        report = replay_journal(load_journal(journal), make_pool())
        assert report.ok and report.state_verified, report.to_dict()
        assert report.solves_abandoned == types.count("abandon")

    def test_degraded_fixed_weight_registrations_replay_clean(self, tmp_path):
        """Under a fixed-weight strategy a registration is a solve on the
        controller's active tier: workers that arrive after the daemon
        degraded are registered on a cheaper tier, and replay must
        register them on the tier the journal names."""
        journal = tmp_path / "div.jsonl"

        async def scenario():
            daemon = AssignmentDaemon(
                make_pool(),
                serve_config(
                    journal_path=str(journal),
                    strategy="hta-gre-div",
                    # Every solve is over budget, so each one degrades a tier.
                    resilience=ResilienceConfig(
                        solve_budget=1e-9, breach_threshold=1
                    ),
                ),
            )
            await daemon.start()
            client = HttpClient("127.0.0.1", daemon.port)
            try:
                await drive_session(client, n_workers=2, rounds=4)
                for wid in ("late0", "late1"):
                    status, body = await client.request(
                        "POST", "/workers", {"worker_id": wid, "keywords": ["k3"]}
                    )
                    assert status == 200, body
            finally:
                await client.close()
                await daemon.stop()

        asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
        loaded = load_journal(journal)
        tiers = {
            e["worker_id"]: e["solver"]
            for e in loaded.events
            if e["type"] == "register"
        }
        assert tiers["w0"] == "hta-gre-div"
        assert tiers["late0"] != "hta-gre-div"
        report = replay_journal(loaded, make_pool())
        assert report.ok and report.state_verified, report.to_dict()

    def test_tampered_commit_pinpoints_divergence(self, recorded, tmp_path):
        def corrupt(record):
            if record["type"] == "commit" and not corrupt.done:
                worker_id = sorted(record["events"])[0]
                record["events"][worker_id]["task_ids"][0] = "t_bogus"
                corrupt.done = record["seq"]
            return record

        corrupt.done = None
        tampered = rewrite(recorded, tmp_path / "t.jsonl", corrupt)
        report = replay_journal(load_journal(tampered), make_pool())
        assert not report.ok
        assert report.divergence.seq == corrupt.done
        assert report.divergence.event_type == "commit"
        assert report.divergence.field == "task_ids"
        assert report.divergence.worker_id is not None
        assert "t_bogus" in report.divergence.describe()

    def test_tampered_register_pinpoints_divergence(self, recorded, tmp_path):
        def corrupt(record):
            if record["type"] == "register" and corrupt.done is None:
                record["event"]["alpha"] = 0.123456789
                corrupt.done = record["seq"]
            return record

        corrupt.done = None
        tampered = rewrite(recorded, tmp_path / "r.jsonl", corrupt)
        report = replay_journal(load_journal(tampered), make_pool())
        assert not report.ok
        assert report.divergence.seq == corrupt.done
        assert report.divergence.field == "alpha"

    def test_replay_cli_exit_codes(self, cli_recorded, tmp_path):
        from repro.cli import main

        journal = cli_recorded
        assert main(["replay", str(journal)]) == 0
        assert main(["replay", str(journal), "--pin-tier", "hta-gre"]) == 0
        assert main(["replay", str(tmp_path / "nope.jsonl")]) == 2

        def corrupt(record):
            if record["type"] == "commit":
                record["wall_time"] = record["wall_time"] + 1.0
            return record

        tampered = rewrite(journal, tmp_path / "tampered.jsonl", corrupt)
        assert main(["replay", str(tampered)]) == 1


class TestPendingSolve:
    """Every ``commit`` / ``abandon`` settles the one prepared solve the
    preceding ``lease`` opened; anything else is a divergence."""

    @staticmethod
    def first_seq(journal, event_type):
        return next(
            e["seq"] for e in load_journal(journal).events
            if e["type"] == event_type
        )

    def test_commit_with_nothing_pending_diverges(self, recorded, tmp_path):
        lease_seq = self.first_seq(recorded, "lease")

        def drop_lease(record):
            if record.get("seq") == lease_seq:
                return {"type": "tick", "seq": lease_seq}
            return record

        tampered = rewrite(recorded, tmp_path / "c.jsonl", drop_lease)
        report = replay_journal(load_journal(tampered), make_pool())
        assert report.divergence.event_type == "commit"
        assert report.divergence.field == "pending"
        assert report.divergence.seq > lease_seq

    def test_abandon_with_nothing_pending_diverges(self, recorded, tmp_path):
        lease_seq = self.first_seq(recorded, "lease")

        def to_abandon(record):
            if record.get("seq") == lease_seq:
                return {"type": "abandon", "seq": lease_seq}
            return record

        tampered = rewrite(recorded, tmp_path / "a.jsonl", to_abandon)
        report = replay_journal(load_journal(tampered), make_pool())
        assert report.divergence.seq == lease_seq
        assert report.divergence.event_type == "abandon"
        assert report.divergence.field == "pending"

    def test_lease_while_pending_diverges(self, recorded, tmp_path):
        commit_seq = self.first_seq(recorded, "commit")
        leases = [
            e for e in load_journal(recorded).events
            if e["type"] == "lease" and e["seq"] < commit_seq
        ]

        def second_lease(record):
            if record.get("seq") == commit_seq:
                return {**leases[-1], "seq": commit_seq}
            return record

        tampered = rewrite(recorded, tmp_path / "l.jsonl", second_lease)
        report = replay_journal(load_journal(tampered), make_pool())
        assert report.divergence.seq == commit_seq
        assert report.divergence.event_type == "lease"
        assert report.divergence.field == "pending"
        assert report.divergence.replayed == leases[-1]["worker_ids"]


class TestDuplicateCompletion:
    """Regression: a retried ``/complete`` whose original response was lost
    used to 409 (``task ... was already completed``); with a completion key
    the daemon re-delivers the original event instead."""

    @staticmethod
    def with_daemon(coro_fn, n_tasks=300, **overrides):
        async def scenario():
            daemon = AssignmentDaemon(
                make_pool(n_tasks), serve_config(**overrides)
            )
            await daemon.start()
            client = HttpClient("127.0.0.1", daemon.port)
            try:
                return await coro_fn(daemon, client)
            finally:
                await client.close()
                await daemon.stop()

        return asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))

    def test_keyed_retry_returns_original_event(self):
        async def check(daemon, client):
            _, body = await client.request(
                "POST", "/workers", {"worker_id": "a", "keywords": ["k1"]}
            )
            task_id = body["display"]["pending"][0]
            payload = {
                "worker_id": "a", "task_id": task_id, "completion_key": "a:1",
            }
            first = await client.request("POST", "/complete", payload)
            second = await client.request("POST", "/complete", payload)
            return daemon, first, second

        daemon, (s1, b1), (s2, b2) = self.with_daemon(check)
        assert s1 == 200 and "deduplicated" not in b1
        assert s2 == 200 and b2["deduplicated"] is True
        assert b2["completed"] == b1["completed"]
        assert b2["display"] == b1["display"]
        assert daemon.registry.get(
            "serve_deduplicated_completions_total"
        ).value == 1

    def test_cache_scoped_to_registration_epoch(self):
        """A worker that unregisters and registers afresh starts a new
        registration epoch: reusing an old completion key must perform a
        real completion, not replay the previous epoch's cached event."""

        async def check(daemon, client):
            _, body = await client.request(
                "POST", "/workers", {"worker_id": "a", "keywords": ["k1"]}
            )
            first_task = body["display"]["pending"][0]
            payload = {
                "worker_id": "a", "task_id": first_task, "completion_key": "a:0",
            }
            _, first = await client.request("POST", "/complete", payload)
            await client.request("DELETE", "/workers/a")
            _, rebody = await client.request(
                "POST", "/workers", {"worker_id": "a", "keywords": ["k1"]}
            )
            next_task = rebody["display"]["pending"][0]
            status, second = await client.request(
                "POST",
                "/complete",
                {"worker_id": "a", "task_id": next_task, "completion_key": "a:0"},
            )
            return daemon, first, status, second

        daemon, first, status, second = self.with_daemon(check)
        assert status == 200
        assert "deduplicated" not in second
        assert second["completed"] != first["completed"]
        assert daemon.registry.get(
            "serve_deduplicated_completions_total"
        ).value == 0

    def test_unkeyed_duplicate_still_conflicts(self):
        async def check(daemon, client):
            _, body = await client.request(
                "POST", "/workers", {"worker_id": "a", "keywords": ["k1"]}
            )
            task_id = body["display"]["pending"][0]
            payload = {"worker_id": "a", "task_id": task_id}
            first = await client.request("POST", "/complete", payload)
            second = await client.request("POST", "/complete", payload)
            return first[0], second
        s1, (s2, b2) = self.with_daemon(check)
        assert s1 == 200
        assert s2 == 409
        assert "already completed" in b2["error"]

    def test_lost_responses_absorbed_under_chaos(self):
        """The end-to-end regression: lost acks force retransmissions, and
        the run must stay clean — no 409s, no duplicate displays."""

        async def check(daemon, client):
            from dataclasses import replace

            config = LoadgenConfig(
                n_workers=8, completions_per_worker=10, seed=5, max_retries=8
            )
            return daemon, await run_loadgen(replace(config, port=daemon.port))

        daemon, result = self.with_daemon(
            check,
            n_tasks=400,
            fault_plan=FaultPlan(seed=13, drop_response_p=0.25),
        )
        assert result.clean, result.to_dict()
        assert result.http_errors == 0
        dropped = daemon.registry.get(
            "serve_fault_dropped_responses_total"
        ).value
        deduplicated = daemon.registry.get(
            "serve_deduplicated_completions_total"
        ).value
        assert dropped > 0
        assert deduplicated > 0
        # No exact relation holds: a dedup response can itself be dropped
        # (daemon counts it, the client never sees it), and the client-side
        # counter also includes absorbed re-registrations.
        assert result.deduplicated_responses > 0


class TestReplayProperty:
    """Any recorded journal replays bit-identically under every variant."""

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_workers=st.integers(2, 5),
        rounds=st.integers(3, 8),
        max_batch_size=st.integers(1, 8),
        fault=st.sampled_from(
            [None, (0.1, 0.0), (0.0, 0.2), (0.15, 0.15)]
        ),
    )
    def test_recorded_journal_replays_bit_identically(
        self, seed, n_workers, rounds, max_batch_size, fault
    ):
        plan = None
        if fault is not None:
            drop_response_p, solve_fail_p = fault
            plan = FaultPlan(
                seed=seed,
                drop_response_p=drop_response_p,
                solve_fail_p=solve_fail_p,
            )
        with tempfile.TemporaryDirectory() as tmp:
            journal_path = Path(tmp) / "prop.jsonl"
            record_journal(
                journal_path,
                n_tasks=200,
                n_workers=n_workers,
                rounds=rounds,
                seed=seed,
                max_batch_size=max_batch_size,
                fault_plan=plan,
                loadgen=LoadgenConfig(
                    n_workers=n_workers,
                    completions_per_worker=rounds,
                    seed=seed,
                    max_retries=8,
                ),
            )
            report = replay_journal(load_journal(journal_path), make_pool(200))
            assert report.ok, report.to_dict()
            assert report.state_verified


@pytest.fixture(scope="module")
def arrival_recorded(tmp_path_factory):
    """A journaled run with burst arrivals flowing through POST /tasks."""
    journal = tmp_path_factory.mktemp("arrivals") / "arrivals.jsonl"
    record_journal(
        journal,
        n_tasks=200,
        loadgen=LoadgenConfig(
            n_workers=4,
            completions_per_worker=6,
            seed=5,
            arrival_pattern="burst",
            arrival_tasks=12,
            arrival_batch=4,
            arrival_interval=0.0,
        ),
    )
    return journal


class TestArrivalReplay:
    """Open-world journals: arrivals recorded at ingress replay exactly."""

    def test_journal_carries_arrival_events(self, arrival_recorded):
        journal = load_journal(arrival_recorded)
        arrivals = [e for e in journal.events if e["type"] == "task_arrival"]
        assert len(arrivals) == 3  # 12 tasks in batches of 4
        posted = [
            spec["task_id"] for event in arrivals for spec in event["tasks"]
        ]
        assert posted == [f"arr-{i}" for i in range(12)]

    def test_differential_panel_agrees_with_arrivals(self, arrival_recorded):
        journal, pool = load_journal(arrival_recorded), make_pool(200)
        for variant in PINNED_PANEL:
            report = replay_journal(journal, pool, variant)
            assert report.ok and report.state_verified, report.to_dict()
            assert report.arrivals == 3

    def test_tampered_arrival_pinpointed_by_seq(
        self, arrival_recorded, tmp_path
    ):
        """Renaming an arrival onto a corpus id must fail *at that event*."""

        def corrupt(record):
            if record["type"] == "task_arrival" and corrupt.seq is None:
                record["tasks"][0]["task_id"] = "t0"
                corrupt.seq = record["seq"]
            return record

        corrupt.seq = None
        tampered = rewrite(arrival_recorded, tmp_path / "ta.jsonl", corrupt)
        assert corrupt.seq is not None
        report = replay_journal(load_journal(tampered), make_pool(200))
        assert not report.ok
        assert report.divergence.seq == corrupt.seq
        assert report.divergence.event_type == "task_arrival"
        assert report.divergence.field == "admission"

    @settings(max_examples=3, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        pattern=st.sampled_from(["trickle", "burst", "spike"]),
        chaos=st.booleans(),
    )
    def test_arrival_journal_replays_bit_identically(
        self, seed, pattern, chaos
    ):
        """Any arrival pattern — healthy or under response-drop/solve-fail
        chaos — records a journal that replays bit-identically."""
        plan = (
            FaultPlan(seed=seed, drop_response_p=0.1, solve_fail_p=0.1)
            if chaos
            else None
        )
        with tempfile.TemporaryDirectory() as tmp:
            journal_path = Path(tmp) / "arr-prop.jsonl"
            record_journal(
                journal_path,
                n_tasks=200,
                seed=seed,
                fault_plan=plan,
                loadgen=LoadgenConfig(
                    n_workers=3,
                    completions_per_worker=5,
                    seed=seed,
                    max_retries=8,
                    arrival_pattern=pattern,
                    arrival_tasks=8,
                    arrival_batch=3,
                    arrival_interval=0.0,
                ),
            )
            journal = load_journal(journal_path)
            assert any(
                e["type"] == "task_arrival" for e in journal.events
            )
            report = replay_journal(journal, make_pool(200))
            assert report.ok, report.to_dict()
            assert report.state_verified
            assert report.arrivals >= 1


class TestDefaultVariants:
    """The variants `repro replay` runs: the in-loop replay, plus one
    pinned tier when ``--pin-tier`` names a solver."""

    def test_panel_composition(self, cli_recorded, capsys):
        from repro.cli import main

        assert main(["replay", str(cli_recorded)]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["variant"] for r in reports] == ["in-loop"]
        # A pinned tier's divergence is a diagnostic: the exit code stays 0.
        pinned = ["replay", str(cli_recorded), "--pin-tier", "hta-gre-rel"]
        assert main(pinned) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["variant"] for r in reports] == ["in-loop", "pin:hta-gre-rel"]
        assert reports[0]["ok"] and reports[0]["state_verified"]

    def test_unknown_pin_tier_is_a_usage_error(self, cli_recorded, capsys):
        """An unknown solver is refused while parsing arguments, before any
        replay runs, instead of surfacing as a traceback mid-replay."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["replay", str(cli_recorded), "--pin-tier", "nonsense"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'nonsense'" in captured.err
