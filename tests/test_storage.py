"""Experiment-store (SQLite) tests."""

import pytest

from repro.storage import ResultsStore, SnapshotRecord, SnapshotStore, StorageError


@pytest.fixture
def store():
    with ResultsStore(":memory:") as s:
        yield s


class TestRuns:
    def test_start_and_fetch(self, store):
        run_id = store.start_run("fig2a", {"sweep": [300, 500]})
        record = store.run(run_id)
        assert record.kind == "fig2a"
        assert record.config == {"sweep": [300, 500]}

    def test_empty_kind_rejected(self, store):
        with pytest.raises(StorageError, match="kind"):
            store.start_run("")

    def test_runs_newest_first(self, store):
        a = store.start_run("fig2a", started_at=1.0)
        b = store.start_run("fig2a", started_at=2.0)
        listed = store.runs("fig2a")
        assert [r.run_id for r in listed] == [b, a]

    def test_runs_filter_by_kind(self, store):
        store.start_run("fig2a")
        store.start_run("fig3")
        assert len(store.runs("fig3")) == 1
        assert len(store.runs()) == 2

    def test_latest_run(self, store):
        assert store.latest_run("fig2a") is None
        store.start_run("fig2a", started_at=1.0)
        newest = store.start_run("fig2a", started_at=9.0)
        assert store.latest_run("fig2a").run_id == newest

    def test_unknown_run_rejected(self, store):
        with pytest.raises(StorageError, match="no run"):
            store.run(999)


class TestPoints:
    def test_add_and_read_points(self, store):
        run_id = store.start_run("fig2a")
        store.add_point(run_id, "hta-gre@300", {"total_s": 0.05, "objective": 131.4})
        store.add_point(run_id, "hta-app@300", {"total_s": 1.06})
        points = store.points_of(run_id)
        assert [p.label for p in points] == ["hta-gre@300", "hta-app@300"]
        assert points[0].metrics["objective"] == 131.4

    def test_bulk_add(self, store):
        run_id = store.start_run("fig3")
        written = store.add_points(
            run_id, [("a", {"x": 1}), ("b", {"x": 2}), ("c", {"x": 3})]
        )
        assert written == 3
        assert len(store.points_of(run_id)) == 3

    def test_point_for_unknown_run_rejected(self, store):
        with pytest.raises(StorageError, match="no run"):
            store.add_point(42, "x", {})

    def test_non_serializable_metrics_rejected(self, store):
        run_id = store.start_run("fig2a")
        with pytest.raises(StorageError, match="JSON"):
            store.add_point(run_id, "x", {"bad": object()})


class TestDeletion:
    def test_delete_cascades_points(self, store):
        run_id = store.start_run("fig2a")
        store.add_point(run_id, "x", {"v": 1})
        store.delete_run(run_id)
        with pytest.raises(StorageError):
            store.points_of(run_id)
        assert store.runs() == []


class TestHistory:
    def test_metric_history_across_runs(self, store):
        for i, value in enumerate([0.05, 0.06, 0.04]):
            run_id = store.start_run("fig2a", started_at=float(i))
            store.add_point(run_id, "hta-gre@800", {"total_s": value})
        history = store.metric_history("fig2a", "hta-gre@800", "total_s")
        assert history == [0.05, 0.06, 0.04]

    def test_history_skips_missing_metric(self, store):
        run_id = store.start_run("fig2a", started_at=0.0)
        store.add_point(run_id, "x", {"other": 1.0})
        assert store.metric_history("fig2a", "x", "total_s") == []


class TestPersistence:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "results.db"
        with ResultsStore(path) as store:
            run_id = store.start_run("fig5a", {"seed": 7})
            store.add_point(run_id, "hta-gre", {"accuracy_pct": 81.0})
        with ResultsStore(path) as store:
            record = store.latest_run("fig5a")
            assert record is not None
            points = store.points_of(record.run_id)
            assert points[0].metrics["accuracy_pct"] == 81.0

    def test_integration_with_offline_sweep(self, tmp_path):
        from repro.experiments import sweep_tasks

        points = sweep_tasks((40,), 20, 3, 3, n_repeats=1, rng=0)
        with ResultsStore(tmp_path / "r.db") as store:
            run_id = store.start_run("fig2a", {"task_sweep": [40]})
            store.add_points(
                run_id,
                (
                    (
                        f"{p.solver}@{p.n_tasks}",
                        {"total_s": p.total_time, "objective": p.objective},
                    )
                    for p in points
                ),
            )
            stored = store.points_of(run_id)
            assert len(stored) == 2
            assert stored[0].metrics["total_s"] > 0


class TestSnapshotStoreRecords:
    def test_latest_record_carries_identity(self):
        with SnapshotStore(":memory:") as store:
            first = store.save("daemon", {"n": 1}, taken_at=10.0)
            second = store.save("daemon", {"n": 2}, taken_at=20.0)
            record = store.latest_record("daemon")
            assert isinstance(record, SnapshotRecord)
            assert record.snapshot_id == second > first
            assert record.kind == "daemon"
            assert record.taken_at == 20.0
            assert record.state == {"n": 2}
            # latest() stays the blob-only view of the same record.
            assert store.latest("daemon") == {"n": 2}

    def test_latest_record_none_for_unknown_kind(self):
        with SnapshotStore(":memory:") as store:
            assert store.latest_record("nope") is None
            assert store.latest("nope") is None


class TestSnapshotSchemaVersion:
    def test_version_recorded_and_matching_reads_fine(self, tmp_path):
        db = tmp_path / "s.db"
        with SnapshotStore(db, schema_version=2) as store:
            store.save("daemon", {"n": 1})
            record = store.latest_record("daemon")
            assert record.schema_version == 2

    def test_mismatched_version_refused_with_clear_error(self, tmp_path):
        db = tmp_path / "s.db"
        with SnapshotStore(db, schema_version=2) as writer:
            writer.save("daemon", {"n": 1})
        with SnapshotStore(db, schema_version=1) as reader:
            with pytest.raises(StorageError) as err:
                reader.latest_record("daemon")
        message = str(err.value)
        assert "schema version 2" in message
        assert "version 1" in message
        assert "refusing" in message

    def test_legacy_db_without_version_column_migrates(self, tmp_path):
        """A pre-versioning database opens cleanly: the column is added and
        existing rows read back as version 1."""
        import sqlite3

        db = tmp_path / "legacy.db"
        conn = sqlite3.connect(db)
        conn.execute(
            "CREATE TABLE snapshots (snapshot_id INTEGER PRIMARY KEY "
            "AUTOINCREMENT, kind TEXT NOT NULL, taken_at REAL NOT NULL, "
            "state_json TEXT NOT NULL)"
        )
        conn.execute(
            "INSERT INTO snapshots (kind, taken_at, state_json) "
            "VALUES ('daemon', 1.0, '{\"n\": 7}')"
        )
        conn.commit()
        conn.close()
        with SnapshotStore(db, schema_version=1) as store:
            record = store.latest_record("daemon")
            assert record.state == {"n": 7}
            assert record.schema_version == 1

    def test_invalid_version_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="schema_version"):
            SnapshotStore(tmp_path / "s.db", schema_version=0)

    def test_error_names_found_and_expected_versions(self, tmp_path):
        """The refusal must state both sides of the mismatch explicitly."""
        db = tmp_path / "s.db"
        with SnapshotStore(db, schema_version=3) as writer:
            writer.save("daemon", {"n": 1})
        with SnapshotStore(db, schema_version=5) as reader:
            with pytest.raises(StorageError) as err:
                reader.latest_record("daemon")
        message = str(err.value)
        assert "schema version 3 (found)" in message
        assert "schema version 5 (expected)" in message
