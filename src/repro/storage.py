"""SQLite-backed experiment store.

Benchmarks and CLI experiment runs can persist their measurements so that
paper-vs-measured comparisons survive across sessions and can be queried
(e.g. "how did fig2a's hta-gre timings move across the last five runs?").

Schema (created on first open):

* ``runs``     — one row per experiment invocation (kind, config, started);
* ``points``   — one row per measured point, keyed to its run, with the
  metric payload stored as JSON (schemaless on purpose: every figure has a
  different shape, and the store must not constrain new experiments).

The store is a thin, dependency-free layer over :mod:`sqlite3`; connections
are used as context managers so every write is transactional.
"""

from __future__ import annotations

import json
import sqlite3
import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import ReproError


class StorageError(ReproError):
    """The experiment store rejected an operation."""


_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id      INTEGER PRIMARY KEY AUTOINCREMENT,
    kind        TEXT NOT NULL,
    config_json TEXT NOT NULL DEFAULT '{}',
    started_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS points (
    point_id     INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id       INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    label        TEXT NOT NULL,
    metrics_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_points_run ON points(run_id);
CREATE INDEX IF NOT EXISTS idx_runs_kind ON runs(kind);
"""


@dataclass(frozen=True)
class RunRecord:
    """One experiment invocation."""

    run_id: int
    kind: str
    config: dict[str, Any]
    started_at: float


@dataclass(frozen=True)
class PointRecord:
    """One measured point of a run."""

    point_id: int
    run_id: int
    label: str
    metrics: dict[str, Any]


class ResultsStore:
    """Persistent store of experiment runs and their measured points.

    Usage::

        with ResultsStore("results.db") as store:
            run_id = store.start_run("fig2a", {"task_sweep": [300, 500]})
            store.add_point(run_id, "hta-gre@300", {"total_s": 0.05})
            latest = store.points_of(run_id)
    """

    def __init__(self, path: "str | Path" = ":memory:"):
        self._path = str(path)
        self._connection = sqlite3.connect(self._path)
        self._connection.execute("PRAGMA foreign_keys = ON")
        self._connection.executescript(_SCHEMA)
        self._connection.commit()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writes -----------------------------------------------------------------

    def start_run(
        self,
        kind: str,
        config: Mapping[str, Any] | None = None,
        started_at: float | None = None,
    ) -> int:
        """Open a new run; returns its id."""
        if not kind:
            raise StorageError("run kind must be a non-empty string")
        timestamp = time.time() if started_at is None else started_at
        with self._connection as conn:
            cursor = conn.execute(
                "INSERT INTO runs (kind, config_json, started_at) VALUES (?, ?, ?)",
                (kind, json.dumps(dict(config or {}), sort_keys=True), timestamp),
            )
        return int(cursor.lastrowid)

    def add_point(
        self, run_id: int, label: str, metrics: Mapping[str, Any]
    ) -> int:
        """Record one measured point under ``run_id``."""
        self._require_run(run_id)
        try:
            payload = json.dumps(dict(metrics), sort_keys=True)
        except TypeError as exc:
            raise StorageError(f"metrics are not JSON-serializable: {exc}") from exc
        with self._connection as conn:
            cursor = conn.execute(
                "INSERT INTO points (run_id, label, metrics_json) VALUES (?, ?, ?)",
                (run_id, label, payload),
            )
        return int(cursor.lastrowid)

    def add_points(
        self, run_id: int, points: Iterable[tuple[str, Mapping[str, Any]]]
    ) -> int:
        """Bulk-record points; returns how many were written."""
        count = 0
        for label, metrics in points:
            self.add_point(run_id, label, metrics)
            count += 1
        return count

    def delete_run(self, run_id: int) -> None:
        """Remove a run and (via cascade) its points."""
        self._require_run(run_id)
        with self._connection as conn:
            conn.execute("DELETE FROM runs WHERE run_id = ?", (run_id,))

    # -- reads -------------------------------------------------------------------

    def run(self, run_id: int) -> RunRecord:
        row = self._connection.execute(
            "SELECT run_id, kind, config_json, started_at FROM runs WHERE run_id = ?",
            (run_id,),
        ).fetchone()
        if row is None:
            raise StorageError(f"no run with id {run_id}")
        return RunRecord(
            run_id=row[0], kind=row[1], config=json.loads(row[2]), started_at=row[3]
        )

    def runs(self, kind: str | None = None) -> list[RunRecord]:
        """All runs (optionally of one kind), newest first."""
        if kind is None:
            rows = self._connection.execute(
                "SELECT run_id, kind, config_json, started_at FROM runs "
                "ORDER BY started_at DESC, run_id DESC"
            ).fetchall()
        else:
            rows = self._connection.execute(
                "SELECT run_id, kind, config_json, started_at FROM runs "
                "WHERE kind = ? ORDER BY started_at DESC, run_id DESC",
                (kind,),
            ).fetchall()
        return [
            RunRecord(run_id=r[0], kind=r[1], config=json.loads(r[2]), started_at=r[3])
            for r in rows
        ]

    def latest_run(self, kind: str) -> RunRecord | None:
        matches = self.runs(kind)
        return matches[0] if matches else None

    def points_of(self, run_id: int) -> list[PointRecord]:
        self._require_run(run_id)
        rows = self._connection.execute(
            "SELECT point_id, run_id, label, metrics_json FROM points "
            "WHERE run_id = ? ORDER BY point_id",
            (run_id,),
        ).fetchall()
        return [
            PointRecord(
                point_id=r[0], run_id=r[1], label=r[2], metrics=json.loads(r[3])
            )
            for r in rows
        ]

    def metric_history(self, kind: str, label: str, metric: str) -> list[float]:
        """One metric's value across all runs of ``kind`` (oldest first).

        The cross-run trend query: e.g.
        ``store.metric_history("fig2a", "hta-gre@800", "total_s")``.
        """
        rows = self._connection.execute(
            "SELECT p.metrics_json FROM points p "
            "JOIN runs r ON r.run_id = p.run_id "
            "WHERE r.kind = ? AND p.label = ? "
            "ORDER BY r.started_at, r.run_id, p.point_id",
            (kind, label),
        ).fetchall()
        history = []
        for (payload,) in rows:
            metrics = json.loads(payload)
            if metric in metrics:
                history.append(float(metrics[metric]))
        return history

    # -- internals ------------------------------------------------------------------

    def _require_run(self, run_id: int) -> None:
        row = self._connection.execute(
            "SELECT 1 FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise StorageError(f"no run with id {run_id}")


@dataclass(frozen=True)
class SnapshotRecord:
    """One persisted snapshot, with its identity."""

    snapshot_id: int
    kind: str
    taken_at: float
    state: dict[str, Any]
    schema_version: int = 1


_SNAPSHOT_SCHEMA = """
CREATE TABLE IF NOT EXISTS snapshots (
    snapshot_id    INTEGER PRIMARY KEY AUTOINCREMENT,
    kind           TEXT NOT NULL,
    taken_at       REAL NOT NULL,
    state_json     TEXT NOT NULL,
    schema_version INTEGER NOT NULL DEFAULT 1
);
CREATE INDEX IF NOT EXISTS idx_snapshots_kind ON snapshots(kind, snapshot_id);
"""


class SnapshotStore:
    """Crash-safe state snapshots for long-running processes.

    The serving daemon periodically writes its full mutable state here (one
    JSON blob per snapshot, one transactional ``INSERT`` each), and a
    restarted daemon restores from the latest one — resuming the pool,
    displays and estimator exactly where the killed process left them, so a
    crash can never re-display a task (C2) or over-fill a worker (C1).

    Old snapshots are pruned on write (``keep`` most recent per kind), so the
    file stays bounded over an arbitrarily long daemon lifetime.

    Every record carries a ``schema_version`` (the store's configured
    version at save time); a restore from a record whose version differs
    from this store's is refused with a :class:`StorageError` naming both
    the found and the expected version, rather than silently feeding an
    old-layout blob to new restore code.  Bump the version whenever the
    snapshot payload changes shape (the serving daemon's reputation state
    and arrival log did exactly that); records of any other version stay
    hard refusals.
    """

    def __init__(
        self,
        path: "str | Path" = ":memory:",
        keep: int = 5,
        schema_version: int = 1,
    ):
        if keep < 1:
            raise StorageError(f"must keep at least 1 snapshot, got {keep}")
        if schema_version < 1:
            raise StorageError(
                f"schema_version must be >= 1, got {schema_version}"
            )
        self._path = str(path)
        self._keep = keep
        self._schema_version = int(schema_version)
        self._connection = sqlite3.connect(self._path)
        self._connection.executescript(_SNAPSHOT_SCHEMA)
        # Stores created before versioning lack the column; the default (1)
        # correctly stamps their pre-existing rows as the original layout.
        columns = {
            row[1]
            for row in self._connection.execute(
                "PRAGMA table_info(snapshots)"
            ).fetchall()
        }
        if "schema_version" not in columns:
            self._connection.execute(
                "ALTER TABLE snapshots ADD COLUMN "
                "schema_version INTEGER NOT NULL DEFAULT 1"
            )
        self._connection.commit()

    @property
    def schema_version(self) -> int:
        """The version this store stamps on saves and requires on restore."""
        return self._schema_version

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "SnapshotStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def save(
        self,
        kind: str,
        state: Mapping[str, Any],
        taken_at: float | None = None,
    ) -> int:
        """Persist one snapshot and prune old ones; returns the snapshot id."""
        if not kind:
            raise StorageError("snapshot kind must be a non-empty string")
        try:
            payload = json.dumps(dict(state), sort_keys=True)
        except TypeError as exc:
            raise StorageError(f"state is not JSON-serializable: {exc}") from exc
        timestamp = time.time() if taken_at is None else taken_at
        with self._connection as conn:
            cursor = conn.execute(
                "INSERT INTO snapshots (kind, taken_at, state_json, "
                "schema_version) VALUES (?, ?, ?, ?)",
                (kind, timestamp, payload, self._schema_version),
            )
            conn.execute(
                "DELETE FROM snapshots WHERE kind = ? AND snapshot_id NOT IN ("
                "  SELECT snapshot_id FROM snapshots WHERE kind = ?"
                "  ORDER BY snapshot_id DESC LIMIT ?)",
                (kind, kind, self._keep),
            )
        return int(cursor.lastrowid)

    def latest(self, kind: str) -> dict[str, Any] | None:
        """The most recent snapshot of ``kind``, or ``None`` if none exists."""
        record = self.latest_record(kind)
        return None if record is None else record.state

    def latest_record(self, kind: str) -> "SnapshotRecord | None":
        """Like :meth:`latest`, with the snapshot's identity attached.

        Restore paths that journal *which* snapshot they resumed from (the
        serving layer's flight recorder) need the id, not just the blob.
        """
        row = self._connection.execute(
            "SELECT snapshot_id, taken_at, state_json, schema_version "
            "FROM snapshots WHERE kind = ? ORDER BY snapshot_id DESC LIMIT 1",
            (kind,),
        ).fetchone()
        if row is None:
            return None
        recorded_version = int(row[3])
        if recorded_version != self._schema_version:
            raise StorageError(
                f"snapshot {int(row[0])} of kind {kind!r} was written "
                f"with schema version {recorded_version} (found), but "
                f"this store reads schema version {self._schema_version} "
                f"(expected); refusing to restore a mismatched layout "
                f"(re-record a snapshot with the current build, or open "
                f"the store with schema_version={recorded_version} to "
                f"inspect it)"
            )
        return SnapshotRecord(
            snapshot_id=int(row[0]),
            kind=kind,
            taken_at=float(row[1]),
            state=json.loads(row[2]),
            schema_version=recorded_version,
        )

    def count(self, kind: str) -> int:
        """Snapshots currently retained for ``kind``."""
        row = self._connection.execute(
            "SELECT COUNT(*) FROM snapshots WHERE kind = ?", (kind,)
        ).fetchone()
        return int(row[0])
