"""Deterministic record/replay for the assignment daemon.

The paper's iterated assignment loop is a pure function of the observation
stream: the same registrations and completions, in the same order, produce
the same ``W^i`` batches, the same Eq. 7/8 instances, and the same displays.
The serving stack obscures that determinism behind an asyncio scheduler, a
degradation ladder and fault injection — this module makes it checkable
again:

* :class:`FlightRecorder` — an append-only JSONL *journal* written at the
  daemon's ingress and solve boundaries.  Ingress events (``register`` /
  ``complete`` / ``unregister`` / ``task_arrival``) capture what the outside
  world did, in event-loop order, with the request's trace id; solve events
  capture each solve step: ``lease`` (a solve was prepared: its workers,
  tier, seed and candidate set), then ``commit`` (it landed) or ``abandon``
  (it failed).  The daemon runs prepare → solve → commit in one
  synchronous step, so at most one solve is ever pending and the journal
  order alone ties a commit to its prepare.  The header pins the config
  fingerprint (strategy, seed, service knobs) and a SHA-256 of the
  *startup* task corpus, so a journal can refuse to replay against the
  wrong world; tasks posted after startup enter through ``task_arrival``
  events carrying their full specs, which is what lets an open-world run
  replay from the startup pool alone.

* :func:`replay_journal` — re-drives a fresh
  :class:`~repro.crowd.service.AssignmentService` from a journal and asserts
  bit-identical outcomes: every prepared solve must draw the same solver
  seed and candidate set, every commit must install byte-for-byte
  identical display events (task ids, pads, alpha/beta — floats survive
  JSON exactly via ``repr`` round-tripping), and the final service state
  must hash to the recorded ``end`` digest, RNG position included.  The
  first mismatch is reported as a :class:`Divergence` carrying the journal
  seq, the offending worker, and the trace ids of the requests that rode
  that solve.

* :class:`ReplayVariant` — a replay can pin every solve to one
  degradation-ladder tier instead of the recorded one (``repro replay
  --pin-tier``).  A pinned tier is a diagnostic that shows *where*
  outcomes start depending on the ladder position; the unpinned in-loop
  replay is the one that must match.

See docs/SERVING.md ("Record/replay") for the journal schema and CLI.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.task import Task, TaskPool
from ..core.worker import Worker
from ..crowd.events import TasksAssigned
from ..crowd.service import (
    AssignmentService,
    PreparedSolve,
    ServiceConfig,
    execute_prepared,
)
from ..errors import ReproError

#: Bump on any change to the journal line format or to what a replay of the
#: same events produces; replay refuses mismatches.  Version 2 dropped the
#: per-solve lease number from solve events, and a prepared solve no longer
#: takes its candidates out of the pool; that keeps the pool in a different
#: order, so later random draws differ from a version-1 run.  Version 3
#: solves the auxiliary LSAP over the clique columns only: the optimum is
#: the same, but tie-broken task choices differ from a version-2 run.
#: Version 4 registers a worker under a fixed-weight strategy through a
#: prepared solve, which draws its solver seed from the service RNG, so
#: every later random draw differs from a version-3 run.  Version 5 walks
#: the greedy diversity matching by keyword-profile pair: ties among task
#: pairs break by profile pair, so matched edges, and the displays built on
#: them, differ from a version-4 run.  Version 6 solves HTA-APP's clique
#: LSAP over workers and twin classes of tasks: the optimum is the same,
#: but tie-broken task choices differ from a version-5 run.
JOURNAL_VERSION = 6

#: Required fields per event type (beyond ``type`` and ``seq``); an event
#: with a missing field or an unknown type is schema drift and fails load.
_EVENT_FIELDS: dict[str, frozenset[str]] = {
    "restore": frozenset({"state"}),
    "register": frozenset({"worker_id", "interest", "solver", "event"}),
    "complete": frozenset({"worker_id", "task_id"}),
    "unregister": frozenset({"worker_id"}),
    # Open-world ingestion: a ``POST /tasks`` batch admitted into the live
    # pool.  Each entry carries the full task spec (id, keyword indices,
    # metadata), so replay can rebuild tasks that never existed in the
    # startup corpus the header's ``pool_sha`` pins.
    "task_arrival": frozenset({"tasks"}),
    # Quality-layer events (present only when the daemon ran with a quality
    # config; see repro.quality).  ``probe`` records the aliases minted for
    # one installed display; ``tick`` marks a reputation flush.  Both are
    # recorded synchronously next to the controller call, so the journal
    # order IS the call order.
    "probe": frozenset({"worker_id", "iteration", "aliases"}),
    "tick": frozenset(),
    "lease": frozenset(
        {"worker_ids", "solver", "seed", "n_candidates", "candidates_sha"}
    ),
    "commit": frozenset({"wall_time", "events"}),
    "abandon": frozenset(),
    "snapshot": frozenset({"snapshot_id"}),
    "end": frozenset({"state_sha"}),
}


class ReplayError(ReproError):
    """A journal could not be recorded, loaded, or replayed."""


# -- fingerprints -----------------------------------------------------------


def pool_fingerprint(pool: TaskPool) -> str:
    """SHA-256 over the corpus: vocabulary, task ids, keyword vectors."""
    digest = hashlib.sha256()
    for keyword in pool.vocabulary.keywords:
        digest.update(keyword.encode())
        digest.update(b"\x00")
    digest.update(b"\x01")
    for task in pool:
        digest.update(task.task_id.encode())
        digest.update(b"\x00")
        digest.update(np.packbits(np.asarray(task.vector, dtype=bool)).tobytes())
    return digest.hexdigest()


def candidates_fingerprint(task_ids: Iterable[str]) -> str:
    """SHA-256 over an ordered candidate id sequence (solve identity)."""
    digest = hashlib.sha256()
    for task_id in task_ids:
        digest.update(task_id.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def state_fingerprint(state: dict) -> str:
    """SHA-256 of a JSON-serializable state payload (key-order independent)."""
    return hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()
    ).hexdigest()


def event_payload(event: TasksAssigned) -> dict:
    """The JSON form of one display event; the unit of bit-identity.

    Floats round-trip JSON exactly (``json.dumps`` emits ``repr``), so two
    payloads compare equal iff the events were bit-identical — alpha/beta
    estimates included.
    """
    return {
        "wall_time": event.wall_time,
        "session_time": event.session_time,
        "worker_id": event.worker_id,
        "iteration": event.iteration,
        "task_ids": list(event.task_ids),
        "random_pad_ids": list(event.random_pad_ids),
        "alpha": event.alpha,
        "beta": event.beta,
    }


# -- recording --------------------------------------------------------------


class FlightRecorder:
    """Writes the journal: one JSON object per line, flushed per event.

    One recorder documents one daemon process: the file is truncated on
    open (a restored daemon re-records its starting state as a ``restore``
    event, so the fresh journal is self-contained) and every event carries
    a contiguous ``seq`` starting at 1.
    """

    def __init__(self, path: "str | Path", header: dict):
        self._path = Path(path)
        self._fh = self._path.open("w", encoding="utf-8")
        self._seq = 0
        self._closed = False
        self._emit({"type": "header", "version": JOURNAL_VERSION, **header})

    @property
    def path(self) -> Path:
        return self._path

    @property
    def seq(self) -> int:
        """Seq of the most recently recorded event (0 = header only)."""
        return self._seq

    def _emit(self, payload: dict) -> None:
        self._fh.write(json.dumps(payload, sort_keys=True) + "\n")
        self._fh.flush()

    def _record(self, event_type: str, **fields) -> None:
        if self._closed:
            return
        self._seq += 1
        self._emit({"type": event_type, "seq": self._seq, **fields})

    def record_restore(self, state: dict, snapshot_id: "int | None") -> None:
        self._record("restore", state=state, snapshot_id=snapshot_id)

    def record_register(
        self,
        worker_id: str,
        vector: np.ndarray,
        solver: str,
        event: TasksAssigned,
        trace_id: "str | None",
    ) -> None:
        self._record(
            "register",
            worker_id=worker_id,
            interest=np.flatnonzero(np.asarray(vector, dtype=bool)).tolist(),
            solver=solver,
            event=event_payload(event),
            trace_id=trace_id,
        )

    def record_complete(
        self,
        worker_id: str,
        task_id: str,
        trace_id: "str | None",
        completion_key: "str | None",
        answer: "int | None" = None,
    ) -> None:
        self._record(
            "complete",
            worker_id=worker_id,
            task_id=task_id,
            trace_id=trace_id,
            completion_key=completion_key,
            answer=answer,
        )

    def record_probe(
        self, worker_id: str, iteration: int, aliases: Sequence[str]
    ) -> None:
        self._record(
            "probe",
            worker_id=worker_id,
            iteration=iteration,
            aliases=list(aliases),
        )

    def record_tick(self) -> None:
        self._record("tick")

    def record_unregister(self, worker_id: str) -> None:
        self._record("unregister", worker_id=worker_id)

    def record_task_arrival(self, tasks, trace_id: "str | None") -> None:
        """One admitted ``POST /tasks`` batch (a sequence of ``Task``s)."""
        self._record(
            "task_arrival",
            tasks=[
                {
                    "task_id": task.task_id,
                    "interest": np.flatnonzero(
                        np.asarray(task.vector, dtype=bool)
                    ).tolist(),
                    "group": task.group,
                    "title": task.title,
                    "reward": task.reward,
                    "n_questions": task.n_questions,
                }
                for task in tasks
            ],
            trace_id=trace_id,
        )

    def record_lease(
        self, prepared: PreparedSolve, trace_ids: "Sequence[str] | None"
    ) -> None:
        self._record(
            "lease",
            worker_ids=list(prepared.worker_ids),
            solver=prepared.solver_name,
            seed=prepared.seed,
            n_candidates=len(prepared.candidates),
            candidates_sha=candidates_fingerprint(
                t.task_id for t in prepared.candidates
            ),
            trace_ids=list(trace_ids) if trace_ids else None,
        )

    def record_commit(
        self,
        prepared: PreparedSolve,
        wall_time: float,
        events: dict[str, TasksAssigned],
    ) -> None:
        self._record(
            "commit",
            wall_time=wall_time,
            events={w: event_payload(e) for w, e in events.items()},
        )

    def record_abandon(self, prepared: PreparedSolve) -> None:
        self._record("abandon")

    def record_snapshot(self, snapshot_id: int) -> None:
        self._record("snapshot", snapshot_id=snapshot_id)

    def record_end(self, state_sha: str) -> None:
        self._record("end", state_sha=state_sha)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._fh.close()


# -- loading ----------------------------------------------------------------


@dataclass(frozen=True)
class Journal:
    """A parsed, schema-validated journal."""

    header: dict
    events: list[dict]

    @property
    def strategy(self) -> str:
        return self.header["strategy"]

    @property
    def seed(self) -> int:
        return int(self.header["seed"])

    @property
    def pool_sha(self) -> str:
        return self.header["pool_sha"]

    @property
    def corpus_spec(self) -> "dict | None":
        return self.header.get("corpus")

    def service_config(self) -> ServiceConfig:
        return ServiceConfig(**self.header["service"])

    def quality_config(self):
        """The recorded quality config, or ``None`` for quality-free runs."""
        spec = self.header.get("quality")
        if spec is None:
            return None
        from ..quality import QualityConfig

        return QualityConfig.from_dict(spec)


def load_journal(path: "str | Path") -> Journal:
    """Parse and validate a journal file; raises :class:`ReplayError` on
    malformed lines, schema drift, or a version mismatch."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ReplayError(f"{path}: journal is empty")
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReplayError(f"{path}:{lineno}: not JSON: {exc}") from None
        if not isinstance(record, dict) or "type" not in record:
            raise ReplayError(
                f"{path}:{lineno}: not a journal record (no 'type' key)"
            )
        records.append((lineno, record))
    lineno, header = records[0]
    if header["type"] != "header":
        raise ReplayError(f"{path}:{lineno}: first record must be the header")
    if header.get("version") != JOURNAL_VERSION:
        raise ReplayError(
            f"{path}: journal version {header.get('version')!r}, "
            f"this build reads {JOURNAL_VERSION}"
        )
    for key in ("strategy", "seed", "service", "pool_sha"):
        if key not in header:
            raise ReplayError(f"{path}: header is missing {key!r}")
    # Earlier builds stamped an ``adaptivity`` block; only the paper's
    # averaging estimator without a weight bandit still replays (a leftover
    # ``tier_policy`` was never read).
    adaptivity = header.get("adaptivity") or {}
    for key, paper in (("estimator", "plain"), ("bandit", "off")):
        if adaptivity.get(key, paper) != paper:
            raise ReplayError(
                f"{path}: header adaptivity.{key} is {adaptivity[key]!r}; "
                f"weight bandits and the Bayesian estimator were retired, "
                f"so only {key} {paper!r} replays"
            )
    events = []
    for lineno, record in records[1:]:
        event_type = record["type"]
        required = _EVENT_FIELDS.get(event_type)
        if required is None:
            raise ReplayError(
                f"{path}:{lineno}: unknown event type {event_type!r} "
                f"(schema drift?)"
            )
        missing = sorted(required - set(record))
        if missing:
            raise ReplayError(
                f"{path}:{lineno}: {event_type} event is missing {missing}"
            )
        if record.get("seq") != len(events) + 1:
            raise ReplayError(
                f"{path}:{lineno}: seq {record.get('seq')!r}, "
                f"expected {len(events) + 1} (truncated or spliced journal?)"
            )
        events.append(record)
    return Journal(header=header, events=events)


#: The keys a corpus spec may carry; any other key describes a corpus this
#: build cannot rebuild, and rebuilding without it would diverge on
#: ``pool_sha`` far from the cause.
_CORPUS_SPEC_KEYS = frozenset({"kind", "n_tasks", "seed"})


def pool_from_corpus_spec(spec: dict) -> TaskPool:
    """Rebuild the recorded corpus from the header's ``corpus`` spec."""
    if not isinstance(spec, dict) or spec.get("kind") != "crowdflower":
        raise ReplayError(
            f"cannot rebuild corpus from spec {spec!r}; pass the pool explicitly"
        )
    unknown = sorted(set(spec) - _CORPUS_SPEC_KEYS)
    if unknown:
        raise ReplayError(
            f"corpus spec carries unsupported key(s) {unknown}; "
            f"this build rebuilds only {sorted(_CORPUS_SPEC_KEYS)}"
        )
    from ..data import CrowdFlowerConfig, generate_crowdflower_corpus

    corpus = generate_crowdflower_corpus(
        CrowdFlowerConfig(n_tasks=int(spec["n_tasks"])), rng=int(spec["seed"])
    )
    return corpus.pool


# -- replay -----------------------------------------------------------------


@dataclass(frozen=True)
class ReplayVariant:
    """One configuration to replay a journal under.

    ``pinned_solver`` forces every solve (and non-adaptive register) onto
    one ladder tier regardless of what was recorded.
    """

    label: str = "in-loop"
    pinned_solver: "str | None" = None


@dataclass(frozen=True)
class Divergence:
    """The first point where a replay stopped matching the journal."""

    seq: int
    event_type: str
    field: str
    recorded: object
    replayed: object
    worker_id: "str | None" = None
    trace_ids: "tuple[str, ...] | None" = None

    def describe(self) -> str:
        where = f"seq {self.seq} ({self.event_type})"
        if self.worker_id is not None:
            where += f" worker {self.worker_id!r}"
        traces = (
            f" [traces: {', '.join(self.trace_ids)}]" if self.trace_ids else ""
        )
        return (
            f"{where}: {self.field} recorded={self.recorded!r} "
            f"replayed={self.replayed!r}{traces}"
        )


@dataclass
class ReplayReport:
    """Outcome of one replay pass."""

    variant: str
    events_applied: int = 0
    registers: int = 0
    completions: int = 0
    arrivals: int = 0
    solves_committed: int = 0
    solves_abandoned: int = 0
    displays_checked: int = 0
    disjointness_violations: int = 0
    state_verified: bool = False
    divergence: "Divergence | None" = None

    @property
    def ok(self) -> bool:
        return self.divergence is None and self.disjointness_violations == 0

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "ok": self.ok,
            "events_applied": self.events_applied,
            "registers": self.registers,
            "completions": self.completions,
            "arrivals": self.arrivals,
            "solves_committed": self.solves_committed,
            "solves_abandoned": self.solves_abandoned,
            "displays_checked": self.displays_checked,
            "disjointness_violations": self.disjointness_violations,
            "state_verified": self.state_verified,
            "divergence": (
                None if self.divergence is None else self.divergence.describe()
            ),
        }


def _first_mismatch(recorded: dict, replayed: dict) -> "tuple | None":
    for key in sorted(set(recorded) | set(replayed)):
        if recorded.get(key) != replayed.get(key):
            return key, recorded.get(key), replayed.get(key)
    return None


@dataclass
class _ReplayState:
    service: AssignmentService
    task_index: dict
    displayed_ever: set = field(default_factory=set)
    #: The prepared solve awaiting its ``commit`` or ``abandon`` event, with
    #: the trace ids of the requests that rode it.
    pending: "tuple[PreparedSolve, tuple[str, ...] | None] | None" = None
    quality: "object | None" = None  # QualityController when recorded with one

    def end_payload(self) -> dict:
        """The state the ``end``/snapshot fingerprints cover (must mirror
        :meth:`repro.serve.app.AssignmentDaemon._state_payload`)."""
        payload = {
            "service": self.service.snapshot_state(),
            "displayed_ever": sorted(self.displayed_ever),
        }
        if self.quality is not None:
            payload["quality"] = self.quality.state_dict()
        return payload


def replay_journal(
    journal: Journal,
    pool: TaskPool,
    variant: "ReplayVariant | None" = None,
    verify_pool: bool = True,
) -> ReplayReport:
    """Re-drive a fresh service from ``journal`` and check bit-identity."""
    variant = variant or ReplayVariant()
    if verify_pool:
        actual = pool_fingerprint(pool)
        if actual != journal.pool_sha:
            raise ReplayError(
                f"corpus mismatch: journal was recorded against pool "
                f"{journal.pool_sha[:12]}…, got {actual[:12]}…"
            )
    report = ReplayReport(variant=variant.label)
    quality_config = journal.quality_config()
    quality = None
    serving_pool = pool
    if quality_config is not None:
        # The controller sees the full corpus (the gold bank lives there);
        # the service serves the corpus minus the holdout — the same split
        # the recording daemon made.
        from ..quality import QualityController

        quality = QualityController(pool, quality_config)
        serving_pool = QualityController.serving_pool(pool, quality_config)
    state = _ReplayState(
        service=AssignmentService(
            serving_pool,
            journal.strategy,
            journal.service_config(),
            rng=journal.seed,
        ),
        task_index={t.task_id: t for t in serving_pool},
        quality=quality,
    )
    if quality is not None:
        # Same seam the daemon wires: reputation scales the relevance term.
        state.service.set_reputation_provider(quality.reputation.mean)
    for event in journal.events:
        divergence = _apply_event(event, state, variant, report)
        if divergence is not None:
            report.divergence = divergence
            return report
        report.events_applied += 1
    return report


def _check_display(payload: dict, state: _ReplayState, report: ReplayReport) -> None:
    """The daemon's C1/C2 guard, re-run over the replayed displays."""
    shown = tuple(payload["task_ids"]) + tuple(payload["random_pad_ids"])
    if len(set(shown)) != len(shown) or state.displayed_ever & set(shown):
        report.disjointness_violations += 1
    state.displayed_ever.update(shown)
    report.displays_checked += 1


def _apply_event(
    event: dict,
    state: _ReplayState,
    variant: ReplayVariant,
    report: ReplayReport,
) -> "Divergence | None":
    event_type = event["type"]
    seq = event["seq"]
    service = state.service

    if event_type == "restore":
        snapshot = event["state"]
        service.restore_state(snapshot["service"], state.task_index)
        # Tasks admitted before the snapshot are rebuilt from its own
        # arrival log; future events may reference them by id.
        for task in service.admitted_tasks():
            state.task_index[task.task_id] = task
        state.displayed_ever = set(snapshot["displayed_ever"])
        if state.quality is not None:
            if "quality" in snapshot:
                state.quality.load_state_dict(snapshot["quality"])
            state.quality.on_admitted(service.admitted_tasks())
        return None

    if event_type == "register":
        return _apply_register(event, state, variant, report)

    if event_type == "complete":
        worker_id = event["worker_id"]
        task_id = event["task_id"]
        is_alias = state.quality is not None and state.quality.is_quality_task(
            task_id
        )
        if is_alias:
            # Gold/replica aliases never reached the service when recorded;
            # they route straight to the quality layer here too.
            state.quality.on_answer(worker_id, task_id, event.get("answer"))
            report.completions += 1
            return None
        try:
            service.observe_completion(worker_id, task_id)
        except Exception as exc:
            return Divergence(
                seq=seq,
                event_type=event_type,
                field="completion",
                recorded="accepted",
                replayed=f"{type(exc).__name__}: {exc}",
                worker_id=worker_id,
                trace_ids=(event["trace_id"],) if event.get("trace_id") else None,
            )
        if state.quality is not None:
            state.quality.on_answer(worker_id, task_id, event.get("answer"))
        report.completions += 1
        return None

    if event_type == "probe":
        if state.quality is None:
            return Divergence(
                seq=seq,
                event_type=event_type,
                field="quality",
                recorded=event["aliases"],
                replayed=None,
                worker_id=event["worker_id"],
            )
        minted = state.quality.on_display(
            event["worker_id"], event["iteration"]
        )
        minted_ids = [task.task_id for task in minted]
        if minted_ids != list(event["aliases"]):
            return Divergence(
                seq=seq,
                event_type=event_type,
                field="aliases",
                recorded=event["aliases"],
                replayed=minted_ids,
                worker_id=event["worker_id"],
            )
        state.displayed_ever.update(minted_ids)
        return None

    if event_type == "tick":
        if state.quality is not None:
            state.quality.on_tick()
        return None

    if event_type == "task_arrival":
        n_keywords = len(next(iter(state.task_index.values())).vector)
        tasks = []
        for spec in event["tasks"]:
            vector = np.zeros(n_keywords, dtype=bool)
            if spec["interest"]:
                vector[np.asarray(spec["interest"], dtype=int)] = True
            tasks.append(
                Task(
                    task_id=spec["task_id"],
                    vector=vector,
                    group=spec.get("group", ""),
                    title=spec.get("title", ""),
                    reward=float(spec.get("reward", 0.05)),
                    n_questions=int(spec.get("n_questions", 1)),
                )
            )
        try:
            service.admit_tasks(tasks)
        except Exception as exc:
            return Divergence(
                seq=seq,
                event_type=event_type,
                field="admission",
                recorded="admitted",
                replayed=f"{type(exc).__name__}: {exc}",
                trace_ids=(event["trace_id"],) if event.get("trace_id") else None,
            )
        for task in tasks:
            state.task_index[task.task_id] = task
        if state.quality is not None:
            state.quality.on_admitted(tasks)
        report.arrivals += 1
        return None

    if event_type == "unregister":
        removed = service.unregister_worker(event["worker_id"])
        if removed and state.quality is not None:
            state.quality.on_unregister(event["worker_id"])
        if not removed:
            return Divergence(
                seq=seq,
                event_type=event_type,
                field="registered",
                recorded=True,
                replayed=False,
                worker_id=event["worker_id"],
            )
        return None

    if event_type == "lease":
        return _apply_lease(event, state, variant)

    if event_type == "commit":
        return _apply_commit(event, state, report)

    if event_type == "abandon":
        if state.pending is None:
            return _nothing_pending(seq, event_type)
        state.pending = None
        report.solves_abandoned += 1
        return None

    if event_type == "snapshot":
        return None

    if event_type == "end":
        replayed_sha = state_fingerprint(state.end_payload())
        if replayed_sha != event["state_sha"]:
            return Divergence(
                seq=seq,
                event_type=event_type,
                field="state_sha",
                recorded=event["state_sha"],
                replayed=replayed_sha,
            )
        report.state_verified = True
        return None

    raise ReplayError(f"seq {seq}: unknown event type {event_type!r}")


def _apply_register(
    event: dict,
    state: _ReplayState,
    variant: ReplayVariant,
    report: ReplayReport,
) -> "Divergence | None":
    service = state.service
    recorded = event["event"]
    n_keywords = len(
        next(iter(state.task_index.values())).vector
    )
    vector = np.zeros(n_keywords, dtype=bool)
    if event["interest"]:
        vector[np.asarray(event["interest"], dtype=int)] = True
    # The live daemon registers on the degradation controller's active
    # tier; reproduce that (or the pinned override) here.
    replayed = service.register_worker(
        Worker(event["worker_id"], vector),
        wall_time=recorded["wall_time"],
        solver_name=variant.pinned_solver or event["solver"],
    )
    report.registers += 1
    trace_ids = (event["trace_id"],) if event.get("trace_id") else None
    mismatch = _first_mismatch(recorded, event_payload(replayed))
    if mismatch is not None:
        field_name, rec, rep = mismatch
        return Divergence(
            seq=event["seq"],
            event_type="register",
            field=field_name,
            recorded=rec,
            replayed=rep,
            worker_id=event["worker_id"],
            trace_ids=trace_ids,
        )
    _check_display(recorded, state, report)
    return None


def _nothing_pending(seq: int, event_type: str) -> Divergence:
    """A ``commit`` or ``abandon`` with no prepared solve to settle."""
    return Divergence(
        seq=seq,
        event_type=event_type,
        field="pending",
        recorded="prepared solve",
        replayed=None,
    )


def _apply_lease(
    event: dict, state: _ReplayState, variant: ReplayVariant
) -> "Divergence | None":
    service = state.service
    seq = event["seq"]
    trace_ids = tuple(event["trace_ids"]) if event.get("trace_ids") else None
    if state.pending is not None:
        # The daemon settles every prepared solve before the next one.
        return Divergence(
            seq=seq,
            event_type="lease",
            field="pending",
            recorded=None,
            replayed=list(state.pending[0].worker_ids),
            trace_ids=trace_ids,
        )
    solver_name = variant.pinned_solver or event["solver"]
    prepared = service.prepare_solve(event["worker_ids"], solver_name=solver_name)
    if prepared is None:
        return Divergence(
            seq=seq,
            event_type="lease",
            field="prepared",
            recorded="prepared",
            replayed=None,
            trace_ids=trace_ids,
        )
    checks = [
        ("worker_ids", event["worker_ids"], list(prepared.worker_ids)),
        ("seed", event["seed"], prepared.seed),
        ("n_candidates", event["n_candidates"], len(prepared.candidates)),
        (
            "candidates_sha",
            event["candidates_sha"],
            candidates_fingerprint(t.task_id for t in prepared.candidates),
        ),
    ]
    if variant.pinned_solver is None:
        checks.append(("solver", event["solver"], prepared.solver_name))
    for field_name, recorded, replayed in checks:
        if recorded != replayed:
            return Divergence(
                seq=seq,
                event_type="lease",
                field=field_name,
                recorded=recorded,
                replayed=replayed,
                trace_ids=trace_ids,
            )
    state.pending = (prepared, trace_ids)
    return None


def _apply_commit(
    event: dict,
    state: _ReplayState,
    report: ReplayReport,
) -> "Divergence | None":
    service = state.service
    seq = event["seq"]
    if state.pending is None:
        return _nothing_pending(seq, "commit")
    (prepared, trace_ids), state.pending = state.pending, None
    assigned = execute_prepared(prepared)
    replayed_events = service.commit_solve(
        prepared, assigned, event["wall_time"]
    )
    report.solves_committed += 1
    recorded_events = event["events"]
    workers_recorded = sorted(recorded_events)
    workers_replayed = sorted(replayed_events)
    if workers_recorded != workers_replayed:
        return Divergence(
            seq=seq,
            event_type="commit",
            field="workers",
            recorded=workers_recorded,
            replayed=workers_replayed,
            trace_ids=trace_ids,
        )
    for worker_id in workers_recorded:
        mismatch = _first_mismatch(
            recorded_events[worker_id], event_payload(replayed_events[worker_id])
        )
        if mismatch is not None:
            field_name, rec, rep = mismatch
            return Divergence(
                seq=seq,
                event_type="commit",
                field=field_name,
                recorded=rec,
                replayed=rep,
                worker_id=worker_id,
                trace_ids=trace_ids,
            )
        _check_display(recorded_events[worker_id], state, report)
    return None
