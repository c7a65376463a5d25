"""The online assignment daemon.

Exposes the paper's Fig. 4 workflow as a JSON-over-HTTP API on top of
:class:`repro.crowd.AssignmentService`:

* ``POST /workers`` — worker arrival: register keywords, get a first display;
* ``POST /tasks`` — task arrival: a requester posts a batch of new tasks
  into the live pool (open-world ingestion; the batch is validated and
  admitted atomically, flows into the diversity cache by block append, and
  is journaled as a ``task_arrival`` event);
* ``POST /complete`` — task completion: record marginal-gain observations;
  when the completion makes the worker due for reassignment, the request
  parks on the solve scheduler and returns the freshly solved display;
* ``GET /display/{worker_id}`` — the worker's current display and pending set;
* ``DELETE /workers/{worker_id}`` — session over;
* ``GET /healthz`` — liveness plus pool/worker gauges;
* ``GET /metrics`` — Prometheus text exposition;
* ``GET /vocabulary`` — the keyword space clients register against.

Solves are micro-batched by :class:`repro.serve.scheduler.SolveScheduler`
and read their pairwise-diversity blocks from the
:class:`repro.serve.cache.IncrementalDiversityCache`.  The daemon also
enforces the paper's assignment constraints at the boundary: every display
is checked for within-display uniqueness (C1) and against the set of every
task ever displayed (C2 — "once assigned, a task is dropped from subsequent
iterations"); violations increment ``serve_disjointness_violations_total``,
which correct operation keeps at zero.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core.task import Task, TaskPool
from ..core.worker import Worker
from ..crowd.events import TasksAssigned
from ..crowd.service import AssignmentService, ServiceConfig, execute_prepared
from ..errors import SimulationError
from ..quality import QualityConfig, QualityController
from ..storage import SnapshotStore
from .replay import FlightRecorder, pool_fingerprint, state_fingerprint
from .cache import IncrementalDiversityCache
from .metrics import MetricsRegistry
from .protocol import (
    HttpError,
    Request,
    json_response,
    read_request,
    text_response,
)
from .resilience import (
    DegradationController,
    FaultInjector,
    FaultPlan,
    ResilienceConfig,
    degradation_ladder,
)
from .tracing import SolveContext, SpanMetrics, TraceRecorder

#: Snapshot kind under which the daemon persists its state.
SNAPSHOT_KIND = "serve"

#: Layout version of the daemon's snapshot payload.  Bumped to 2 when the
#: quality layer's state (reputation posteriors, gold aliases, ballots)
#: joined the payload; bumped to 3 when open-world ingestion added the
#: service's admitted-task arrival log; bumped to 4 when the payload
#: gained a writer-id stamp (no longer written; restore ignores it in
#: version-4 snapshots that carry it).  The store refuses every other
#: version.
SNAPSHOT_SCHEMA_VERSION = 4

#: Completion responses remembered for duplicate delivery (per daemon).
COMPLETION_CACHE_CAP = 4096


@dataclass(frozen=True)
class ServeConfig:
    """Daemon knobs: where to listen, how eagerly to batch solves, and how
    to behave under failure (deadlines, degradation, chaos, snapshots)."""

    host: str = "127.0.0.1"
    port: int = 8080
    strategy: str = "hta-gre"
    service: ServiceConfig = field(default_factory=ServiceConfig)
    max_batch_delay: float = 0.05
    max_batch_size: int = 64
    seed: int | None = None
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    fault_plan: FaultPlan | None = None
    snapshot_path: str | None = None
    snapshot_every: int = 20
    restore: bool = False
    trace_file: str | None = None
    trace_sample_rate: float = 0.0
    trace_capacity: int = 512
    #: Record every state-mutating event to this JSONL flight journal
    #: (see :mod:`repro.serve.replay`); requires an explicit ``seed``.
    journal_path: str | None = None
    #: How the served corpus was generated, e.g. ``{"kind": "crowdflower",
    #: "n_tasks": 2000, "seed": 0}`` — stored in the journal header so
    #: ``repro replay`` can rebuild the pool without the original process.
    corpus_spec: dict | None = None
    #: Quality-control subsystem (gold injection, redundancy, reputation);
    #: ``None`` leaves the daemon byte-identical to a quality-free build.
    quality: QualityConfig | None = None


class AssignmentDaemon:
    """One serving process: service + cache + scheduler + HTTP front."""

    def __init__(self, pool: TaskPool, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.registry = MetricsRegistry()
        self.quality: QualityController | None = None
        serving_pool = pool
        if self.config.quality is not None:
            # The controller sees the full corpus; the service serves the
            # corpus minus the gold holdout (identical when gold is off).
            self.quality = QualityController(
                pool, self.config.quality, registry=self.registry
            )
            serving_pool = QualityController.serving_pool(
                pool, self.config.quality
            )
        self.service = AssignmentService(
            serving_pool,
            self.config.strategy,
            self.config.service,
            rng=self.config.seed,
        )
        if self.quality is not None:
            self.service.set_reputation_provider(self.quality.reputation.mean)
        self.cache = IncrementalDiversityCache(serving_pool).attach(self.service)
        self.scheduler = None  # created in start(), needs a running loop
        self._vocabulary = pool.vocabulary
        self._task_index: dict[str, Task] = {t.task_id: t for t in serving_pool}
        self._displayed_ever: set[str] = set()
        self._server: asyncio.AbstractServer | None = None
        self._started_at = time.monotonic()
        self.degradation = DegradationController(
            degradation_ladder(self.config.strategy),
            self.config.resilience,
            self.registry,
        )
        self.fault: FaultInjector | None = (
            FaultInjector(self.config.fault_plan, self.registry)
            if self.config.fault_plan is not None
            else None
        )
        self._snapshots: SnapshotStore | None = (
            SnapshotStore(
                self.config.snapshot_path,
                schema_version=SNAPSHOT_SCHEMA_VERSION,
            )
            if self.config.snapshot_path
            else None
        )
        self._solves_since_snapshot = 0
        self.tracer = TraceRecorder(
            self.registry,
            sample_rate=self.config.trace_sample_rate,
            capacity=self.config.trace_capacity,
            path=self.config.trace_file,
            span_metrics=SpanMetrics(self.registry, auto_prefix="serve_stage"),
        )
        r = self.registry
        self._requests = r.counter("serve_requests_total", "HTTP requests handled")
        self._errors = r.counter("serve_errors_total", "HTTP error responses sent")
        self._registrations = r.counter(
            "serve_workers_registered_total", "Workers registered"
        )
        self._completions = r.counter(
            "serve_completions_total", "Task completions recorded"
        )
        self._tasks_admitted = r.counter(
            "serve_tasks_admitted_total", "Tasks admitted via POST /tasks"
        )
        self._arrival_batches = r.counter(
            "serve_task_arrival_batches_total",
            "POST /tasks batches admitted",
        )
        self._admissions_rejected = r.counter(
            "serve_task_admissions_rejected_total",
            "POST /tasks batches rejected (collision or validation)",
        )
        self._reassignments = r.counter(
            "serve_reassignments_total", "Displays installed by batched solves"
        )
        self._displayed = r.counter(
            "serve_tasks_displayed_total", "Tasks displayed (assigned + pads)"
        )
        self._violations = r.counter(
            "serve_disjointness_violations_total",
            "Displays violating C1/C2 disjointness (must stay 0)",
        )
        self._request_seconds = r.histogram(
            "serve_request_seconds", "End-to-end request latency in seconds"
        )
        self._deadline_exceeded = r.counter(
            "serve_deadline_exceeded_total",
            "Requests answered from the stale display after a deadline miss",
        )
        self._degraded_responses = r.counter(
            "serve_degraded_responses_total",
            "Requests answered from the stale display after a solve failure",
        )
        self._snapshots_taken = r.counter(
            "serve_snapshots_total", "State snapshots persisted"
        )
        self._restores = r.counter(
            "serve_restores_total", "State restores from a snapshot"
        )
        self._deduplicated = r.counter(
            "serve_deduplicated_completions_total",
            "Retried completions answered from the completion cache",
        )
        # (worker_id, completion_key) -> the original /complete response.
        # Scoped per registration epoch: entries are purged when the worker
        # unregisters or registers afresh, so a later worker reusing the
        # same key never receives a stale cached event.
        self._completion_cache: OrderedDict[tuple[str, str], dict] = OrderedDict()
        self._recorder: FlightRecorder | None = None
        if self.config.journal_path:
            if self.config.seed is None:
                raise ValueError(
                    "journal recording requires an explicit seed: a journal "
                    "without the RNG origin cannot replay deterministically"
                )
            self._recorder = FlightRecorder(
                self.config.journal_path,
                header={
                    "strategy": self.config.strategy,
                    "seed": self.config.seed,
                    "service": asdict(self.config.service),
                    "pool_sha": pool_fingerprint(pool),
                    "corpus": self.config.corpus_spec,
                    "quality": (
                        None
                        if self.config.quality is None
                        else self.config.quality.to_dict()
                    ),
                    "recorded_with": {
                        "fault_plan": (
                            None
                            if self.config.fault_plan is None
                            else self.config.fault_plan.to_dict()
                        ),
                    },
                },
            )
        if self.config.restore:
            self.restore_latest()

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binds)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        from .scheduler import SolveScheduler

        self.scheduler = SolveScheduler(
            self._solve_batch,
            self.registry,
            max_batch_delay=self.config.max_batch_delay,
            max_batch_size=self.config.max_batch_size,
            solve_observer=self.degradation.observe_solve,
        )
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started_at = time.monotonic()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.scheduler is not None:
            await self.scheduler.stop()
            self.scheduler = None
        self.snapshot_now()
        if self._recorder is not None:
            # Final bit-identity anchor: a replay that matched every event
            # must also land on this exact state hash, RNG position included.
            self._recorder.record_end(
                state_fingerprint(self._state_payload())
            )
            self._recorder.close()
        self.tracer.close()

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``repro serve`` CLI entry point)."""
        await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    def _wall_time(self) -> float:
        return time.monotonic() - self._started_at

    # -- solve batching -----------------------------------------------------

    def _solve_batch(self, worker_ids, ctx: SolveContext) -> dict[str, TasksAssigned]:
        """One assignment iteration for a scheduler batch.

        Runs the prepare → solve → commit protocol with the solver on a
        derived per-solve seed, the same protocol ``repro replay`` drives,
        so a recorded journal replays bit-identically
        (``repro replay`` proves it per run).
        """
        tier = self.degradation.strategy
        ctx.attrs["tier"] = tier
        with ctx.span("prepare"):
            prepared = self.service.prepare_solve(worker_ids, solver_name=tier)
        if prepared is None:
            return {}
        if self._recorder is not None:
            self._recorder.record_lease(prepared, ctx.attrs.get("trace_ids"))
        try:
            with ctx.span("solve", tier=tier):
                if self.fault is not None:
                    self.fault.on_solve()
                assigned = execute_prepared(prepared)
        except Exception:
            # Prepare took nothing out of the pool, so there is nothing to
            # undo: journal the failure and let the scheduler fail the batch.
            if self._recorder is not None:
                self._recorder.record_abandon(prepared)
            self.degradation.observe_solve_failure()
            raise
        with ctx.span("commit"):
            wall_time = self._wall_time()
            events = self.service.commit_solve(prepared, assigned, wall_time)
            if self._recorder is not None:
                self._recorder.record_commit(prepared, wall_time, events)
            for event in events.values():
                self._register_display(event)
                self._reassignments.inc()
            self._quality_tick()
            self._maybe_snapshot()
        return events

    def _register_display(self, event: TasksAssigned) -> None:
        """Server-side C1/C2 guard over every display ever installed."""
        shown = tuple(event.task_ids) + tuple(event.random_pad_ids)
        if len(set(shown)) != len(shown) or self._displayed_ever & set(shown):
            self._violations.inc()
        self._displayed_ever.update(shown)
        self._displayed.inc(len(shown))
        if self.quality is not None and self.quality.active:
            # Quality extras for this display: maybe one gold probe plus
            # replica aliases.  Recorded even when empty — on_display also
            # expires the worker's stale aliases, so replay must drive it
            # at every install, in this exact order.
            extras = self.quality.on_display(event.worker_id, event.iteration)
            alias_ids = [task.task_id for task in extras]
            self._displayed_ever.update(alias_ids)
            if alias_ids:
                self._displayed.inc(len(alias_ids))
            if self._recorder is not None:
                self._recorder.record_probe(
                    event.worker_id, event.iteration, alias_ids
                )

    def _quality_tick(self) -> None:
        """Fold pending reputation evidence after a committed solve batch."""
        if self.quality is None or not self.quality.active:
            return
        self.quality.on_tick()
        if self._recorder is not None:
            self._recorder.record_tick()

    # -- snapshot / restore --------------------------------------------------

    def _state_payload(self) -> dict:
        """The daemon's full mutable state: the unit snapshots persist and
        the ``end`` journal fingerprint covers (replay rebuilds the same
        payload, see :meth:`repro.serve.replay._ReplayState.end_payload`)."""
        payload = {
            "service": self.service.snapshot_state(),
            "displayed_ever": sorted(self._displayed_ever),
        }
        if self.quality is not None:
            payload["quality"] = self.quality.state_dict()
        return payload

    def snapshot_now(self) -> bool:
        """Persist the daemon's full mutable state; no-op without a store."""
        if self._snapshots is None:
            return False
        payload = self._state_payload()
        if self._recorder is not None:
            # Journal/snapshot rendezvous: a restored daemon's journal can be
            # stitched to its predecessor's at this seq.
            payload["journal_seq"] = self._recorder.seq
        snapshot_id = self._snapshots.save(SNAPSHOT_KIND, payload)
        self._snapshots_taken.inc()
        if self._recorder is not None:
            self._recorder.record_snapshot(snapshot_id)
        return True

    def restore_latest(self) -> bool:
        """Resume from the most recent snapshot, if one exists.

        Restores the service (pool, workers, displays, estimator, RNG) and
        the daemon's C2 ledger, then re-syncs the diversity cache against the
        restored pool — tasks displayed by the previous process must be dead
        rows here too, or the cache would serve stale candidates.
        """
        if self._snapshots is None:
            return False
        record = self._snapshots.latest_record(SNAPSHOT_KIND)
        if record is None:
            return False
        state = record.state
        self.service.restore_state(state["service"], self._task_index)
        # Tasks admitted by the previous process never existed in the
        # startup corpus; the snapshot's arrival log rebuilt them — index
        # them and append their cache rows before the removal sync below
        # marks whichever of them were already displayed as dead.
        admitted = self.service.admitted_tasks()
        for task in admitted:
            self._task_index[task.task_id] = task
        if admitted:
            self.cache.on_added(admitted)
            if self.quality is not None:
                self.quality.on_admitted(admitted)
        self._displayed_ever = set(state["displayed_ever"])
        if self.quality is not None and "quality" in state:
            self.quality.load_state_dict(state["quality"])
        pool_state = self.service.pool_state
        self.cache.on_removed(
            [tid for tid in self._task_index if tid not in pool_state]
        )
        self._restores.inc()
        if self._recorder is not None:
            self._recorder.record_restore(state, record.snapshot_id)
        return True

    def _maybe_snapshot(self) -> None:
        if self._snapshots is None or self.config.snapshot_every <= 0:
            return
        self._solves_since_snapshot += 1
        if self._solves_since_snapshot >= self.config.snapshot_every:
            self._solves_since_snapshot = 0
            self.snapshot_now()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(
                        json_response(
                            exc.status, {"error": exc.message}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                if self.fault is not None:
                    corrupted = self.fault.corrupt_body(request.body)
                    if corrupted is not None:
                        request.body = corrupted
                    if self.fault.drop_connection():
                        return
                response = await self._dispatch(request)
                if self.fault is not None and self.fault.drop_response():
                    # Lost-ack injection: the request *ran* (state mutated,
                    # completions recorded) but the client never hears back
                    # and will retry.  Retried mutations must be idempotent.
                    return
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request) -> bytes:
        self._requests.inc()
        started = time.perf_counter()
        keep_alive = request.keep_alive
        trace = self.tracer.start(
            "request", method=request.method, path=request.path
        )
        # Sampled requests echo their trace id so clients (and the loadgen's
        # differential suite) can correlate a measured latency with a trace.
        headers = {"x-trace-id": trace.trace_id} if trace else None
        status = 200
        try:
            payload = await self._route(request, trace)
            response = (
                payload
                if isinstance(payload, bytes)
                else json_response(
                    200, payload, keep_alive=keep_alive, extra_headers=headers
                )
            )
        except HttpError as exc:
            self._errors.inc()
            status = exc.status
            response = json_response(
                exc.status,
                {"error": exc.message},
                keep_alive=keep_alive,
                extra_headers=headers,
            )
        except Exception as exc:  # don't let one request kill the daemon
            self._errors.inc()
            status = 500
            response = json_response(
                500,
                {"error": f"{type(exc).__name__}: {exc}"},
                keep_alive=keep_alive,
                extra_headers=headers,
            )
        self._request_seconds.observe(time.perf_counter() - started)
        trace.close(
            status="ok" if status < 500 else "error", http_status=status
        )
        return response

    async def _route(self, request: Request, trace) -> object:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return self._healthz()
        if path == "/metrics" and method == "GET":
            return text_response(
                200, self.registry.render(), keep_alive=request.keep_alive
            )
        if path == "/vocabulary" and method == "GET":
            return {"keywords": list(self._vocabulary.keywords)}
        if path == "/quality" and method == "GET":
            if self.quality is None:
                return {"active": False}
            return self.quality.quality_payload()
        if path == "/workers" and method == "POST":
            return await self._post_workers(request, trace)
        if path == "/tasks" and method == "POST":
            return await self._post_tasks(request, trace)
        if path == "/complete" and method == "POST":
            return await self._post_complete(request, trace)
        if path.startswith("/display/") and method == "GET":
            return self._get_display(path.removeprefix("/display/"))
        if path.startswith("/trace/") and method == "GET":
            return self._get_trace(path.removeprefix("/trace/"))
        if path.startswith("/workers/") and method == "DELETE":
            return self._delete_worker(path.removeprefix("/workers/"))
        raise HttpError(404, f"no route for {method} {request.path}")

    # -- endpoints -----------------------------------------------------------

    def _healthz(self) -> dict:
        payload = {
            "status": "ok",
            "strategy": self.service.strategy,
            "active_strategy": self.degradation.strategy,
            "uptime_seconds": round(self._wall_time(), 3),
            "workers": len(self.service.active_workers()),
            "remaining_tasks": self.service.remaining_tasks(),
            "queued_solves": self.scheduler.pending if self.scheduler else 0,
            "cache": {
                "live_tasks": len(self.cache),
                "backing_rows": self.cache.backing_rows,
                "allocated_rows": self.cache.allocated_rows,
                "carves": self.cache.carves,
                "compactions": self.cache.compactions,
                "appends": self.cache.appends,
            },
            "admitted_tasks": len(self.service.admitted_tasks()),
            "resilience": self.degradation.describe(),
        }
        if self.fault is not None:
            payload["fault_injection"] = self.fault.describe()
        if self._snapshots is not None:
            payload["snapshots"] = {
                "path": self.config.snapshot_path,
                "retained": self._snapshots.count(SNAPSHOT_KIND),
            }
        return payload

    def _get_trace(self, trace_id: str) -> dict:
        trace = self.tracer.get(trace_id)
        if trace is None:
            raise HttpError(
                404, f"no retained trace {trace_id!r} (unsampled, open, or evicted)"
            )
        return trace.to_dict()

    async def _post_workers(self, request: Request, trace) -> dict:
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "expected a JSON object")
        worker_id = body.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            raise HttpError(400, "worker_id must be a non-empty string")
        vector = self._decode_interest(body)
        if self.service.remaining_tasks() == 0:
            raise HttpError(503, "task pool exhausted")
        trace.set_attrs(worker_id=worker_id)
        existing = self.service.worker_of(worker_id)
        if existing is not None:
            if np.array_equal(existing.vector, vector):
                # Idempotent re-registration: a client whose original
                # response was lost retries with the same interests; hand
                # back the current display instead of failing the retry.
                display = self.service.display_of(worker_id)
                return {
                    "worker_id": worker_id,
                    "already_registered": True,
                    "display": self._current_display_payload(worker_id, display),
                }
            raise HttpError(
                409,
                f"worker {worker_id!r} already registered with different "
                f"interests",
            )
        try:
            with trace.span("register"):
                event = self.service.register_worker(
                    Worker(worker_id, vector),
                    self._wall_time(),
                    solver_name=self.degradation.strategy,
                )
        except SimulationError as exc:
            raise HttpError(409, str(exc)) from None
        self._forget_completions(worker_id)
        self._register_display(event)
        self._registrations.inc()
        if self._recorder is not None:
            self._recorder.record_register(
                worker_id,
                vector,
                self.degradation.strategy,
                event,
                trace.trace_id,
            )
        return {"worker_id": worker_id, "display": self._display_payload(worker_id, event)}

    def _decode_interest(self, body: dict) -> np.ndarray:
        keywords = body.get("keywords")
        vector = body.get("vector")
        if keywords is not None:
            if not isinstance(keywords, list) or not all(
                isinstance(k, str) for k in keywords
            ):
                raise HttpError(400, "keywords must be a list of strings")
            unknown = [k for k in keywords if k not in self._vocabulary]
            if unknown:
                raise HttpError(400, f"unknown keywords: {unknown[:5]}")
            return self._vocabulary.encode(keywords)
        if vector is not None:
            array = np.asarray(vector, dtype=bool)
            if array.shape != (len(self._vocabulary),):
                raise HttpError(
                    400,
                    f"vector must have length {len(self._vocabulary)}, "
                    f"got {array.shape}",
                )
            return array
        raise HttpError(400, "provide either 'keywords' or 'vector'")

    async def _post_tasks(self, request: Request, trace) -> dict:
        """Open-world ingestion: admit a batch of new tasks into the pool.

        The batch is all-or-nothing: any malformed entry (400) or id
        collision (409 — against the corpus, a previously displayed task,
        an earlier arrival, or a quality alias) rejects the whole batch
        with no state mutated.  On success the tasks join the live pool in
        batch order, the diversity cache grows by block append (it
        subscribes to the pool's arrival events), the quality layer indexes
        them for future ballots, and the arrival is journaled so replay
        can rebuild tasks the startup corpus never contained.
        """
        try:
            tasks = self._decode_task_batch(request.json())
        except HttpError:
            self._admissions_rejected.inc()
            raise
        try:
            admitted = self.service.admit_tasks(tasks)
        except SimulationError as exc:
            self._admissions_rejected.inc()
            raise HttpError(409, str(exc)) from None
        for task in tasks:
            self._task_index[task.task_id] = task
        if self.quality is not None:
            self.quality.on_admitted(tasks)
        self._tasks_admitted.inc(len(tasks))
        self._arrival_batches.inc()
        trace.set_attrs(tasks_admitted=len(tasks))
        if self._recorder is not None:
            self._recorder.record_task_arrival(tasks, trace.trace_id)
        return {
            "admitted": admitted,
            "remaining_tasks": self.service.remaining_tasks(),
        }

    def _decode_task_batch(self, body) -> list[Task]:
        """Validate one ``POST /tasks`` body into :class:`Task` objects."""
        if not isinstance(body, dict):
            raise HttpError(400, "expected a JSON object")
        entries = body.get("tasks")
        if not isinstance(entries, list) or not entries:
            raise HttpError(400, "tasks must be a non-empty list")
        tasks: list[Task] = []
        seen: set[str] = set()
        for entry in entries:
            if not isinstance(entry, dict):
                raise HttpError(400, "each task must be a JSON object")
            task_id = entry.get("task_id")
            if not isinstance(task_id, str) or not task_id:
                raise HttpError(400, "task_id must be a non-empty string")
            if task_id in seen:
                raise HttpError(400, f"duplicate task_id {task_id!r} in batch")
            seen.add(task_id)
            if (
                task_id in self._task_index
                or task_id in self._displayed_ever
                or (
                    self.quality is not None
                    and self.quality.is_quality_task(task_id)
                )
            ):
                raise HttpError(
                    409, f"task {task_id!r} already exists; batch rejected"
                )
            vector = self._decode_interest(entry)
            group = entry.get("group", "")
            title = entry.get("title", "")
            if not isinstance(group, str) or not isinstance(title, str):
                raise HttpError(400, "group and title must be strings")
            try:
                task = Task(
                    task_id=task_id,
                    vector=vector,
                    group=group,
                    title=title,
                    reward=float(entry.get("reward", 0.05)),
                    n_questions=int(entry.get("n_questions", 1)),
                )
            except (TypeError, ValueError) as exc:
                raise HttpError(400, str(exc)) from None
            tasks.append(task)
        return tasks

    async def _post_complete(self, request: Request, trace) -> dict:
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "expected a JSON object")
        worker_id = body.get("worker_id")
        task_id = body.get("task_id")
        if not isinstance(worker_id, str) or not isinstance(task_id, str):
            raise HttpError(400, "worker_id and task_id must be strings")
        completion_key = body.get("completion_key")
        if completion_key is not None and not isinstance(completion_key, str):
            raise HttpError(400, "completion_key must be a string")
        answer = body.get("answer")
        if answer is not None:
            if not isinstance(answer, int) or isinstance(answer, bool):
                raise HttpError(400, "answer must be an integer label")
            if self.quality is None:
                answer = None  # no quality layer to consume it
        # Parse the deadline before mutating any state: a malformed header
        # must not leave a recorded completion behind its 400.
        deadline = self._request_deadline(request)
        if completion_key is not None:
            cached = self._completion_cache.get((worker_id, completion_key))
            if cached is not None:
                # Duplicate delivery (the original response was lost and the
                # client retried): the completion is already recorded, so
                # re-deliver the original response instead of 409ing.
                self._deduplicated.inc()
                trace.set_attrs(worker_id=worker_id, deduplicated=True)
                return {**cached, "deduplicated": True}
        if self.quality is not None and self.quality.is_quality_task(task_id):
            return self._complete_quality_task(
                worker_id, task_id, answer, completion_key, trace
            )
        try:
            self.service.observe_completion(worker_id, task_id)
        except SimulationError as exc:
            raise HttpError(409, str(exc)) from None
        self._completions.inc()
        if self._recorder is not None:
            self._recorder.record_complete(
                worker_id, task_id, trace.trace_id, completion_key, answer
            )
        if self.quality is not None:
            self.quality.on_answer(worker_id, task_id, answer)
        trace.set_attrs(worker_id=worker_id)
        reassigned = False
        deadline_exceeded = False
        if (
            self.service.needs_reassignment(worker_id)
            and self.scheduler is not None
        ):
            try:
                event = await asyncio.wait_for(
                    self.scheduler.submit(worker_id, trace=trace), timeout=deadline
                )
                reassigned = event is not None
            except asyncio.TimeoutError:
                # The batch is still queued and will install the display
                # when it runs; this request answers *now* with the stale
                # one rather than blowing its budget.  The trace closes with
                # the response; the batch's spans arrive after close and
                # are counted as late spans, not recorded.
                deadline_exceeded = True
                self._deadline_exceeded.inc()
                self.degradation.observe_deadline_miss()
                trace.add_span(
                    "deadline",
                    deadline,
                    status="error",
                    error="request deadline expired before the solve landed",
                )
            except Exception:
                # The batched solve failed (injected or real).  The error is
                # already counted by the scheduler (and the trace carries the
                # batch's solve_error span); this worker keeps its current
                # display and the daemon stays within its contract.
                self._degraded_responses.inc()
        trace.set_attrs(
            reassigned=reassigned, deadline_exceeded=deadline_exceeded
        )
        try:
            display = self.service.display_of(worker_id)
        except SimulationError:
            # The worker unregistered while this request waited on the solve.
            payload = {
                "worker_id": worker_id,
                "completed": task_id,
                "reassigned": False,
                "deadline_exceeded": deadline_exceeded,
                "display": None,
            }
        else:
            payload = {
                "worker_id": worker_id,
                "completed": task_id,
                "reassigned": reassigned,
                "deadline_exceeded": deadline_exceeded,
                "display": self._current_display_payload(worker_id, display),
            }
        self._remember_completion(worker_id, completion_key, payload)
        return payload

    def _complete_quality_task(
        self,
        worker_id: str,
        task_id: str,
        answer: "int | None",
        completion_key: "str | None",
        trace,
    ) -> dict:
        """A completion for a gold/replica alias.

        The alias never existed in the assignment service, so the service is
        not consulted and no reassignment is triggered; the response is
        shaped exactly like an ordinary completion — a client must not be
        able to tell it just answered a gold question.
        """
        if task_id not in self.quality.overlay_ids(worker_id):
            raise HttpError(
                409,
                f"task {task_id!r} is not on worker {worker_id!r}'s display",
            )
        if self._recorder is not None:
            self._recorder.record_complete(
                worker_id, task_id, trace.trace_id, completion_key, answer
            )
        self.quality.on_answer(worker_id, task_id, answer)
        self._completions.inc()
        trace.set_attrs(worker_id=worker_id, quality_task=True)
        try:
            display = self.service.display_of(worker_id)
        except SimulationError:
            display_payload = None
        else:
            display_payload = self._current_display_payload(worker_id, display)
        payload = {
            "worker_id": worker_id,
            "completed": task_id,
            "reassigned": False,
            "deadline_exceeded": False,
            "display": display_payload,
        }
        self._remember_completion(worker_id, completion_key, payload)
        return payload

    def _remember_completion(
        self, worker_id: str, key: "str | None", payload: dict
    ) -> None:
        """Cache a completion response for duplicate delivery (bounded)."""
        if key is None:
            return
        self._completion_cache[(worker_id, key)] = payload
        while len(self._completion_cache) > COMPLETION_CACHE_CAP:
            self._completion_cache.popitem(last=False)

    def _forget_completions(self, worker_id: str) -> None:
        """Drop a worker's cached completions when its registration epoch
        ends: keys are client-chosen and a future registration under the
        same worker id may legitimately reuse them."""
        stale = [k for k in self._completion_cache if k[0] == worker_id]
        for k in stale:
            del self._completion_cache[k]

    def _request_deadline(self, request: Request) -> float:
        """Effective deadline: the server budget, tightened by the client.

        Clients propagate their remaining budget via ``x-deadline-ms``; the
        header can only shorten the server-side deadline, never extend it.
        """
        deadline = self.config.resilience.request_deadline
        header = request.headers.get("x-deadline-ms")
        if header is None:
            return deadline
        try:
            client_ms = float(header)
        except ValueError:
            raise HttpError(400, f"bad x-deadline-ms: {header!r}") from None
        if client_ms <= 0:
            raise HttpError(400, f"x-deadline-ms must be > 0, got {header!r}")
        return min(deadline, client_ms / 1000.0)

    def _get_display(self, worker_id: str) -> dict:
        try:
            display = self.service.display_of(worker_id)
        except SimulationError as exc:
            raise HttpError(404, str(exc)) from None
        return {
            "worker_id": worker_id,
            "display": self._current_display_payload(worker_id, display),
        }

    def _delete_worker(self, worker_id: str) -> dict:
        removed = self.service.unregister_worker(worker_id)
        if removed:
            self._forget_completions(worker_id)
            if self.quality is not None:
                self.quality.on_unregister(worker_id)
            if self._recorder is not None:
                self._recorder.record_unregister(worker_id)
        # Idempotent by construction: a retried DELETE finds the worker
        # already gone and still reports success.
        return {"worker_id": worker_id, "status": "unregistered"}

    # -- payload shaping ------------------------------------------------------

    def _task_payload(self, task_id: str) -> dict:
        task = self._task_index.get(task_id)
        if task is None and self.quality is not None:
            # A gold/replica alias: render the underlying task under the
            # alias id — indistinguishable from a real task to the client.
            task = self.quality.task_for_display(task_id)
        if task is None:
            raise KeyError(f"no task {task_id!r} to render")
        return {
            "task_id": task_id,
            "title": task.title,
            "group": task.group,
            "keywords": list(task.keywords(self._vocabulary)),
        }

    def _overlay_ids(self, worker_id: str) -> list[str]:
        if self.quality is None:
            return []
        return self.quality.overlay_ids(worker_id)

    def _display_payload(self, worker_id: str, event: TasksAssigned) -> dict:
        shown = list(event.task_ids) + list(event.random_pad_ids)
        shown += self._overlay_ids(worker_id)
        return {
            "iteration": event.iteration,
            "alpha": event.alpha,
            "beta": event.beta,
            "assigned": list(event.task_ids),
            "random_pad": list(event.random_pad_ids),
            "tasks": [self._task_payload(tid) for tid in shown],
            "pending": shown,
        }

    def _current_display_payload(self, worker_id: str, display) -> dict:
        weights = self.service.weights_of(worker_id)
        pending = [display.task_ids[i] for i in display.pending()]
        overlay = self._overlay_ids(worker_id)
        return {
            "iteration": display.iteration,
            "alpha": weights.alpha,
            "beta": weights.beta,
            "tasks": [
                self._task_payload(tid)
                for tid in list(display.task_ids) + overlay
            ],
            "pending": pending + overlay,
        }


async def run_daemon(pool: TaskPool, config: ServeConfig | None = None) -> None:
    """Convenience runner: serve until cancelled / interrupted."""
    daemon = AssignmentDaemon(pool, config)
    await daemon.serve_forever()
