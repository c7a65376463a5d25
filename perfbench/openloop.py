"""Open-loop load for the serving workloads.

One process, one thread, one asyncio loop.  Requests go out when they are
due, whatever the daemon is doing, over a fixed handful of keep-alive
HTTP/1.1 connections: a request is written to the connection with the
fewest answers outstanding and answers are matched in order (pipelining).
Every latency is timed from the request's *due* time, so a stall also
counts against the requests queued behind it.

Completions arrive as a Poisson process per phase (independent workers).
Each due completion goes to an idle simulated worker: the seed pre-draws a
preferred worker per completion, and when that worker still has a request
in flight the next idle one in order takes it; when none is idle the
completion waits in a backlog.  A worker never has two requests in flight.
The worker picks which pending task to complete with the program's own
choice model (:class:`repro.crowd.behavior.WorkerBehavior`).

An optional requester posts bursts of new tasks (``POST /tasks``) on its
own Poisson schedule, one post in flight at a time; each burst tops the
open pool back up towards a target, as a requester keeping work available
would, so the pool neither drains nor wanders off.

The client-side C1/C2 oracle checks every display the daemon hands out: no
task id may appear in two displays, or twice in one.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.crowd.service import ServiceConfig
from stats import mean, percentile

#: Recent completions a simulated worker compares a task with (novelty).
RECENT = 3
#: Labels a simulated worker's answer is drawn from.
N_LABELS = 4
#: The daemon's reassignment policy (it runs with the service defaults).
REASSIGN = ServiceConfig()


@dataclass(frozen=True)
class Phase:
    name: str
    rate: float  # offered completions per second
    seconds: float
    measured: bool = True


@dataclass
class PhaseStats:
    """What one phase sent, got back, and how late the generator ran."""

    phase: Phase
    sent: int = 0
    ok: int = 0
    failed: int = 0
    stale: int = 0
    late_s: list = field(default_factory=list)
    complete_s: list = field(default_factory=list)
    ingest_s: list = field(default_factory=list)
    #: ``(request_id, due, received)`` of every answer with a fresh display.
    assigned: list = field(default_factory=list)
    backlog_max: int = 0
    outstanding_at_end: int = 0
    #: CPU seconds the daemon spent while the phase ran.
    cpu_s: float = 0.0
    errors: list = field(default_factory=list)

    @property
    def assign_s(self) -> list:
        """Latency of every answer that carried a fresh display."""
        return [received - due for _, due, received in self.assigned]

    def keeps_up(self) -> bool:
        """No growing backlog: what is still unanswered when the phase ends
        is less than one second of offered load."""
        return self.outstanding_at_end < max(1.0, self.phase.rate)

    def summary(self) -> dict:
        return {
            "phase": self.phase.name,
            "rate": self.phase.rate,
            "seconds": self.phase.seconds,
            "sent": self.sent,
            "ok": self.ok,
            "failed": self.failed,
            "stale": self.stale,
            "completions": len(self.complete_s),
            "assigns": len(self.assign_s),
            "ingests": len(self.ingest_s),
            "late_s.p99": percentile(self.late_s, 99),
            "late_s.max": max(self.late_s, default=0.0),
            "backlog_max": self.backlog_max,
            "outstanding_at_end": self.outstanding_at_end,
            "cpu_s": self.cpu_s,
            "complete_s.p50": percentile(self.complete_s, 50),
            "complete_s.p99": percentile(self.complete_s, 99),
            "assign_s.p50": percentile(self.assign_s, 50),
            "assign_s.p90": percentile(self.assign_s, 90),
            "assign_s.mean": mean(self.assign_s),
            "ingest_s.p50": percentile(self.ingest_s, 50),
            "ingest_s.p90": percentile(self.ingest_s, 90),
        }


def completion_schedule(seed: int, phases, n_workers: int):
    """``[(due_offset_s, preferred_worker, phase_index)]`` for all phases.

    A pure function of the seed: the same seed gives the same due times
    and the same preferred-worker sequence.
    """
    rng = np.random.default_rng([seed, 1])
    schedule = []
    start = 0.0
    for index, phase in enumerate(phases):
        t = start
        while True:
            t += rng.exponential(1.0 / phase.rate)
            if t >= start + phase.seconds:
                break
            schedule.append((t, int(rng.integers(n_workers)), index))
        start += phase.seconds
    return schedule


def burst_schedule(seed: int, phases, bursts_per_s: float):
    """``[(due_offset_s, phase_index)]`` of requester bursts."""
    rng = np.random.default_rng([seed, 2])
    schedule = []
    start = 0.0
    for index, phase in enumerate(phases):
        t = start
        while bursts_per_s > 0:
            t += rng.exponential(1.0 / bursts_per_s)
            if t >= start + phase.seconds:
                break
            schedule.append((t, index))
        start += phase.seconds
    return schedule


class Connection:
    """One keep-alive HTTP/1.1 connection with pipelined requests."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.pending: collections.deque = collections.deque()
        #: Outstanding requests expected to wait on a solve.
        self.slow = 0
        self._reader = self._writer = self._task = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        self._task = asyncio.get_running_loop().create_task(self._read_loop())

    def send(self, method: str, path: str, payload=None, request_id=None) -> asyncio.Future:
        """Write the request now; the future resolves to
        ``(status, body_bytes, received_at)``.  ``request_id`` travels as
        ``x-perfbench-id`` so a traced daemon can label its spans with it."""
        body = b"" if payload is None else json.dumps(payload).encode()
        tag = "" if request_id is None else f"x-perfbench-id: {request_id}\r\n"
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n{tag}\r\n"
        ).encode("latin-1")
        future = asyncio.get_running_loop().create_future()
        self.pending.append(future)
        self._writer.write(head + body)
        return future

    async def _read_loop(self) -> None:
        try:
            while True:
                head = await self._reader.readuntil(b"\r\n\r\n")
                status = int(head[9:12])
                length = 0
                for line in head.split(b"\r\n"):
                    if line[:15].lower() == b"content-length:":
                        length = int(line[15:])
                body = await self._reader.readexactly(length) if length else b""
                self.pending.popleft().set_result((status, body, time.perf_counter()))
        except (asyncio.IncompleteReadError, ConnectionError, asyncio.CancelledError) as exc:
            while self.pending:
                future = self.pending.popleft()
                if not future.done():
                    future.set_exception(ConnectionError(f"connection lost: {exc!r}"))

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)


def _jaccard_distance(a: frozenset, b: frozenset) -> float:
    union = len(a | b)
    return 1.0 - len(a & b) / union if union else 0.0


class SimWorker:
    """One simulated crowd worker: its interests, display and choice model."""

    def __init__(self, worker_id: str, keywords, behavior):
        self.worker_id = worker_id
        self.keywords = frozenset(keywords)
        self.behavior = behavior
        self.busy = False
        self.stale = False
        self.pending: list[str] = []
        self.task_keywords: dict[str, frozenset] = {}
        self.recent: collections.deque = collections.deque(maxlen=RECENT)
        self.iteration = -1
        self.completed_since_display = 0

    def install(self, display: dict) -> None:
        if display["iteration"] != self.iteration:
            self.completed_since_display = 0
        self.iteration = display["iteration"]
        self.pending = list(display["pending"])
        self.task_keywords = {
            t["task_id"]: frozenset(t["keywords"]) for t in display["tasks"]
        }

    def choose(self) -> str:
        """The next task, picked by the behaviour model's softmax choice."""
        novelties = [
            np.mean([_jaccard_distance(self.task_keywords[t], r) for r in self.recent])
            if self.recent
            else 1.0
            for t in self.pending
        ]
        relevances = [
            1.0 - _jaccard_distance(self.task_keywords[t], self.keywords)
            for t in self.pending
        ]
        return self.pending[self.behavior.choose_next(np.array(novelties), np.array(relevances))]

    def completed(self, task_id: str) -> None:
        self.recent.append(self.task_keywords[task_id])
        self.completed_since_display += 1

    def next_completion_reassigns(self) -> bool:
        """Whether the daemon's default policy will solve on the next
        completion (it reassigns after ``reassign_after`` completions or when
        fewer than ``min_pending`` tasks would remain)."""
        return (self.completed_since_display + 1 >= REASSIGN.reassign_after
                or len(self.pending) - 1 < REASSIGN.min_pending)


class DisplayOracle:
    """Client-side C1/C2 check over every display handed out."""

    def __init__(self):
        self.seen: set[str] = set()
        self.violations = 0

    def check(self, display: dict) -> None:
        ids = [t["task_id"] for t in display["tasks"]]
        if len(set(ids)) != len(ids) or self.seen.intersection(ids):
            self.violations += 1
        self.seen.update(ids)


class OpenLoop:
    """Drives one daemon through a list of phases."""

    def __init__(self, host, port, workers, phases, seed, connections,
                 bursts=None, task_factory=None, cpu_probe=None):
        self.host, self.port = host, port
        self.workers = workers
        self.phases = phases
        self.seed = seed
        self.n_connections = connections
        #: Requester: ``{"per_s", "target", "min", "max"}`` — Poisson bursts,
        #: each topping the open pool back up towards ``target`` tasks.
        self.bursts = bursts or {"per_s": 0.0}
        self._pool_left = None
        self.task_factory = task_factory
        #: Returns the daemon's CPU seconds so far; read at phase boundaries.
        self.cpu_probe = cpu_probe
        self.stats = [PhaseStats(p) for p in phases]
        self.oracle = DisplayOracle()
        self.conns: list[Connection] = []
        self._backlog: collections.deque = collections.deque()
        self._outstanding = 0
        self._seq = 0
        self._rng = np.random.default_rng([seed, 3])
        self._requester_busy = False
        self._burst_backlog: collections.deque = collections.deque()
        self._bursts_posted = 0
        self._t0 = 0.0

    # -- connections ---------------------------------------------------------

    async def connect(self) -> None:
        for _ in range(self.n_connections):
            conn = Connection(self.host, self.port)
            await conn.open()
            self.conns.append(conn)

    def _send(self, method, path, payload=None, request_id=None, slow=False) -> asyncio.Future:
        """Send on the connection least likely to hold the request behind
        another: first one without a request waiting on a solve, then the
        one with the fewest answers outstanding.  This keeps the harness's
        own head-of-line blocking out of what is measured as far as two
        connections allow."""
        conn = min(self.conns, key=lambda c: (c.slow, len(c.pending)))
        future = conn.send(method, path, payload, request_id)
        if slow:
            conn.slow += 1

            def done(_future, conn=conn):
                conn.slow -= 1

            future.add_done_callback(done)
        return future

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()

    async def register(self) -> None:
        """Register every simulated worker (set-up, not measured)."""
        futures = [
            self._send("POST", "/workers", {"worker_id": w.worker_id,
                                            "keywords": sorted(w.keywords)})
            for w in self.workers
        ]
        for worker, future in zip(self.workers, futures):
            status, body, _ = await future
            if status != 200:
                raise RuntimeError(f"registering {worker.worker_id}: {status} {body[:200]!r}")
            display = json.loads(body)["display"]
            self.oracle.check(display)
            worker.install(display)

    # -- the loop --------------------------------------------------------------

    async def run(self) -> None:
        schedule = completion_schedule(self.seed, self.phases, len(self.workers))
        bursts = burst_schedule(self.seed, self.phases, self.bursts["per_s"])
        events = sorted(
            [(t, 0, worker, index) for t, worker, index in schedule]
            + [(t, 1, None, index) for t, index in bursts]
        )
        self._t0 = time.perf_counter() + 0.05
        boundaries = list(np.cumsum([p.seconds for p in self.phases]))
        phase_cpu = self._cpu()
        closed = 0

        async def close_phases_until(offset: float) -> None:
            nonlocal closed, phase_cpu
            while closed < len(boundaries) and offset >= boundaries[closed]:
                await self._sleep_until(self._t0 + boundaries[closed])
                stats = self.stats[closed]
                stats.outstanding_at_end = self._outstanding
                cpu = self._cpu()
                stats.cpu_s, phase_cpu = cpu - phase_cpu, cpu
                closed += 1

        for offset, kind, preferred, index in events:
            await close_phases_until(offset)
            due = self._t0 + offset
            await self._sleep_until(due)
            self.stats[index].late_s.append(time.perf_counter() - due)
            if kind == 0:
                self._outstanding += 1
                self._due_completion(due, preferred, index)
            else:
                self._due_burst(due, index)
        await close_phases_until(boundaries[-1])
        if self.unanswered:
            try:
                await asyncio.wait_for(self._drained(), 30.0)
            except asyncio.TimeoutError:
                pass

    @staticmethod
    async def _sleep_until(when: float) -> None:
        delay = when - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)

    def _cpu(self) -> float:
        return self.cpu_probe() if self.cpu_probe is not None else 0.0

    @property
    def unanswered(self) -> int:
        """Requests due but not answered (in flight or in a backlog)."""
        return self._outstanding + self._requester_busy + len(self._burst_backlog)

    async def _drained(self) -> None:
        while self.unanswered:
            await asyncio.sleep(0.01)

    # -- completions ---------------------------------------------------------------

    def _due_completion(self, due: float, preferred: int, index: int) -> None:
        n = len(self.workers)
        for step in range(n):
            worker = self.workers[(preferred + step) % n]
            if not worker.busy:
                self._dispatch(worker, due, index)
                return
        self._backlog.append((due, index))
        stats = self.stats[index]
        stats.backlog_max = max(stats.backlog_max, len(self._backlog))

    def _dispatch(self, worker: SimWorker, due: float, index: int) -> None:
        worker.busy = True
        stats = self.stats[index]
        stats.sent += 1
        if worker.stale:
            future = self._send("GET", f"/display/{worker.worker_id}")
            future.add_done_callback(
                functools.partial(self._on_refresh, worker, due, index))
            return
        self._complete(worker, due, index)

    def _complete(self, worker: SimWorker, due: float, index: int) -> None:
        if not worker.pending:
            self._fail(worker, index, RuntimeError(f"{worker.worker_id} has no pending task"))
            return
        task_id = worker.choose()
        self._seq += 1
        key = f"c{self._seq}"
        future = self._send("POST", "/complete", {
            "worker_id": worker.worker_id,
            "task_id": task_id,
            "completion_key": key,
            "answer": int(self._rng.integers(N_LABELS)),
        }, request_id=key, slow=worker.next_completion_reassigns())
        future.add_done_callback(
            functools.partial(self._on_complete, worker, task_id, key, due, index))

    def _on_refresh(self, worker, due, index, future) -> None:
        try:
            status, body, _ = future.result()
            if status != 200:
                raise RuntimeError(f"GET /display: {status} {body[:200]!r}")
            worker.install(json.loads(body))
            worker.stale = False
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self._fail(worker, index, exc)
            return
        self._complete(worker, due, index)

    def _on_complete(self, worker, task_id, key, due, index, future) -> None:
        stats = self.stats[index]
        try:
            status, body, received = future.result()
            if status != 200:
                raise RuntimeError(f"POST /complete: {status} {body[:200]!r}")
            answer = json.loads(body)
            display = answer["display"]
            worker.completed(task_id)
            if answer["reassigned"]:
                self.oracle.check(display)
            worker.install(display)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self._fail(worker, index, exc)
            return
        latency = received - due
        stats.ok += 1
        stats.complete_s.append(latency)
        if answer["reassigned"]:
            stats.assigned.append((key, due, received))
        if answer["deadline_exceeded"]:
            stats.stale += 1
            worker.stale = True
        self._release(worker)

    def _fail(self, worker, index, exc) -> None:
        stats = self.stats[index]
        stats.failed += 1
        if len(stats.errors) < 5:
            stats.errors.append(str(exc))
        worker.stale = True
        self._release(worker)

    def _release(self, worker: SimWorker) -> None:
        worker.busy = False
        self._outstanding -= 1
        if self._backlog:
            due, index = self._backlog.popleft()
            self._dispatch(worker, due, index)

    # -- requester -------------------------------------------------------------------

    def _due_burst(self, due: float, index: int) -> None:
        if self._requester_busy:
            self._burst_backlog.append((due, index))
            return
        self._post_burst(due, index)

    def _post_burst(self, due: float, index: int) -> None:
        stats = self.stats[index]
        self._requester_busy = True
        stats.sent += 1
        left = self.bursts["target"] if self._pool_left is None else self._pool_left
        size = min(self.bursts["max"], max(self.bursts["min"], self.bursts["target"] - left))
        tasks = [self.task_factory(self._bursts_posted, k) for k in range(size)]
        self._bursts_posted += 1
        future = self._send("POST", "/tasks", {"tasks": tasks})
        future.add_done_callback(functools.partial(self._on_burst, due, index))

    def _on_burst(self, due, index, future) -> None:
        stats = self.stats[index]
        try:
            status, body, received = future.result()
            if status != 200:
                raise RuntimeError(f"POST /tasks: {status} {body[:200]!r}")
            self._pool_left = json.loads(body)["remaining_tasks"]
            stats.ok += 1
            stats.ingest_s.append(received - due)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            stats.failed += 1
            if len(stats.errors) < 5:
                stats.errors.append(str(exc))
        self._requester_busy = False
        if self._burst_backlog:
            self._post_burst(*self._burst_backlog.popleft())
