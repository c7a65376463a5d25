"""Micro-batched background solve scheduling.

The paper runs HTA "in the background while workers complete tasks": one
assignment iteration serves every worker currently due (``W^i``), not one
solve per worker.  :class:`SolveScheduler` reproduces that shape behind the
HTTP boundary — completion requests *mark workers due* and await a future;
a background loop coalesces everything that became due within a configurable
batch window into a single ``solve_batch`` call, then resolves each waiter
with its worker's freshly installed display event.

The solver briefly occupies the event loop; micro-batching is precisely
what keeps that affordable (one solver invocation per tick instead of one
per request).

Tracing: :meth:`submit` accepts the request's trace and opens its ``queue``
span; when the batch lands, the stage spans collected in the batch's
:class:`~repro.serve.tracing.SolveContext` are adopted into every member
trace.  All scheduler metrics flow through one
:class:`~repro.serve.tracing.SpanMetrics` seam fed with the batch span, so
the ``serve_solve*`` family cannot drift from what the traces record.
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable

from ..crowd.events import TasksAssigned
from .metrics import MetricsRegistry
from .tracing import NULL_TRACE, SolveContext, Span, SpanMetrics, Trace

#: Batch-size histogram buckets (1..256 workers per solve).
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: A batch-solve callable ``(worker_ids, ctx)``, where ``ctx`` is the
#: batch's :class:`SolveContext` (stage-span sink).
BatchSolveFn = Callable[[list[str], SolveContext], dict[str, TasksAssigned]]

#: One parked request: its future, its trace, and its open queue span.
_Waiter = tuple


class SolveScheduler:
    """Coalesces due-for-reassignment workers into batched HTA solves.

    Args:
        solve_batch: A synchronous callable, run on the event loop with the
            deduplicated worker ids of one batch and the batch's
            :class:`SolveContext`; returns the installed display events
            keyed by worker (a worker may be absent when the pool had
            nothing left for it).
        registry: Metrics sink; the scheduler owns ``serve_solves_total``,
            ``serve_solve_seconds``, ``serve_solve_batch_size`` and
            ``serve_solve_errors_total``, all updated through one
            :class:`SpanMetrics` route.
        max_batch_delay: Seconds the loop waits after the first due worker
            for stragglers to join the batch (the latency/batching knob).
            Overflow left behind by a size-capped batch skips this wait and
            drains on the very next tick.
        max_batch_size: Hard cap on workers per solve; overflow is dispatched
            immediately on the next tick.
        solve_observer: Optional callback receiving each solve's wall time
            in seconds (successes only) — the degradation controller's
            overload signal.
    """

    def __init__(
        self,
        solve_batch: BatchSolveFn,
        registry: MetricsRegistry,
        max_batch_delay: float = 0.05,
        max_batch_size: int = 64,
        solve_observer: "Callable[[float], None] | None" = None,
    ):
        if max_batch_delay < 0:
            raise ValueError(f"max_batch_delay must be >= 0, got {max_batch_delay}")
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self._solve_batch = solve_batch
        self._max_batch_delay = max_batch_delay
        self._max_batch_size = max_batch_size
        self._solve_observer = solve_observer
        self._due: dict[str, None] = {}  # insertion-ordered set
        self._waiters: dict[str, list[_Waiter]] = {}
        self._wakeup: asyncio.Event = asyncio.Event()
        self._runner: asyncio.Task | None = None
        self._drain_overflow = False
        self._closed = False
        self._span_metrics = SpanMetrics().route(
            "solve_batch",
            seconds=registry.histogram(
                "serve_solve_seconds", "Latency of one batched HTA solve in seconds"
            ),
            count=registry.counter(
                "serve_solves_total", "Background HTA solve batches executed"
            ),
            errors=registry.counter(
                "serve_solve_errors_total", "Solve batches that raised"
            ),
            attr_histograms={
                "batch_size": registry.histogram(
                    "serve_solve_batch_size",
                    "Workers reassigned per solve batch",
                    buckets=_BATCH_BUCKETS,
                )
            },
        )

    @property
    def pending(self) -> int:
        """Workers currently queued for the next batch."""
        return len(self._due)

    def start(self) -> None:
        """Spawn the background batching loop on the running event loop."""
        if self._runner is not None:
            raise RuntimeError("scheduler already started")
        self._closed = False
        self._runner = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Stop the loop and fail still-waiting futures."""
        self._closed = True
        self._wakeup.set()
        if self._runner is not None:
            await self._runner
            self._runner = None
        for waiters in self._waiters.values():
            for future, _, _ in waiters:
                if not future.done():
                    future.set_exception(RuntimeError("scheduler stopped"))
        self._waiters.clear()
        self._due.clear()

    def submit(
        self, worker_id: str, trace: "Trace | None" = None
    ) -> "asyncio.Future[TasksAssigned | None]":
        """Mark ``worker_id`` due; the future resolves with its new display.

        Resolves with ``None`` when the solve ran but the pool had nothing
        left for this worker (its current display stands).  ``trace``, when
        given, gets a ``queue`` span (submit until batch dispatch) and the
        batch's stage spans adopted on completion.
        """
        if self._closed:
            raise RuntimeError("scheduler is stopped")
        trace = trace if trace is not None else NULL_TRACE
        queue_span = trace.begin("queue", queue_depth=len(self._due))
        future = asyncio.get_running_loop().create_future()
        self._waiters.setdefault(worker_id, []).append(
            (future, trace, queue_span)
        )
        self._due[worker_id] = None
        self._wakeup.set()
        return future

    async def _run(self) -> None:
        while True:
            await self._wakeup.wait()
            if self._closed:
                return
            if self._drain_overflow:
                # A size-capped batch left due workers behind; they already
                # waited one batch window, so dispatch them this tick rather
                # than holding them open for stragglers again.
                self._drain_overflow = False
            else:
                await self._collect_stragglers()
            if self._closed:
                return
            batch = list(self._due)[: self._max_batch_size]
            for worker_id in batch:
                del self._due[worker_id]
            self._drain_overflow = bool(self._due)
            if not self._due:
                self._wakeup.clear()
            if not batch:
                continue
            # Capture this batch's waiters now: a worker resubmitted while
            # its solve is in flight must resolve with the *next* batch.
            waiters = {w: self._waiters.pop(w, []) for w in batch}
            for entries in waiters.values():
                for _, _, queue_span in entries:
                    queue_span.end(batch_size=len(batch))
            self._execute(batch, waiters)

    async def _collect_stragglers(self) -> None:
        """Hold the batch open for ``max_batch_delay`` to coalesce arrivals."""
        if self._max_batch_delay <= 0:
            return
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._max_batch_delay
        while len(self._due) < self._max_batch_size:
            remaining = deadline - loop.time()
            if remaining <= 0 or self._closed:
                return
            self._wakeup.clear()
            try:
                await asyncio.wait_for(self._wakeup.wait(), remaining)
            except asyncio.TimeoutError:
                self._wakeup.set()  # restore: the due set is non-empty
                return

    def _call_solve(self, batch: list[str], ctx: SolveContext):
        return self._solve_batch(batch, ctx)

    @staticmethod
    def _seed_context(
        ctx: SolveContext, waiters: dict[str, list[_Waiter]]
    ) -> None:
        """Carry the member requests' trace ids into the batch context.

        The solve path (replay journals) correlates its records back to the
        requests that rode the batch through these.
        """
        trace_ids = [
            trace.trace_id
            for entries in waiters.values()
            for _, trace, _ in entries
            if trace
        ]
        if trace_ids:
            ctx.attrs["trace_id"] = trace_ids[0]
            ctx.attrs["trace_ids"] = trace_ids

    def _execute(
        self, batch: list[str], waiters: dict[str, list[_Waiter]]
    ) -> None:
        ctx = SolveContext()
        self._seed_context(ctx, waiters)
        started = time.perf_counter()
        try:
            events = self._call_solve(batch, ctx)
        except Exception as exc:  # resolve waiters; the daemon stays up
            self._finish_batch(batch, waiters, ctx, started, error=exc)
            return
        self._finish_batch(batch, waiters, ctx, started, events=events)

    def _finish_batch(
        self,
        batch: list[str],
        waiters: dict[str, list[_Waiter]],
        ctx: SolveContext,
        started: float,
        events: dict[str, TasksAssigned] | None = None,
        error: Exception | None = None,
    ) -> None:
        """One exit point per batch: metrics through the span seam, stage
        spans into member traces, futures resolved or failed."""
        elapsed = time.perf_counter() - started
        batch_span = Span(
            "solve_batch",
            start=started,
            duration=elapsed,
            attrs={"batch_size": len(batch), **ctx.attrs},
            status="ok" if error is None else "error",
            error=None if error is None else f"{type(error).__name__}: {error}",
        )
        self._span_metrics.observe(batch_span)
        if error is None and self._solve_observer is not None:
            self._solve_observer(elapsed)
        for worker_id, entries in waiters.items():
            for future, trace, _ in entries:
                for span in ctx.spans:
                    trace.adopt(span)
                if error is not None:
                    trace.adopt(
                        Span(
                            "solve_error",
                            start=started,
                            duration=elapsed,
                            status="error",
                            error=batch_span.error,
                        )
                    )
                    if not future.done():
                        future.set_exception(error)
                elif not future.done():
                    future.set_result(events.get(worker_id))
