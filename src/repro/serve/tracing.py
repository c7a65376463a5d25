"""End-to-end request tracing for the serving path.

`/metrics` answers *how much* — counters and latency histograms over the
whole daemon.  This module answers *where*: every sampled request gets a
trace ID minted at ingress, and each stage the request passes through —
queue wait on the solve scheduler, then the batch's prepare/solve/commit —
records a typed :class:`Span` with its real wall time.

Three consumers sit on top of the span stream:

* a bounded in-memory ring, served by ``GET /trace/<trace_id>`` for
  debugging a single slow request;
* an optional JSONL trace file (``repro serve --trace-file``), one trace
  per line, aggregated by ``repro trace summarize`` into a per-stage
  latency breakdown;
* :class:`SpanMetrics` — the single seam through which span durations feed
  the Prometheus histograms (``serve_stage_*_seconds`` and the scheduler
  metric family), so histograms can never drift from what the traces say.

Sampling is systematic, not random: a rate of ``1/k`` samples exactly every
k-th request, which keeps tests deterministic and the disabled path
(``sample_rate 0``) a single float comparison per request.
"""

from __future__ import annotations

import json
import math
import secrets
import threading
import time
from collections import deque
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .metrics import Counter, Histogram, MetricsRegistry


def _sanitize_stage(name: str) -> str:
    """A span name as a metric-name fragment ([a-zA-Z0-9_] only)."""
    return "".join(c if c.isalnum() else "_" for c in name)


@dataclass
class Span:
    """One timed stage of a request (or of a solve batch).

    ``start`` is seconds relative to the owning trace's start once the span
    has been adopted into a trace; spans still sitting in a
    :class:`SolveContext` carry the absolute ``time.perf_counter()`` start
    instead (``Trace.adopt`` converts).  Durations are always plain wall
    seconds.
    """

    name: str
    start: float
    duration: float
    attrs: dict = field(default_factory=dict)
    status: str = "ok"
    error: str | None = None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6),
            "status": self.status,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        if self.error is not None:
            out["error"] = self.error
        return out


class _OpenSpan:
    """Handle for an in-progress span; :meth:`end` seals it into the trace."""

    __slots__ = ("_trace", "_name", "_attrs", "_abs_start", "_done")

    def __init__(self, trace: "Trace", name: str, attrs: dict):
        self._trace = trace
        self._name = name
        self._attrs = attrs
        self._abs_start = time.perf_counter()
        self._done = False

    def end(
        self, status: str = "ok", error: str | None = None, **attrs
    ) -> Span | None:
        if self._done:
            return None
        self._done = True
        duration = time.perf_counter() - self._abs_start
        self._attrs.update(attrs)
        return self._trace.add_span(
            self._name,
            duration,
            abs_start=self._abs_start,
            status=status,
            error=error,
            **self._attrs,
        )


class _NullSpan:
    """The open-span handle of an unsampled trace: everything is a no-op."""

    __slots__ = ()

    def end(self, *args, **kwargs) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Trace:
    """One request's span record, closed exactly once at response time."""

    def __init__(
        self,
        trace_id: str,
        name: str = "request",
        recorder: "TraceRecorder | None" = None,
        **attrs,
    ):
        self.trace_id = trace_id
        self.name = name
        self.attrs: dict = dict(attrs)
        self.started_unix = time.time()
        self.spans: list[Span] = []
        self.duration: float | None = None
        self.status = "ok"
        self.error: str | None = None
        self._t0 = time.perf_counter()
        self._recorder = recorder

    @property
    def closed(self) -> bool:
        return self.duration is not None

    def set_attrs(self, **attrs) -> None:
        self.attrs.update(attrs)

    def begin(self, name: str, **attrs) -> "_OpenSpan | _NullSpan":
        """Open a span now; the caller seals it later with ``.end()``."""
        return _OpenSpan(self, name, attrs)

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span around a code block (errors are recorded, then
        re-raised)."""
        handle = self.begin(name, **attrs)
        try:
            yield handle
        except Exception as exc:
            handle.end(status="error", error=f"{type(exc).__name__}: {exc}")
            raise
        else:
            handle.end()

    def add_span(
        self,
        name: str,
        duration: float,
        abs_start: float | None = None,
        status: str = "ok",
        error: str | None = None,
        **attrs,
    ) -> Span | None:
        """Append an externally measured span; dropped (and counted as a
        *late span*) when the trace already closed — a deadline-missed
        request answers before its solve lands, and the straggler spans
        must not mutate a trace that was already written out."""
        if self.closed:
            if self._recorder is not None:
                self._recorder.note_late_span()
            return None
        start = 0.0 if abs_start is None else max(0.0, abs_start - self._t0)
        span = Span(name, start, duration, attrs, status, error)
        self.spans.append(span)
        return span

    def adopt(self, span: Span) -> Span | None:
        """Copy a :class:`SolveContext` span (absolute start) into this
        trace, rebasing its start onto the trace clock."""
        return self.add_span(
            span.name,
            span.duration,
            abs_start=span.start,
            status=span.status,
            error=span.error,
            **span.attrs,
        )

    def close(
        self, status: str = "ok", error: str | None = None, **attrs
    ) -> None:
        """Seal the root span; idempotent, and routes the finished trace to
        the recorder (ring, JSONL, span metrics)."""
        if self.closed:
            return
        self.duration = time.perf_counter() - self._t0
        self.status = status
        self.error = error
        self.attrs.update(attrs)
        if self._recorder is not None:
            self._recorder._finished(self)

    def to_dict(self) -> dict:
        out = {
            "trace_id": self.trace_id,
            "name": self.name,
            "status": self.status,
            "closed": self.closed,
            "started_unix": round(self.started_unix, 6),
            "duration": round(self.duration, 6) if self.closed else None,
            "attrs": self.attrs,
            "spans": [span.to_dict() for span in self.spans],
        }
        if self.error is not None:
            out["error"] = self.error
        return out


class _NullTrace:
    """The unsampled trace: same surface as :class:`Trace`, all no-ops.

    Call sites thread a trace unconditionally (``trace.adopt(...)``, never
    ``if trace is not None``); with sampling off every operation is a cheap
    method call on this singleton.  It is falsy, so the rare site that
    *does* need to branch (e.g. response headers) can ``if trace:``.
    """

    trace_id = None
    name = "null"
    attrs: dict = {}
    spans: list = []
    duration = None
    status = "ok"
    closed = False

    def __bool__(self) -> bool:
        return False

    def set_attrs(self, **attrs) -> None:
        return None

    def begin(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    @contextmanager
    def span(self, name: str, **attrs):
        yield _NULL_SPAN

    def add_span(self, *args, **kwargs) -> None:
        return None

    def adopt(self, span: Span) -> None:
        return None

    def close(self, *args, **kwargs) -> None:
        return None

    def to_dict(self) -> dict:
        return {}


NULL_TRACE = _NullTrace()


class SolveContext:
    """Span collector for one solve batch, shared by all member requests.

    A batch serves many parked requests at once, so its stage spans are
    recorded once here (with absolute ``perf_counter`` starts) and adopted
    into every member trace when the batch lands.  ``attrs`` accumulates
    batch-level facts (tier, trace ids) that the scheduler folds into
    its batch span.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.attrs: dict = {}

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a stage span around a code block; yields the span so the
        caller can read its duration afterwards (errors are recorded on the
        span, then re-raised)."""
        started = time.perf_counter()
        span = Span(name, started, 0.0, attrs)
        try:
            yield span
        except Exception as exc:
            span.duration = time.perf_counter() - started
            span.status = "error"
            span.error = f"{type(exc).__name__}: {exc}"
            self.spans.append(span)
            raise
        span.duration = time.perf_counter() - started
        self.spans.append(span)


class SpanMetrics:
    """The single seam from finished spans to metric updates.

    Every code path that times a stage reports through :meth:`observe`, so
    counter/histogram updates cannot drift from what the trace spans say —
    the scheduler and the recorder's per-stage histograms share this one
    routing table.

    Routing semantics (unit-tested in ``tests/test_serve_tracing.py``):

    * an ``ok`` span feeds its route's ``seconds`` histogram, increments
      ``count``, and feeds each ``attr_histograms`` entry present in the
      span's attrs;
    * an error span increments only ``errors`` — failed work must not
      contaminate the latency distributions;
    * spans without a route are dropped, unless ``registry`` and
      ``auto_prefix`` are set, in which case a
      ``{auto_prefix}_{name}_seconds`` histogram is created lazily and the
      span's duration lands there (this is how ``serve_stage_*_seconds``
      appear in ``/metrics``).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        auto_prefix: str | None = None,
    ):
        if auto_prefix is not None and registry is None:
            raise ValueError("auto_prefix requires a registry")
        self._registry = registry
        self._auto_prefix = auto_prefix
        self._routes: dict[str, dict] = {}

    def route(
        self,
        name: str,
        seconds: Histogram | None = None,
        count: Counter | None = None,
        errors: Counter | None = None,
        attr_histograms: dict[str, Histogram] | None = None,
    ) -> "SpanMetrics":
        """Bind span ``name`` to its metrics; returns self for chaining."""
        self._routes[name] = {
            "seconds": seconds,
            "count": count,
            "errors": errors,
            "attr_histograms": dict(attr_histograms or {}),
        }
        return self

    def observe(self, span: Span) -> None:
        route = self._routes.get(span.name)
        if route is None:
            if self._auto_prefix is None:
                return
            metric = f"{self._auto_prefix}_{_sanitize_stage(span.name)}_seconds"
            route = {
                "seconds": self._registry.histogram(
                    metric, f"Wall seconds spent in the {span.name!r} stage"
                ),
                "count": None,
                "errors": None,
                "attr_histograms": {},
            }
            self._routes[span.name] = route
        if span.status != "ok":
            if route["errors"] is not None:
                route["errors"].inc()
            return
        if route["seconds"] is not None:
            route["seconds"].observe(span.duration)
        if route["count"] is not None:
            route["count"].inc()
        for attr, histogram in route["attr_histograms"].items():
            value = span.attrs.get(attr)
            if value is not None:
                histogram.observe(value)


class TraceRecorder:
    """Mints, samples, retains, and exports request traces.

    Args:
        registry: Metrics sink for the recorder's own accounting
            (``serve_traces_started_total`` / ``_closed_total``, the
            ``serve_traces_open`` gauge, and
            ``serve_trace_late_spans_total``).
        sample_rate: Fraction of requests traced, in ``[0, 1]``.  Sampling
            is systematic (an accumulator, not an RNG): rate ``0.5`` traces
            exactly every second request.  ``0`` disables tracing — every
            ``start`` returns :data:`NULL_TRACE` and costs one comparison.
        capacity: Finished traces retained in the in-memory ring for
            ``GET /trace/<id>``; older traces are evicted FIFO.
        path: Optional JSONL file; every finished trace is appended as one
            JSON line (the ``repro trace summarize`` input format).
        span_metrics: Optional :class:`SpanMetrics` fed every child span of
            every finished trace (plus the root, under the trace's name).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        sample_rate: float = 0.0,
        capacity: int = 512,
        path: "str | Path | None" = None,
        span_metrics: SpanMetrics | None = None,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sample_rate = sample_rate
        self._capacity = capacity
        self._span_metrics = span_metrics
        self._ring: deque[Trace] = deque()
        self._by_id: dict[str, Trace] = {}
        self._acc = 0.0
        self._minted = 0
        self._run_id = secrets.token_hex(3)
        self._lock = threading.Lock()
        self._file = open(path, "a", buffering=1) if path else None
        self._started = registry.counter(
            "serve_traces_started_total", "Requests sampled into a trace"
        )
        self._closed = registry.counter(
            "serve_traces_closed_total", "Traces whose root span was closed"
        )
        self._open_gauge = registry.gauge(
            "serve_traces_open", "Sampled traces not yet closed (leak indicator)"
        )
        self._late_spans = registry.counter(
            "serve_trace_late_spans_total",
            "Spans arriving after their trace closed (e.g. a solve landing "
            "past the request deadline)",
        )

    @property
    def enabled(self) -> bool:
        return self.sample_rate > 0.0

    def start(self, name: str = "request", **attrs) -> "Trace | _NullTrace":
        """Mint a trace for one request, or :data:`NULL_TRACE` if unsampled."""
        if self.sample_rate <= 0.0:
            return NULL_TRACE
        self._acc += self.sample_rate
        if self._acc < 1.0:
            return NULL_TRACE
        self._acc -= 1.0
        self._minted += 1
        trace = Trace(
            f"{self._run_id}-{self._minted:06d}", name, recorder=self, **attrs
        )
        self._started.inc()
        self._open_gauge.inc()
        return trace

    def note_late_span(self) -> None:
        self._late_spans.inc()

    def _finished(self, trace: Trace) -> None:
        """Called by :meth:`Trace.close` exactly once per sampled trace."""
        self._closed.inc()
        self._open_gauge.dec()
        with self._lock:
            self._ring.append(trace)
            self._by_id[trace.trace_id] = trace
            while len(self._ring) > self._capacity:
                evicted = self._ring.popleft()
                self._by_id.pop(evicted.trace_id, None)
        if self._file is not None:
            self._file.write(
                json.dumps(trace.to_dict(), separators=(",", ":")) + "\n"
            )
        if self._span_metrics is not None:
            for span in trace.spans:
                self._span_metrics.observe(span)

    def get(self, trace_id: str) -> Trace | None:
        """The retained trace with this id, or ``None`` (never sampled,
        still open, or already evicted)."""
        with self._lock:
            return self._by_id.get(trace_id)

    def traces(self) -> list[Trace]:
        """Retained traces, oldest first."""
        with self._lock:
            return list(self._ring)

    def close(self) -> None:
        """Flush and release the JSONL file (daemon shutdown)."""
        if self._file is not None:
            self._file.close()
            self._file = None


# -- trace-file summarization (the ``repro trace summarize`` backend) ---------

#: Column headers of the per-stage breakdown table.
SUMMARY_HEADERS = (
    "stage", "count", "errors", "mean_ms", "p50_ms", "p95_ms", "max_ms",
    "total_s", "share_%",
)


@dataclass(frozen=True)
class TraceFileSummary:
    """Aggregate view of one JSONL trace file."""

    n_traces: int
    n_spans: int
    n_unclosed: int
    rows: list[list[object]]

    @property
    def clean(self) -> bool:
        """True when the file is non-empty and every root span closed."""
        return self.n_traces > 0 and self.n_unclosed == 0


def _quantile(data: Sequence[float], q: float) -> float:
    if not data:
        return 0.0
    index = min(len(data) - 1, max(0, math.ceil(q * len(data)) - 1))
    return data[index]


def _stage_row(
    name: str, durations: list[float], errors: int, root_total: float
) -> list[object]:
    durations = sorted(durations)
    total = sum(durations)
    share = 100.0 * total / root_total if root_total > 0 else 0.0
    return [
        name,
        len(durations),
        errors,
        round(1e3 * total / len(durations), 3) if durations else 0.0,
        round(1e3 * _quantile(durations, 0.50), 3),
        round(1e3 * _quantile(durations, 0.95), 3),
        round(1e3 * durations[-1], 3) if durations else 0.0,
        round(total, 4),
        round(share, 1),
    ]


def summarize_trace_file(path: "str | Path") -> TraceFileSummary:
    """Aggregate a JSONL trace file into a per-stage latency breakdown.

    Returns one table row per stage name (sorted by total time spent,
    descending) plus a final row for the root spans themselves.  Unclosed
    roots are counted but excluded from the latency rows — a trace-leak
    check fails on ``n_unclosed > 0`` (or an empty file) via
    :attr:`TraceFileSummary.clean`.
    """
    stage_durations: dict[str, list[float]] = {}
    stage_errors: dict[str, int] = {}
    root_durations: list[float] = []
    root_errors = 0
    n_traces = 0
    n_spans = 0
    n_unclosed = 0
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        n_traces += 1
        if not record.get("closed") or record.get("duration") is None:
            n_unclosed += 1
            continue
        root_durations.append(float(record["duration"]))
        if record.get("status") != "ok":
            root_errors += 1
        for span in record.get("spans", ()):
            n_spans += 1
            name = span["name"]
            if span.get("status", "ok") != "ok":
                stage_errors[name] = stage_errors.get(name, 0) + 1
            stage_durations.setdefault(name, []).append(float(span["duration"]))
    root_total = sum(root_durations)
    rows = [
        _stage_row(name, durations, stage_errors.get(name, 0), root_total)
        for name, durations in stage_durations.items()
    ]
    rows.sort(key=lambda row: row[7], reverse=True)
    if root_durations:
        rows.append(
            _stage_row("(root)", root_durations, root_errors, root_total)
        )
    return TraceFileSummary(n_traces, n_spans, n_unclosed, rows)
