"""Request tracing: spans, the metrics seam, the recorder, and the
differential end-to-end suite (trace-derived stage times vs. the latency
the load generator measures from the client side)."""

import asyncio
import json
import time

import pytest

from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.serve.metrics import MetricsRegistry
from repro.serve.tracing import (
    NULL_TRACE,
    SolveContext,
    Span,
    SpanMetrics,
    Trace,
    TraceRecorder,
    summarize_trace_file,
)
from test_serve_app import make_pool, serve_config

from repro.serve.app import AssignmentDaemon


class TestSpanMetricsSeam:
    """The satellite fix: one observe(span) seam for every metric update."""

    def make(self):
        registry = MetricsRegistry()
        metrics = SpanMetrics().route(
            "solve_batch",
            seconds=registry.histogram("x_seconds"),
            count=registry.counter("x_total"),
            errors=registry.counter("x_errors_total"),
            attr_histograms={
                "batch_size": registry.histogram("x_batch", buckets=(1, 2, 4))
            },
        )
        return registry, metrics

    def test_ok_span_feeds_seconds_count_and_attrs(self):
        registry, metrics = self.make()
        metrics.observe(Span("solve_batch", 0.0, 0.25, {"batch_size": 3}))
        assert registry.get("x_seconds").count == 1
        assert registry.get("x_seconds").sum == pytest.approx(0.25)
        assert registry.get("x_total").value == 1
        assert registry.get("x_errors_total").value == 0
        assert registry.get("x_batch").count == 1

    def test_error_span_touches_only_the_error_counter(self):
        registry, metrics = self.make()
        metrics.observe(
            Span("solve_batch", 0.0, 0.25, {"batch_size": 3},
                 status="error", error="boom")
        )
        assert registry.get("x_errors_total").value == 1
        # Failed work must not contaminate the latency/count metrics.
        assert registry.get("x_seconds").count == 0
        assert registry.get("x_total").value == 0
        assert registry.get("x_batch").count == 0

    def test_missing_attr_skips_the_attr_histogram(self):
        registry, metrics = self.make()
        metrics.observe(Span("solve_batch", 0.0, 0.1))
        assert registry.get("x_seconds").count == 1
        assert registry.get("x_batch").count == 0

    def test_unrouted_span_is_dropped_without_auto_prefix(self):
        registry, metrics = self.make()
        metrics.observe(Span("mystery", 0.0, 0.1))
        assert "mystery" not in list(registry.names())

    def test_auto_prefix_creates_stage_histograms_lazily(self):
        registry = MetricsRegistry()
        metrics = SpanMetrics(registry, auto_prefix="serve_stage")
        metrics.observe(Span("queue", 0.0, 0.02))
        metrics.observe(Span("queue", 0.0, 0.03))
        metrics.observe(Span("solve batch!", 0.0, 0.01))  # name sanitized
        histogram = registry.get("serve_stage_queue_seconds")
        assert histogram.count == 2
        assert histogram.sum == pytest.approx(0.05)
        assert registry.get("serve_stage_solve_batch__seconds").count == 1

    def test_auto_prefix_requires_a_registry(self):
        with pytest.raises(ValueError, match="registry"):
            SpanMetrics(auto_prefix="serve_stage")


class TestTraceLifecycle:
    def test_span_context_manager_records_wall_time(self):
        trace = Trace("t-1")
        with trace.span("stage", tier="hta-gre"):
            time.sleep(0.01)
        trace.close()
        (span,) = trace.spans
        assert span.name == "stage"
        assert span.attrs["tier"] == "hta-gre"
        assert 0.005 < span.duration < 1.0
        assert span.start >= 0.0

    def test_span_records_error_and_reraises(self):
        trace = Trace("t-2")
        with pytest.raises(RuntimeError):
            with trace.span("stage"):
                raise RuntimeError("kaput")
        (span,) = trace.spans
        assert span.status == "error"
        assert "kaput" in span.error

    def test_begin_end_is_idempotent(self):
        trace = Trace("t-3")
        handle = trace.begin("queue", queue_depth=2)
        assert handle.end(batch_size=4) is not None
        assert handle.end() is None
        assert len(trace.spans) == 1
        assert trace.spans[0].attrs == {"queue_depth": 2, "batch_size": 4}

    def test_close_is_idempotent_and_freezes_duration(self):
        trace = Trace("t-4")
        trace.close(status="ok", http_status=200)
        first = trace.duration
        trace.close(status="error")
        assert trace.duration == first
        assert trace.status == "ok"
        assert trace.attrs["http_status"] == 200

    def test_spans_after_close_are_dropped(self):
        trace = Trace("t-5")
        trace.close()
        assert trace.add_span("late", 0.1) is None
        assert trace.spans == []

    def test_adopt_rebases_absolute_starts_onto_the_trace_clock(self):
        trace = Trace("t-6")
        ctx = SolveContext()
        with ctx.span("solve", tier="hta-gre"):
            time.sleep(0.005)
        adopted = trace.adopt(ctx.spans[0])
        trace.close()
        assert adopted.start >= 0.0
        assert adopted.start <= trace.duration
        assert adopted.duration == ctx.spans[0].duration
        assert adopted.attrs == {"tier": "hta-gre"}
        # The context still holds the absolute perf_counter start.
        assert ctx.spans[0].start > 1.0

    def test_to_dict_shape_matches_the_jsonl_schema(self):
        trace = Trace("t-7", method="POST", path="/complete")
        with trace.span("queue"):
            pass
        trace.close(status="ok", http_status=200)
        record = json.loads(json.dumps(trace.to_dict()))
        assert record["trace_id"] == "t-7"
        assert record["closed"] is True
        assert record["status"] == "ok"
        assert record["attrs"]["path"] == "/complete"
        assert [s["name"] for s in record["spans"]] == ["queue"]
        assert set(record["spans"][0]) == {"name", "start", "duration", "status"}

    def test_null_trace_is_falsy_and_inert(self):
        assert not NULL_TRACE
        assert NULL_TRACE.begin("queue").end() is None
        with NULL_TRACE.span("stage") as handle:
            assert handle.end() is None
        assert NULL_TRACE.adopt(Span("s", 0.0, 0.1)) is None
        NULL_TRACE.close()
        assert NULL_TRACE.closed is False
        assert NULL_TRACE.to_dict() == {}


class TestSolveContext:
    def test_error_in_stage_is_recorded_and_reraised(self):
        ctx = SolveContext()
        with pytest.raises(ValueError):
            with ctx.span("prepare"):
                raise ValueError("nope")
        (span,) = ctx.spans
        assert span.status == "error"
        assert span.duration >= 0.0


class TestTraceRecorder:
    def test_rate_zero_returns_the_null_trace(self):
        recorder = TraceRecorder(MetricsRegistry(), sample_rate=0.0)
        assert recorder.start() is NULL_TRACE
        assert not recorder.enabled

    def test_systematic_sampling_is_exact(self):
        registry = MetricsRegistry()
        recorder = TraceRecorder(registry, sample_rate=0.5)
        sampled = [bool(recorder.start()) for _ in range(10)]
        # An accumulator, not an RNG: exactly every second request.
        assert sampled == [False, True] * 5
        assert registry.get("serve_traces_started_total").value == 5

    def test_ring_eviction_and_get(self):
        registry = MetricsRegistry()
        recorder = TraceRecorder(registry, sample_rate=1.0, capacity=2)
        traces = [recorder.start() for _ in range(3)]
        for trace in traces:
            trace.close()
        assert recorder.get(traces[0].trace_id) is None  # evicted
        assert recorder.get(traces[2].trace_id) is traces[2]
        assert len(recorder.traces()) == 2
        assert registry.get("serve_traces_closed_total").value == 3
        assert registry.get("serve_traces_open").value == 0

    def test_late_spans_are_counted(self):
        registry = MetricsRegistry()
        recorder = TraceRecorder(registry, sample_rate=1.0)
        trace = recorder.start()
        trace.close()
        trace.add_span("straggler", 0.1)
        assert registry.get("serve_trace_late_spans_total").value == 1

    def test_jsonl_stream_and_summarize(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(MetricsRegistry(), sample_rate=1.0, path=path)
        for _ in range(3):
            trace = recorder.start()
            with trace.span("queue"):
                pass
            trace.close(http_status=200)
        recorder.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["closed"] for line in lines)
        summary = summarize_trace_file(path)
        assert summary.clean
        assert summary.n_traces == 3
        assert summary.n_spans == 3
        stage_names = [row[0] for row in summary.rows]
        assert "queue" in stage_names
        assert stage_names[-1] == "(root)"

    def test_summarize_flags_unclosed_roots(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = [
            {"trace_id": "a", "closed": True, "status": "ok",
             "duration": 0.2, "spans": [
                 {"name": "queue", "start": 0.0, "duration": 0.1,
                  "status": "error"}]},
            {"trace_id": "b", "closed": False, "status": "ok",
             "duration": None, "spans": []},
        ]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        summary = summarize_trace_file(path)
        assert not summary.clean
        assert summary.n_unclosed == 1
        queue_row = next(row for row in summary.rows if row[0] == "queue")
        assert queue_row[2] == 1  # the error column

    def test_span_metrics_receive_every_finished_span(self):
        registry = MetricsRegistry()
        recorder = TraceRecorder(
            registry,
            sample_rate=1.0,
            span_metrics=SpanMetrics(registry, auto_prefix="serve_stage"),
        )
        trace = recorder.start()
        with trace.span("queue"):
            pass
        trace.close()
        assert registry.get("serve_stage_queue_seconds").count == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="sample_rate"):
            TraceRecorder(MetricsRegistry(), sample_rate=1.5)
        with pytest.raises(ValueError, match="capacity"):
            TraceRecorder(MetricsRegistry(), sample_rate=0.5, capacity=0)


# -- differential end-to-end suite --------------------------------------------


def traced_loadgen_run(tmp_path):
    """A fully traced daemon + loadgen run; returns (result, records)."""
    trace_path = tmp_path / "trace.jsonl"

    async def scenario():
        daemon = AssignmentDaemon(
            make_pool(400),
            serve_config(trace_sample_rate=1.0, trace_file=str(trace_path)),
        )
        await daemon.start()
        try:
            return await run_loadgen(
                LoadgenConfig(
                    port=daemon.port,
                    n_workers=6,
                    completions_per_worker=8,
                    seed=7,
                )
            )
        finally:
            await daemon.stop()

    result = asyncio.run(asyncio.wait_for(scenario(), timeout=120.0))
    records = [
        json.loads(line) for line in trace_path.read_text().splitlines()
    ]
    return result, records


def check_differential(result, records, expected_solve_stages):
    assert result.clean
    assert result.reassignments > 0
    assert result.traced_requests == result.requests
    by_id = {record["trace_id"]: record for record in records}
    # Trace-leak check: every sampled request closed its root span.
    assert all(record["closed"] for record in records)
    assert len(by_id) == len(records)
    matched = 0
    for trace_id, client_latency in result.trace_latencies.items():
        record = by_id.get(trace_id)
        if record is None:
            continue  # final-attempt retries can observe a fresh trace id
        matched += 1
        stage_sum = sum(span["duration"] for span in record["spans"])
        root = record["duration"]
        # Stage times decompose the root: they may not exceed it by more
        # than scheduling jitter.
        assert stage_sum <= root + 0.010, (trace_id, stage_sum, root)
        # And the server-side root is bounded by what the client saw.
        assert root <= client_latency + 0.005, (trace_id, root, client_latency)
    assert matched >= result.requests * 0.9
    solved = [
        record for record in records
        if record["attrs"].get("reassigned")
    ]
    assert solved, "no traced request carried a fresh assignment"
    for record in solved:
        names = {span["name"] for span in record["spans"]}
        assert expected_solve_stages <= names, (record["trace_id"], names)


class TestDifferentialTraceSuite:
    def test_in_loop_mode(self, tmp_path):
        result, records = traced_loadgen_run(tmp_path)
        check_differential(result, records, {"queue", "solve", "commit"})

    def test_trace_endpoint_serves_retained_traces(self):
        async def check(daemon, client):
            status, body = await client.request(
                "POST", "/workers", {"worker_id": "amy", "keywords": ["k1"]}
            )
            assert status == 200
            trace_id = client.last_headers["x-trace-id"]
            # The trace closes after the response bytes are queued; poll
            # briefly rather than racing it.
            for _ in range(50):
                status, body = await client.request("GET", f"/trace/{trace_id}")
                if status == 200:
                    break
                await asyncio.sleep(0.01)
            missing_status, _ = await client.request("GET", "/trace/nope")
            return status, body, missing_status

        from test_serve_app import with_daemon

        status, body, missing_status = with_daemon(
            check, trace_sample_rate=1.0
        )
        assert status == 200
        assert body["closed"] is True
        assert body["attrs"]["path"] == "/workers"
        assert [s["name"] for s in body["spans"]] == ["register"]
        assert missing_status == 404

    def test_sample_rate_zero_emits_no_traces_or_headers(self):
        async def check(daemon, client):
            status, _ = await client.request(
                "POST", "/workers", {"worker_id": "bob", "keywords": ["k1"]}
            )
            assert status == 200
            return client.last_headers, daemon.registry.snapshot()

        from test_serve_app import with_daemon

        headers, snapshot = with_daemon(check)
        assert "x-trace-id" not in headers
        assert snapshot["serve_traces_started_total"] == 0
