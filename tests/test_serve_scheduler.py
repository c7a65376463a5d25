"""Solve scheduler: micro-batching semantics."""

import asyncio

import pytest

from repro.serve.metrics import MetricsRegistry
from repro.serve.scheduler import SolveScheduler


class FakeEvent:
    def __init__(self, worker_id):
        self.worker_id = worker_id


def make_solver(log):
    def solve(worker_ids, ctx):
        batch = list(worker_ids)
        log.append(batch)
        return {w: FakeEvent(w) for w in batch}

    return solve


class TestBatching:
    def test_concurrent_submits_coalesce_into_one_solve(self):
        async def scenario():
            log = []
            registry = MetricsRegistry()
            scheduler = SolveScheduler(
                make_solver(log), registry, max_batch_delay=0.05
            )
            scheduler.start()
            futures = [scheduler.submit(f"w{i}") for i in range(5)]
            results = await asyncio.gather(*futures)
            await scheduler.stop()
            return log, results, registry

        log, results, registry = asyncio.run(scenario())
        assert len(log) == 1  # one solver call for all five workers
        assert sorted(log[0]) == [f"w{i}" for i in range(5)]
        assert [e.worker_id for e in results] == [f"w{i}" for i in range(5)]
        assert registry.get("serve_solves_total").value == 1
        assert registry.get("serve_solve_batch_size").summary()["mean"] == 5.0

    def test_duplicate_submits_share_one_slot(self):
        async def scenario():
            log = []
            scheduler = SolveScheduler(
                make_solver(log), MetricsRegistry(), max_batch_delay=0.02
            )
            scheduler.start()
            first = scheduler.submit("w0")
            second = scheduler.submit("w0")
            results = await asyncio.gather(first, second)
            await scheduler.stop()
            return log, results

        log, results = asyncio.run(scenario())
        assert log == [["w0"]]
        assert all(e.worker_id == "w0" for e in results)

    def test_max_batch_size_splits_batches(self):
        async def scenario():
            log = []
            scheduler = SolveScheduler(
                make_solver(log),
                MetricsRegistry(),
                max_batch_delay=0.01,
                max_batch_size=3,
            )
            scheduler.start()
            futures = [scheduler.submit(f"w{i}") for i in range(7)]
            await asyncio.gather(*futures)
            await scheduler.stop()
            return log

        log = asyncio.run(scenario())
        assert [len(batch) for batch in log] == [3, 3, 1]

    def test_sequential_submits_become_separate_solves(self):
        async def scenario():
            log = []
            scheduler = SolveScheduler(
                make_solver(log), MetricsRegistry(), max_batch_delay=0.0
            )
            scheduler.start()
            await scheduler.submit("w0")
            await scheduler.submit("w1")
            await scheduler.stop()
            return log

        log = asyncio.run(scenario())
        assert log == [["w0"], ["w1"]]


class TestOverflowDrain:
    def test_overflow_drains_without_extra_delay(self):
        """Workers beyond max_batch_size already waited one batch window;
        they must not be held for another full max_batch_delay each."""

        async def scenario():
            log = []
            scheduler = SolveScheduler(
                make_solver(log),
                MetricsRegistry(),
                max_batch_delay=0.2,
                max_batch_size=2,
            )
            scheduler.start()
            loop = asyncio.get_running_loop()
            started = loop.time()
            futures = [scheduler.submit(f"w{i}") for i in range(6)]
            await asyncio.gather(*futures)
            elapsed = loop.time() - started
            await scheduler.stop()
            return log, elapsed

        log, elapsed = asyncio.run(scenario())
        assert [len(batch) for batch in log] == [2, 2, 2]
        # Pre-fix behaviour re-opened the 0.2 s window per overflow batch
        # (~0.6 s total); drained overflow finishes just past one window.
        assert elapsed < 0.45, f"overflow waited extra windows: {elapsed:.3f}s"

    def test_fresh_submit_after_drain_waits_for_stragglers(self):
        async def scenario():
            log = []
            scheduler = SolveScheduler(
                make_solver(log),
                MetricsRegistry(),
                max_batch_delay=0.05,
                max_batch_size=2,
            )
            scheduler.start()
            await asyncio.gather(*[scheduler.submit(f"w{i}") for i in range(3)])
            # The queue is empty again: the next pair must coalesce, proving
            # the drain fast-path resets once the overflow is gone.
            await asyncio.gather(scheduler.submit("a"), scheduler.submit("b"))
            await scheduler.stop()
            return log

        log = asyncio.run(scenario())
        assert [len(batch) for batch in log] == [2, 1, 2]


class TestFailureModes:
    def test_solver_error_propagates_to_waiters(self):
        async def scenario():
            def explode(worker_ids, ctx):
                raise RuntimeError("solver blew up")

            registry = MetricsRegistry()
            scheduler = SolveScheduler(explode, registry, max_batch_delay=0.0)
            scheduler.start()
            with pytest.raises(RuntimeError, match="blew up"):
                await scheduler.submit("w0")
            # The loop survives a failed batch and keeps serving.
            assert scheduler.pending == 0
            await scheduler.stop()
            return registry

        registry = asyncio.run(scenario())
        assert registry.get("serve_solve_errors_total").value == 1

    def test_missing_worker_resolves_none(self):
        async def scenario():
            scheduler = SolveScheduler(
                lambda ids, ctx: {}, MetricsRegistry(), max_batch_delay=0.0
            )
            scheduler.start()
            result = await scheduler.submit("ghost")
            await scheduler.stop()
            return result

        assert asyncio.run(scenario()) is None

    def test_stop_fails_pending_futures(self):
        async def scenario():
            started = asyncio.Event()

            async def run():
                scheduler = SolveScheduler(
                    lambda ids, ctx: {}, MetricsRegistry(), max_batch_delay=10.0
                )
                scheduler.start()
                future = scheduler.submit("w0")
                started.set()
                await asyncio.sleep(0)  # let the loop pick up the batch window
                await scheduler.stop()
                with pytest.raises(RuntimeError, match="stopped"):
                    await future
                with pytest.raises(RuntimeError, match="stopped"):
                    scheduler.submit("w1")

            await asyncio.wait_for(run(), timeout=5.0)

        asyncio.run(scenario())


class TestTraceThreading:
    """Traces ride through submit(); batch stage spans are adopted into
    every member trace, and metrics flow through the one SpanMetrics seam."""

    def test_queue_span_and_ctx_adoption(self):
        from repro.serve.scheduler import SolveContext
        from repro.serve.tracing import Trace

        def solve(worker_ids, ctx: SolveContext):
            with ctx.span("solve", tier="hta-gre"):
                pass
            return {w: FakeEvent(w) for w in worker_ids}

        async def scenario():
            scheduler = SolveScheduler(
                solve, MetricsRegistry(), max_batch_delay=0.01
            )
            scheduler.start()
            traces = [Trace(f"t-{i}") for i in range(2)]
            futures = [
                scheduler.submit(f"w{i}", trace=traces[i]) for i in range(2)
            ]
            await asyncio.gather(*futures)
            await scheduler.stop()
            return traces

        traces = asyncio.run(scenario())
        for trace in traces:
            names = [span.name for span in trace.spans]
            assert names == ["queue", "solve"]
            queue_span = trace.spans[0]
            assert queue_span.attrs["batch_size"] == 2
            assert "queue_depth" in queue_span.attrs
            assert trace.spans[1].attrs == {"tier": "hta-gre"}

    def test_solve_fn_without_ctx_parameter_still_works(self):
        from repro.serve.tracing import Trace

        async def scenario():
            log = []
            scheduler = SolveScheduler(
                make_solver(log), MetricsRegistry(), max_batch_delay=0.0
            )
            scheduler.start()
            trace = Trace("t-0")
            await scheduler.submit("w0", trace=trace)
            await scheduler.stop()
            return log, trace

        log, trace = asyncio.run(scenario())
        assert log == [["w0"]]
        assert [span.name for span in trace.spans] == ["queue"]

    def test_error_batch_adopts_a_solve_error_span(self):
        from repro.serve.tracing import Trace

        def explode(worker_ids, ctx):
            raise RuntimeError("bad batch")

        async def scenario():
            registry = MetricsRegistry()
            scheduler = SolveScheduler(
                explode, registry, max_batch_delay=0.0
            )
            scheduler.start()
            trace = Trace("t-err")
            with pytest.raises(RuntimeError, match="bad batch"):
                await scheduler.submit("w0", trace=trace)
            await scheduler.stop()
            return registry, trace

        registry, trace = asyncio.run(scenario())
        names = [span.name for span in trace.spans]
        assert "solve_error" in names
        error_span = trace.spans[names.index("solve_error")]
        assert error_span.status == "error"
        assert "bad batch" in error_span.error
        assert registry.get("serve_solve_errors_total").value == 1
        assert registry.get("serve_solves_total").value == 0

    def test_batch_metrics_flow_through_the_span_seam(self):
        """Every batch exits through one _finish_batch, so the serve_solve*
        family is fed from the batch span and nothing else."""

        def solve(worker_ids, ctx):
            return {w: FakeEvent(w) for w in worker_ids}

        async def scenario():
            registry = MetricsRegistry()
            scheduler = SolveScheduler(solve, registry, max_batch_delay=0.01)
            scheduler.start()
            await asyncio.gather(scheduler.submit("w0"), scheduler.submit("w1"))
            await scheduler.stop()
            return registry.snapshot()

        snap = asyncio.run(scenario())
        assert snap["serve_solves_total"] == 1.0
        assert snap["serve_solve_errors_total"] == 0.0
        assert snap["serve_solve_batch_size"]["mean"] == 2.0
        assert snap["serve_solve_seconds"]["count"] == 1.0
