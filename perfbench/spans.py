"""Spans around the public entry points of the program's layers.

Nothing here changes the program: :func:`install_solver_layers` and
:func:`install_serve_layers` replace functions and methods with wrappers
that time the original call and record a span
``(id, name, start, end, parent, request)``.  The parent comes from a
context variable, so nesting follows the call stack (and, on the daemon's
event loop, each asyncio task's own stack).  Counters and samples that a
layer's inputs or outputs carry (LSAP cells, matching edges, journal
bytes, ...) are recorded by the wrapper after the timed call.

A layer's *self* time is its span minus the part its child spans cover;
:func:`layer_table` computes it.  The spans stay in memory and are written
once, when the benchmark (or the traced daemon launcher) ends.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

#: Solver spans the assign-path budget reports one by one.
SOLVE_CHILDREN = ("qap.encode", "matching", "qap.profits", "lsap", "qap.objective")


class Recorder:
    """In-memory spans, counters and samples of one traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        #: Last QAP encoding built on this process (the LSAP wrapper reads
        #: its clique span to count useful columns).
        self.last_encoding = None

    def current(self):
        """``(span_id, name, request)`` of the innermost open span."""
        return self._current.get()

    def open(self, name: str, request=None):
        """Start a span under the current one; it inherits the request id
        unless given its own.  Returns the handle :meth:`close` takes."""
        parent = self._current.get()
        span_id = next(self._ids)
        if request is None and parent is not None:
            request = parent[2]
        token = self._current.set((span_id, name, request))
        return span_id, name, parent, request, token, time.perf_counter()

    def close(self, handle) -> None:
        span_id, name, parent, request, token, start = handle
        end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(
            (span_id, name, start, end, parent[0] if parent else 0, request)
        )

    def add_span(self, name: str, start: float, end: float, parent=None, request=None):
        """Record a span whose ends the caller measured (e.g. a wait)."""
        self.spans.append(
            (next(self._ids), name, start, end, parent[0] if parent else 0, request)
        )

    def to_dict(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "samples": dict(self.samples),
        }


def _children(spans) -> dict[int, list[tuple[float, float]]]:
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _id, _name, start, end, parent, _request in spans:
        if parent:
            children[parent].append((start, end))
    return children


def self_intervals(spans) -> dict[int, list[tuple[float, float]]]:
    """Span id -> the parts of its interval no child span covers (children
    are clipped to the span, so a child that outlives its parent counts
    only while the parent is open)."""
    children = _children(spans)
    result = {}
    for span_id, _name, start, end, _parent, _request in spans:
        gaps, cursor = [], start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                if c_start > cursor:
                    gaps.append((cursor, c_start))
                cursor = c_end
        if end > cursor:
            gaps.append((cursor, end))
        result[span_id] = gaps
    return result


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the union of its children's intervals."""
    return {
        span_id: sum(end - start for start, end in gaps)
        for span_id, gaps in self_intervals(spans).items()
    }


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (sum of durations) and
    ``self_s`` (sum of self times)."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for span_id, name, start, end, _parent, _request in spans:
        row = table[name]
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += own[span_id]
    return dict(table)


def categorise(spans, root_name: str, categories) -> dict[int, tuple[int, str]]:
    """Span id -> ``(root, category)`` for every span inside a span named
    ``root_name``.  A span's category is the nearest of itself and its
    ancestors whose name is in ``categories``; the root's own time files
    under ``root_name``."""
    parent_of = {s[0]: s[4] for s in spans}
    name_of = {s[0]: s[1] for s in spans}
    result = {}
    for span_id in name_of:
        category, cursor = None, span_id
        while cursor:
            name = name_of.get(cursor)
            if category is None and name in categories:
                category = name
            if name == root_name:
                result[span_id] = (cursor, category or root_name)
                break
            cursor = parent_of.get(cursor, 0)
    return result


def subtree_parts(spans, root_name: str, categories) -> dict[int, dict[str, float]]:
    """For every span named ``root_name``: its self time and its
    descendants' self times, summed per category (see :func:`categorise`)."""
    own = self_times(spans)
    parts: dict[int, dict[str, float]] = {
        s[0]: defaultdict(float) for s in spans if s[1] == root_name
    }
    for span_id, (root, category) in categorise(spans, root_name, categories).items():
        parts[root][category] += own[span_id]
    return parts


def subtree_segments(spans, root_name: str, categories) -> list[tuple[float, float, int, str]]:
    """The self intervals of every span inside a ``root_name`` span, as
    ``(start, end, root, category)`` sorted by start."""
    gaps = self_intervals(spans)
    return sorted(
        (start, end, root, category)
        for span_id, (root, category) in categorise(spans, root_name, categories).items()
        for start, end in gaps[span_id]
    )


# -- wrapping ---------------------------------------------------------------


def _replace_everywhere(original, replacement) -> None:
    """Point every loaded ``repro`` module attribute bound to ``original``
    at ``replacement`` (modules that did ``from x import f`` hold their own
    reference)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrapper(rec: Recorder, name: str, fn, after=None, skip_nested=False):
    """A timing wrapper for ``fn``; ``after(result, args, kwargs)`` runs
    once the span is closed, so its bookkeeping is not timed as the layer."""
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def wrapped_async(*args, **kwargs):
            handle = rec.open(name)
            try:
                result = await fn(*args, **kwargs)
            finally:
                rec.close(handle)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapped_async

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        current = rec.current()
        if skip_nested and current is not None and current[1] == name:
            return fn(*args, **kwargs)
        handle = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(handle)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapped


def wrap_function(rec, module, attr, name, after=None, skip_nested=False):
    original = getattr(module, attr)
    replacement = _wrapper(rec, name, original, after, skip_nested)
    setattr(module, attr, replacement)
    _replace_everywhere(original, replacement)


def wrap_method(rec, cls, attr, name, after=None, skip_nested=False):
    original = cls.__dict__[attr]
    setattr(cls, attr, _wrapper(rec, name, original, after, skip_nested))


def install_solver_layers(rec: Recorder, strategy: "str | None" = None) -> None:
    """Wrap the solver layers: ``repro.core.solvers``, ``repro.core.qap``,
    ``repro.matching``, and the Jaccard kernel every layer above uses."""
    import numpy as np

    from repro.core import distance, qap
    from repro.core.solvers import base as solvers_base
    from repro.core.solvers import pipeline  # noqa: F401  (loads importers)
    from repro.matching import greedy, lsap

    counts, samples = rec.counts, rec.samples

    def after_encode(encoding, args, kwargs):
        rec.last_encoding = encoding

    def after_matching(matching, args, kwargs):
        n = int(np.shape(args[0])[0])
        counts["matching.edges"] += n * (n - 1) // 2
        counts["matching.vertices"] += n
        counts["matching.matched_vertices"] += 2 * len(matching)

    def after_lsap(solution, args, kwargs):
        rows, cols = np.shape(args[0])
        counts["lsap.cells"] += rows * cols
        counts["lsap.cols"] += cols
        encoding = rec.last_encoding
        if encoding is not None and encoding.n_vertices == cols:
            counts["lsap.useful_cols"] += min(
                cols, encoding.n_workers * encoding.x_max
            )

    def after_jaccard(matrix, args, kwargs):
        counts["jaccard.pairs"] += int(matrix.size)

    wrap_function(rec, qap, "build_encoding", "qap.encode", after_encode)
    wrap_method(rec, qap.QAPEncoding, "profit_matrix", "qap.profits")
    wrap_method(rec, qap.QAPEncoding, "objective", "qap.objective")
    wrap_function(rec, greedy, "greedy_matching_dense", "matching", after_matching)
    wrap_function(rec, lsap, "solve_lsap", "lsap", after_lsap)
    wrap_function(rec, distance, "pairwise_jaccard", "jaccard", after_jaccard)

    def after_solve(result, args, kwargs):
        solver = args[0]
        if strategy is not None and solver.name != strategy:
            counts["solve.degraded"] += 1
        for phase in ("matching", "lsap"):
            samples["program.timings." + phase].append(result.timings.get(phase, 0.0))

    for cls in solvers_base.iter_solvers():
        if "solve" in cls.__dict__:
            wrap_method(rec, cls, "solve", "solve", after_solve, skip_nested=True)


def install_serve_layers(rec: Recorder) -> None:
    """Wrap the serving layers: scheduler, service, cache, HTTP front,
    journal, snapshots and the quality controller."""
    from repro.crowd.service import AssignmentService
    from repro.quality.controller import QualityController
    from repro.serve.app import AssignmentDaemon
    from repro.serve.cache import IncrementalDiversityCache
    from repro.serve.replay import FlightRecorder
    from repro.serve.scheduler import SolveScheduler
    from repro.storage import SnapshotStore

    counts, samples = rec.counts, rec.samples
    submitted: dict[str, list[tuple]] = defaultdict(list)

    # Scheduler: submit time per worker; the wait ends when prepare starts.
    # Each wait is kept as ``[request, submit, prepare_start, batch_span]``
    # so the budget can follow one request through its batch.
    original_submit = SolveScheduler.submit

    @functools.wraps(original_submit)
    def submit(self, worker_id, trace=None):
        parent = rec.current()
        request = parent[2] if parent else None
        started = time.perf_counter()
        submitted[worker_id].append((started, request))
        future = original_submit(self, worker_id, trace)

        def resolved(_future):
            rec.add_span("await_solve", started, time.perf_counter(), parent, request)

        future.add_done_callback(resolved)
        return future

    SolveScheduler.submit = submit

    def after_batch(result, args, kwargs):
        batch = args[1]
        counts["scheduler.batches"] += 1
        counts["scheduler.batch_workers"] += len(batch)

    wrap_method(rec, SolveScheduler, "_call_solve", "scheduler.batch", after_batch)

    original_prepare = AssignmentService.prepare_solve

    @functools.wraps(original_prepare)
    def prepare_solve(self, worker_ids, solver_name=None):
        now = time.perf_counter()
        batch = rec.current()
        for worker_id in worker_ids:
            for started, request in submitted.pop(worker_id, ()):
                samples["scheduler.waits"].append(
                    [request, started, now, batch[0] if batch else 0])
        handle = rec.open("service.prepare")
        try:
            return original_prepare(self, worker_ids, solver_name)
        finally:
            rec.close(handle)

    AssignmentService.prepare_solve = prepare_solve
    wrap_method(rec, AssignmentService, "observe_completion", "service.observe")
    wrap_method(rec, AssignmentService, "commit_solve", "service.commit")
    wrap_method(rec, AssignmentService, "admit_tasks", "service.admit")

    def after_append(result, args, kwargs):
        counts["cache.append.rows"] += len(args[1])

    wrap_method(rec, IncrementalDiversityCache, "submatrix", "cache.carve")
    wrap_method(rec, IncrementalDiversityCache, "on_added", "cache.append", after_append)

    # HTTP front: the client's x-perfbench-id labels the request's spans.
    original_dispatch = AssignmentDaemon._dispatch
    request_ids = itertools.count(1)

    @functools.wraps(original_dispatch)
    async def dispatch(self, request):
        request_id = request.headers.get("x-perfbench-id") or f"r{next(request_ids)}"
        handle = rec.open("http", request=request_id)
        try:
            response = await original_dispatch(self, request)
        finally:
            rec.close(handle)
        status = int(response[9:12])
        counts["http.requests"] += 1
        if status >= 400:
            counts["http.errors"] += 1
        return response

    AssignmentDaemon._dispatch = dispatch

    # Journal: every record_* entry point; bytes come from the file size.
    for attr in list(vars(FlightRecorder)):
        if attr.startswith("record_"):
            wrap_method(rec, FlightRecorder, attr, "journal", skip_nested=True)

    def after_snapshot(snapshot_id, args, kwargs):
        store = args[0]
        row = store._connection.execute(
            "SELECT length(state_json) FROM snapshots WHERE snapshot_id = ?",
            (snapshot_id,),
        ).fetchone()
        counts["snapshot.bytes"] += row[0] if row else 0

    wrap_method(rec, SnapshotStore, "save", "snapshot", after_snapshot)

    def after_display(extras, args, kwargs):
        counts["quality.probes"] += len(extras)

    wrap_method(rec, QualityController, "on_tick", "quality.tick")
    wrap_method(rec, QualityController, "on_display", "quality.display", after_display)


def dump(rec: Recorder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec.to_dict(), fh)
