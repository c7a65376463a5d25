"""Tests of the benchmark itself (not of the program).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
from openloop import OpenLoop, Phase, SimWorker, completion_schedule  # noqa: E402
from stats import percentile, samples_needed, sustained_rate  # noqa: E402


# -- percentiles ---------------------------------------------------------------


def test_samples_needed_leaves_ten_beyond():
    assert samples_needed(50) == 20
    assert samples_needed(90) == 100
    assert samples_needed(99) == 1000
    assert samples_needed(99.9) == 10000


@pytest.mark.parametrize("q", [50, 90, 99])
def test_percentile_reports_only_with_ten_samples_beyond(q):
    need = samples_needed(q)
    assert percentile(range(need - 1), q) is None
    values = list(range(need))
    value = percentile(values, q)
    assert value is not None
    assert sum(v > value for v in values) >= 10


def test_percentile_is_nearest_rank():
    assert percentile(range(1, 101), 90) == 90
    assert percentile(range(1, 1001), 99) == 990


# -- sustained rate --------------------------------------------------------------


def test_sustained_rate_interpolates_a_linear_curve():
    # latency = rate / 100: the limit 0.5 s is met exactly at 50/s.
    ladder = [(r, r / 100.0, True) for r in (30, 40, 60, 80)]
    assert sustained_rate(ladder, 0.5) == pytest.approx(50.0)


def test_sustained_rate_moves_smoothly_with_the_curve():
    limits = [sustained_rate([(r, r * k, True) for r in (40, 60)], 0.5)
              for k in (0.0088, 0.009, 0.0092)]
    assert limits[0] > limits[1] > limits[2]
    assert all(40 < x < 60 for x in limits)


def test_sustained_rate_on_a_convex_curve():
    # Quadratic latency: interpolating between the bracketing rungs.
    ladder = [(r, (r / 60.0) ** 2 * 0.5, True) for r in (40, 50, 70)]
    expected = 50 + (0.5 - ladder[1][1]) / (ladder[2][1] - ladder[1][1]) * 20
    assert sustained_rate(ladder, 0.5) == pytest.approx(expected)


def test_sustained_rate_edges():
    assert sustained_rate([(40, 0.2, True), (60, 0.3, True)], 0.5) == 60
    assert sustained_rate([(40, 0.7, True), (60, 0.9, True)], 0.5) is None
    # A growing backlog misses the limit whatever the percentile says.
    assert sustained_rate([(40, 0.2, True), (60, 0.3, False)], 0.5) == 40
    assert sustained_rate([(40, 0.2, True), (60, None, True)], 0.5) == 40


# -- spans ---------------------------------------------------------------------------


def test_self_time_subtracts_children_and_clips_them():
    spans_ = [
        (1, "root", 0.0, 10.0, 0, "r1"),
        (2, "child", 1.0, 3.0, 1, "r1"),
        (3, "child", 2.0, 4.0, 1, "r1"),  # overlaps its sibling
        (4, "late", 9.0, 12.0, 1, "r1"),  # outlives its parent
        (5, "grandchild", 1.5, 2.0, 2, "r1"),
    ]
    own = spans.self_times(spans_)
    assert own[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[2] == pytest.approx(1.5)
    table = spans.layer_table(spans_)
    assert table["child"]["calls"] == 2
    assert table["child"]["busy_s"] == pytest.approx(4.0)
    parts = spans.subtree_parts(spans_, "root", ("child",))
    assert parts[1]["child"] == pytest.approx(1.5 + 2.0 + 0.5)
    assert parts[1]["root"] == pytest.approx(own[1] + own[4])



def test_assign_budget_files_loop_blocking_under_the_blocking_layers():
    from serving import assign_budget

    other = [  # another worker's batch holds the loop while c2 waits to be read
        (10, "scheduler.batch", 0.0, 1.0, 0, None),
        (11, "service.prepare", 0.0, 0.1, 10, None),
        (12, "solve", 0.1, 0.9, 10, None),
        (13, "matching", 0.2, 0.6, 12, None),
        (14, "service.commit", 0.9, 1.0, 10, None),
    ]
    own = [
        (20, "http", 1.0, 2.05, 0, "c2"),
        (21, "scheduler.batch", 1.05, 2.0, 0, None),
        (22, "solve", 1.05, 1.95, 21, None),
        (23, "service.commit", 1.95, 2.0, 21, None),
    ]
    samples = {"scheduler.waits": [["c2", 1.0, 1.05, 21]]}
    assigned = [("c2", 0.5, 2.1)]
    budget = assign_budget({"spans": other + own, "samples": samples}, assigned, 1.6)
    assert budget["ingress_blocked_s"] == pytest.approx(
        {"matching": 0.1, "solve": 0.3, "service.commit": 0.1})
    assert budget["parts_s"]["ingress"] == pytest.approx(0.0)
    assert budget["total_s"] == pytest.approx(1.6)
    assert budget["listed_s"] == pytest.approx(0.5 + 0.05 + 0.9 + 0.05)
    assert budget["ok"]
    # Without the blocking batch's spans the listed layers miss a third.
    budget = assign_budget({"spans": own, "samples": samples}, assigned, 1.6)
    assert budget["listed_s"] == pytest.approx(1.0)
    assert not budget["ok"]

def test_offline_figures_are_step_time_over_probe_time():
    import offline
    import probe

    # The host's speed halves and recovers; every step keeps its share of
    # the probe run just before it, so the gated figures do not move.
    result = collections.namedtuple("Result", "objective")(1.0)
    records = []
    for i in range(24):
        slow = 2.0 if i % 3 == 0 else 1.0
        for solver, share in (("hta-app", 40.0), ("hta-gre", 4.0)):
            records.append({"index": i, "solver": solver, "seconds": share * 0.03 * slow,
                            "cpu_s": share * 0.02 * slow, "probe_s": (0.03 * slow, 0.02 * slow),
                            "result": result, "error": None})
    setups = [(5.0 * 0.03 * slow, 0.03 * slow) for slow in (1.0, 2.0, 1.0)]
    cfg = {"solvers": ["hta-app", "hta-gre"], "instances": 24}
    e2e = offline.summarize(cfg, setups, records, 1.0)["e2e"]
    assert e2e["assign_s.p50"] == pytest.approx(44.0 * probe.NOMINAL_S)
    assert e2e["cpu_ms.per_op"] == pytest.approx(1000.0 * 44.0 * probe.NOMINAL_S)
    assert e2e["setup_s"] == pytest.approx(5.0 * probe.NOMINAL_S)


def test_solver_wrappers_time_what_the_program_times():
    from repro.core.instance import HTAInstance
    from repro.core.solvers import get_solver
    from repro.experiments import build_offline_instance

    from serving import solver_cross_checks, solver_layer_metrics

    recorder = spans.Recorder()
    spans.install_solver_layers(recorder, strategy="hta-gre")
    base = build_offline_instance(120, 20, 6, 5, rng=3)
    for seed in range(2):
        instance = HTAInstance(base.tasks, base.workers, base.x_max)
        get_solver("hta-gre").solve(instance, seed)
    table = spans.layer_table(recorder.spans)
    layers = solver_layer_metrics(table, recorder.counts)
    assert layers["solve.calls"] == 2
    assert layers["lsap.calls"] == layers["matching.calls"] == 2
    assert layers["lsap.cells"] == 2 * 120 * 120
    assert layers["lsap.useful_col_share"] == pytest.approx(30 / 120)
    assert layers["solve.degraded_share"] == 0
    assert all(solver_cross_checks(table, recorder.samples).values())


# -- the open loop -------------------------------------------------------------------


class FakeDaemon:
    """A tiny pipelining server speaking the daemon's worker protocol.

    Answers in order per connection after a seeded delay, hands out fresh
    task ids on every eighth completion, and counts any worker that has two
    requests in flight at once.
    """

    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s
        self.rng = np.random.default_rng(0)
        self.in_flight = collections.Counter()
        self.overlaps = 0
        self.done_since = collections.Counter()
        self.iteration = collections.Counter()

    def display(self, worker: str) -> dict:
        self.iteration[worker] += 1
        ids = [f"{worker}-{self.iteration[worker]}-{j}" for j in range(20)]
        return {"iteration": self.iteration[worker], "pending": ids,
                "tasks": [{"task_id": t, "keywords": ["audio", f"k{j % 5}"]}
                          for j, t in enumerate(ids)]}

    async def handle(self, reader, writer):
        queue: asyncio.Queue = asyncio.Queue()

        async def respond():
            while True:
                item = await queue.get()
                if item is None:
                    return
                worker, payload = await item
                self.in_flight[worker] -= 1
                body = json.dumps(payload).encode()
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body)

        responder = asyncio.get_running_loop().create_task(respond())
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int([line for line in head.split(b"\r\n")
                              if line.lower().startswith(b"content-length")][0].split(b":")[1])
                body = json.loads(await reader.readexactly(length)) if length else {}
                method, path = head.split(b" ")[:2]
                worker = body.get("worker_id") or path.decode().rsplit("/", 1)[-1]
                self.in_flight[worker] += 1
                if self.in_flight[worker] > 1:
                    self.overlaps += 1
                delay = float(self.rng.uniform(0, self.delay_s))
                await queue.put(asyncio.ensure_future(self.answer(worker, path, body, delay)))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            await queue.put(None)
            await responder
            writer.close()

    async def answer(self, worker, path, body, delay):
        await asyncio.sleep(delay)
        if path == b"/workers":
            return worker, {"display": self.display(worker)}
        self.done_since[worker] += 1
        fresh = self.done_since[worker] >= 8
        if fresh:
            self.done_since[worker] = 0
            display = self.display(worker)
        else:
            display = {"iteration": self.iteration[worker], "pending": [body["task_id"] + "x"],
                       "tasks": [{"task_id": body["task_id"] + "x", "keywords": ["audio"]}]}
        return worker, {"reassigned": fresh, "deadline_exceeded": False, "display": display}


def drive_fake(seed: int, rate: float, seconds: float, delay_s: float, n_workers: int):
    from repro.crowd.behavior import BehaviorParams, LatentProfile, WorkerBehavior
    from repro.core.worker import MotivationWeights

    fake = FakeDaemon(delay_s)
    sent = []

    async def main():
        server = await asyncio.start_server(fake.handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        workers = [
            SimWorker(f"w{i}", ["audio"], WorkerBehavior(
                LatentProfile(MotivationWeights(0.5, 0.5)), BehaviorParams(),
                np.random.default_rng([seed, i])))
            for i in range(n_workers)
        ]
        loop = OpenLoop("127.0.0.1", port, workers,
                        [Phase("fixed", rate, seconds)], seed, connections=2)
        send = loop._send

        def logged_send(method, path, payload=None, **kwargs):
            sent.append((method, path, (payload or {}).get("worker_id"),
                         (payload or {}).get("task_id")))
            return send(method, path, payload, **kwargs)

        loop._send = logged_send
        await loop.connect()
        await loop.register()
        await loop.run()
        await loop.close()
        server.close()
        await server.wait_closed()
        return loop

    loop = asyncio.run(main())
    return fake, loop, sent


def test_a_seed_fixes_the_due_times_and_worker_sequence():
    phases = [Phase("a", 40.0, 5.0), Phase("b", 80.0, 2.0)]
    first = completion_schedule(7, phases, 30)
    assert first == completion_schedule(7, phases, 30)
    assert first != completion_schedule(8, phases, 30)
    assert all(0 <= t < 7.0 for t, _, _ in first)
    assert sorted(t for t, _, _ in first) == [t for t, _, _ in first]


def test_a_seed_fixes_the_request_sequence():
    # Instant answers and many workers: the preferred worker is always
    # idle, so the seed alone decides who completes which task when.
    runs = [drive_fake(5, rate=40.0, seconds=1.0, delay_s=0.0, n_workers=30)[2]
            for _ in range(2)]
    other = drive_fake(6, rate=40.0, seconds=1.0, delay_s=0.0, n_workers=30)[2]
    assert len(runs[0]) > 30
    assert runs[0] == runs[1]
    assert runs[0] != other


def test_no_worker_ever_has_two_requests_in_flight():
    # Slow answers and few workers force the backlog path.
    fake, loop, _ = drive_fake(3, rate=150.0, seconds=1.0, delay_s=0.05, n_workers=3)
    stats = loop.stats[0]
    assert fake.overlaps == 0
    assert stats.backlog_max > 0
    assert stats.sent == stats.ok == len(stats.complete_s) > 100
    assert stats.failed == 0
    assert len(stats.assign_s) > 0
    assert loop.oracle.violations == 0
