"""Metrics registry: counters, histograms, Prometheus rendering, and the
documented metric catalogue."""

import asyncio
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core import Task, TaskPool, Vocabulary
from repro.crowd.service import ServiceConfig
from repro.quality import AdjudicationConfig, GoldConfig, QualityConfig
from repro.serve.app import AssignmentDaemon, ServeConfig
from repro.serve.metrics import Counter, Histogram, MetricsRegistry
from repro.serve.protocol import HttpClient
from repro.serve.resilience import FaultPlan


class TestCounter:
    def test_increments(self):
        c = Counter("requests_total")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("x").inc(-1)

    def test_rejects_bad_names(self):
        with pytest.raises(ValueError, match="metric names"):
            Counter("bad name!")

    def test_render(self):
        c = Counter("hits_total", "Hits served")
        c.inc(3)
        text = c.render()
        assert "# HELP hits_total Hits served" in text
        assert "# TYPE hits_total counter" in text
        assert text.endswith("hits_total 3")


class TestHistogram:
    def test_quantiles_on_known_data(self):
        h = Histogram("lat_seconds")
        for value in range(1, 101):  # 0.01 .. 1.00
            h.observe(value / 100)
        assert h.quantile(0.50) == pytest.approx(0.50)
        assert h.quantile(0.95) == pytest.approx(0.95)
        assert h.quantile(0.99) == pytest.approx(0.99)
        assert h.count == 100
        assert h.sum == pytest.approx(sum(range(1, 101)) / 100)

    def test_empty_quantile_is_zero(self):
        assert Histogram("empty").quantile(0.95) == 0.0

    def test_summary_keys(self):
        h = Histogram("s")
        h.observe(0.02)
        summary = h.summary()
        assert set(summary) == {"count", "sum", "mean", "p50", "p95", "p99"}
        assert summary["count"] == 1.0

    def test_render_cumulative_buckets(self):
        h = Histogram("d", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            h.observe(value)
        text = h.render()
        assert 'd_bucket{le="0.1"} 1' in text
        assert 'd_bucket{le="1"} 2' in text
        assert 'd_bucket{le="+Inf"} 3' in text
        assert "d_count 3" in text

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError, match="at least one bucket"):
            Histogram("h", buckets=())


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")
        assert registry.histogram("b_seconds") is registry.histogram("b_seconds")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="not a"):
            registry.histogram("x")

    def test_render_all(self):
        registry = MetricsRegistry()
        registry.counter("ops_total").inc()
        registry.histogram("lat_seconds").observe(0.2)
        text = registry.render()
        assert "ops_total 1" in text
        assert "lat_seconds_count 1" in text
        assert text.endswith("\n")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("ops_total").inc(2)
        registry.histogram("lat_seconds").observe(0.1)
        snap = registry.snapshot()
        assert snap["ops_total"] == 2.0
        assert snap["lat_seconds"]["count"] == 1.0


class TestHistogramProperties:
    """Property-based checks on the bucket math (hypothesis)."""

    hypothesis = pytest.importorskip("hypothesis")
    given = hypothesis.given
    settings = hypothesis.settings
    st = hypothesis.strategies

    #: Finite, strictly sorted bucket-edge lists.
    edges = st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        ),
        min_size=1, max_size=8, unique=True,
    ).map(sorted)
    #: Observation values; +inf is legal (it lands only in the implicit
    #: +Inf bucket), NaN is not meaningful for a latency histogram.
    values = st.lists(
        st.floats(
            min_value=-1e9, max_value=1e9,
            allow_nan=False, allow_infinity=False,
        )
        | st.just(float("inf")),
        min_size=0, max_size=60,
    )

    @staticmethod
    def parse_buckets(h: Histogram) -> list[tuple[str, int]]:
        """(le, cumulative_count) pairs in render order, +Inf last."""
        out = []
        for line in h.render().splitlines():
            if "_bucket{" in line:
                le = line.split('le="')[1].split('"')[0]
                out.append((le, int(line.rsplit(" ", 1)[1])))
        return out

    @given(edges=edges, values=values)
    @settings(max_examples=60, deadline=None)
    def test_cumulative_counts_are_monotone_and_end_at_count(
        self, edges, values
    ):
        h = Histogram("p_seconds", buckets=edges)
        for value in values:
            h.observe(value)
        rendered = self.parse_buckets(h)
        counts = [count for _, count in rendered]
        assert counts == sorted(counts)  # cumulative ⇒ monotone
        assert rendered[-1][0] == "+Inf"
        assert rendered[-1][1] == h.count == len(values)

    @given(edges=edges, values=values)
    @settings(max_examples=60, deadline=None)
    def test_each_bucket_counts_exactly_le_values(self, edges, values):
        h = Histogram("p_seconds", buckets=edges)
        for value in values:
            h.observe(value)
        for edge, cumulative in zip(h.buckets, self.parse_buckets(h)):
            assert cumulative[1] == sum(1 for v in values if v <= edge)

    @given(edges=edges, values=values)
    @settings(max_examples=60, deadline=None)
    def test_sum_and_count_are_consistent(self, edges, values):
        h = Histogram("p_seconds", buckets=edges)
        for value in values:
            h.observe(value)
        assert h.count == len(values)
        assert h.sum == sum(values)  # same accumulation order ⇒ exact
        assert f"p_seconds_count {len(values)}" in h.render()

    def test_exact_boundaries_at_edge_values(self):
        h = Histogram("edge_seconds", buckets=(0.0, 0.5, 1.0))
        h.observe(0.0)   # le="0" is inclusive
        h.observe(0.5)   # sits IN the 0.5 bucket, not above it
        h.observe(0.5000001)
        h.observe(float("inf"))  # only the implicit +Inf bucket
        rendered = dict(self.parse_buckets(h))
        assert rendered["0"] == 1
        assert rendered["0.5"] == 2
        assert rendered["1"] == 3
        assert rendered["+Inf"] == 4

    def test_infinite_finite_edges_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Histogram("bad_seconds", buckets=(0.1, float("inf")))


class TestLabeledCounter:
    def test_one_series_per_label_tuple(self):
        registry = MetricsRegistry()
        family = registry.labeled_counter(
            "adjudications_total", "Ballots closed", label_names=["outcome"]
        )
        family.labels(outcome="resolved").inc(3)
        family.labels(outcome="tie").inc()
        family.labels(outcome="resolved").inc()
        assert family.value(outcome="resolved") == 4
        text = registry.render()
        assert 'adjudications_total{outcome="resolved"} 4' in text
        assert 'adjudications_total{outcome="tie"} 1' in text
        assert text.count("# TYPE adjudications_total counter") == 1

    def test_label_values_escaped_in_exposition(self):
        """Backslash, quote and newline are the three characters the
        Prometheus text format reserves inside quoted label values."""
        registry = MetricsRegistry()
        family = registry.labeled_counter(
            "events_total", label_names=["reason"]
        )
        family.labels(reason='back\\slash "quote"\nnewline').inc()
        text = registry.render()
        series = [
            line for line in text.splitlines()
            if line.startswith("events_total{")
        ]
        # The raw newline must not split the series across physical lines,
        # and each reserved character must appear backslash-escaped.
        assert len(series) == 1
        assert '\\n' in series[0] and "\n" not in series[0].replace("\\n", "")
        assert '\\"' in series[0]
        assert "\\\\" in series[0]

    def test_wrong_label_names_rejected(self):
        registry = MetricsRegistry()
        family = registry.labeled_counter("x_total", label_names=["a"])
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(b="1")

    def test_same_name_different_labels_rejected(self):
        registry = MetricsRegistry()
        registry.labeled_counter("x_total", label_names=["a"])
        with pytest.raises(ValueError):
            registry.labeled_counter("x_total", label_names=["b"])


# -- the documented catalogue ------------------------------------------------

SERVING_MD = Path(__file__).resolve().parents[1] / "docs" / "SERVING.md"

#: One metric-table row: | `name` | type | meaning |
_TABLE_ROW = re.compile(r"^\| `([a-z_<>*]+)` \| (?:counter|gauge|histogram) \|", re.M)


def documented_families() -> set[str]:
    """Every metric named in SERVING.md's tables."""
    return set(_TABLE_ROW.findall(SERVING_MD.read_text(encoding="utf-8")))


def _pattern(name: str) -> "re.Pattern[str]":
    """A documented name as a regex: ``*`` and ``<placeholder>`` expand."""
    parts = re.split(r"\*|<[a-z_]+>", name)
    return re.compile("[a-z_]+".join(re.escape(part) for part in parts) + "$")


def emitted_families() -> set[str]:
    """Family names a fully-featured daemon exposes on ``/metrics``."""
    n_keywords = 16
    vocab = Vocabulary([f"k{i}" for i in range(n_keywords)])
    rng = np.random.default_rng(0)
    pool = TaskPool(
        [Task(f"t{i}", rng.random(n_keywords) < 0.3) for i in range(300)], vocab
    )
    config = ServeConfig(
        port=0,
        seed=0,
        max_batch_delay=0.01,
        service=ServiceConfig(
            x_max=5, n_random_pad=2, reassign_after=3, min_pending=1,
            candidate_cap=None,
        ),
        quality=QualityConfig(
            gold=GoldConfig(rate=1.0, seed=3, n_labels=4),
            adjudication=AdjudicationConfig(redundancy=2),
        ),
        fault_plan=FaultPlan(seed=1, solve_delay_p=0.5),
        trace_sample_rate=1.0,
    )

    async def scenario():
        daemon = AssignmentDaemon(pool, config)
        await daemon.start()
        client = HttpClient("127.0.0.1", daemon.port)
        try:
            _, body = await client.request(
                "POST", "/workers", {"worker_id": "w", "keywords": ["k1"]}
            )
            pending = body["display"]["pending"]
            for _ in range(8):
                _, body = await client.request(
                    "POST",
                    "/complete",
                    {"worker_id": "w", "task_id": pending[0], "answer": 1},
                )
                pending = body["display"]["pending"]
            status, text = await client.request("GET", "/metrics")
            assert status == 200
            return text
        finally:
            await client.close()
            await daemon.stop()

    text = asyncio.run(asyncio.wait_for(scenario(), timeout=60.0))
    return set(re.findall(r"^# TYPE (\S+) ", text, re.M))


class TestMetricCatalogue:
    """SERVING.md's metric tables and the daemon's ``/metrics`` agree in
    both directions."""

    @pytest.fixture(scope="class")
    def emitted(self):
        return emitted_families()

    def test_every_emitted_family_is_documented(self, emitted):
        patterns = [_pattern(name) for name in documented_families()]
        undocumented = sorted(
            family for family in emitted
            if not any(p.match(family) for p in patterns)
        )
        assert not undocumented, f"missing from SERVING.md: {undocumented}"

    def test_every_documented_family_is_emitted(self, emitted):
        never_emitted = sorted(
            name for name in documented_families()
            if not any(_pattern(name).match(family) for family in emitted)
        )
        assert not never_emitted, f"documented but not emitted: {never_emitted}"

    def test_fault_wildcard_expands_to_every_fault_kind(self, emitted):
        faults = {f for f in emitted if _pattern("serve_fault_*_total").match(f)}
        assert faults == {
            "serve_fault_solve_delays_total",
            "serve_fault_solve_failures_total",
            "serve_fault_dropped_connections_total",
            "serve_fault_dropped_responses_total",
            "serve_fault_corrupted_bodies_total",
        }
