"""Online serving layer: the assignment daemon and its supporting parts.

The paper's deployment runs assignment "in the background while workers
complete tasks"; this package is that service boundary as a first-class
subsystem — a dependency-free asyncio JSON-over-HTTP daemon
(:mod:`repro.serve.app`) whose solves are micro-batched
(:mod:`repro.serve.scheduler`), whose pairwise-diversity matrices come from
an incremental cache (:mod:`repro.serve.cache`), and whose behaviour is
observable via Prometheus metrics (:mod:`repro.serve.metrics`) and
request-scoped stage traces (:mod:`repro.serve.tracing`).  Failure
behaviour — deadlines, graceful degradation down the paper's own solver
ladder, deterministic fault injection, crash-safe snapshots — lives in
:mod:`repro.serve.resilience`.  A closed-loop load generator
(:mod:`repro.serve.loadgen`) drives and verifies a running daemon, and a
deterministic flight recorder (:mod:`repro.serve.replay`) journals every
request and solve so a run can be replayed bit-for-bit offline.  See
docs/SERVING.md.
"""

from .app import AssignmentDaemon, ServeConfig, run_daemon
from .cache import IncrementalDiversityCache
from .loadgen import (
    LoadgenConfig,
    LoadgenResult,
    run_loadgen,
    run_self_contained,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .protocol import HttpClient, HttpError
from .replay import (
    Divergence,
    FlightRecorder,
    Journal,
    ReplayError,
    ReplayReport,
    ReplayVariant,
    load_journal,
    pool_fingerprint,
    replay_journal,
)
from .resilience import (
    DegradationController,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    ResilienceConfig,
    degradation_ladder,
)
from .scheduler import SolveScheduler
from .tracing import (
    NULL_TRACE,
    SolveContext,
    Span,
    SpanMetrics,
    Trace,
    TraceRecorder,
    summarize_trace_file,
)

__all__ = [
    "AssignmentDaemon",
    "Counter",
    "DegradationController",
    "Divergence",
    "FaultInjector",
    "FaultPlan",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HttpClient",
    "HttpError",
    "IncrementalDiversityCache",
    "InjectedFault",
    "Journal",
    "LoadgenConfig",
    "LoadgenResult",
    "MetricsRegistry",
    "NULL_TRACE",
    "ReplayError",
    "ReplayReport",
    "ReplayVariant",
    "ResilienceConfig",
    "ServeConfig",
    "SolveContext",
    "SolveScheduler",
    "Span",
    "SpanMetrics",
    "Trace",
    "TraceRecorder",
    "degradation_ladder",
    "load_journal",
    "pool_fingerprint",
    "replay_journal",
    "run_daemon",
    "run_loadgen",
    "run_self_contained",
]
