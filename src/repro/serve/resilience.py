"""Fault injection and graceful degradation for the serving layer.

A production assignment daemon must keep honoring the paper's constraints
C1/C2 *under failure*: slow solves, dropped connections, malformed traffic,
worker churn mid-batch.  This module provides the two halves of that story:

* :class:`DegradationController` — overload detection and load shedding.
  The paper itself supplies the degradation ladder: HTA-APP is the 1/4
  approximation with an optimal Hungarian step (``O(|T|^3)`` in the paper,
  ``O((|W| x_max)^2 |T|)`` over the clique columns), HTA-GRE trades that for
  a 1/8 factor at ``O(|T|^2 log |T|)`` (Section IV-C), and below both sits a
  relevance-only greedy dealer that never touches the quadratic diversity
  term at all.  The controller watches per-solve wall time against a budget
  and walks the ladder down one tier per sustained breach streak, then back
  up after a streak of healthy solves.  The active tier is exported as the
  ``serve_degradation_tier`` gauge and in ``/healthz``.

* :class:`FaultInjector` — a deterministic chaos source driven by a
  :class:`FaultPlan` (seeded via :mod:`repro.rng`).  It can delay or fail
  solves, drop accepted connections before the response is written, and
  corrupt request bodies (which the daemon must then *reject*, not crash
  on).  The same plan format is usable from tests and from the
  ``repro serve --fault-plan plan.json`` CLI flag, so a chaos run in CI and
  a chaos run against a live daemon exercise identical code paths.

Everything here is dependency-free and deterministic: a ``FaultPlan`` with a
fixed seed produces the same fault sequence on every run, which is what lets
the chaos regression tests pin exact tier transitions.
"""

from __future__ import annotations

import json
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

from ..core.solvers import get_solver
from ..rng import ensure_rng
from .metrics import MetricsRegistry

#: Human-readable names of the canonical degradation ladder positions.
DEFAULT_LADDER = ("hta-app", "hta-gre", "greedy-relevance")


class InjectedFault(RuntimeError):
    """An artificial failure raised by the fault injector."""


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for deadlines, overload detection, and recovery.

    Attributes:
        request_deadline: Seconds a request may park on the solve scheduler
            before the daemon answers with the worker's current display
            instead (the response carries ``deadline_exceeded: true``).
            Clients may tighten (never widen) this per-request with an
            ``x-deadline-ms`` header.
        solve_budget: Target wall-clock seconds for one batched solve; a
            solve over budget counts as a breach.
        breach_threshold: Consecutive breaches (over-budget solves or
            deadline misses) that trigger a one-tier degradation.
        recovery_threshold: Consecutive under-budget solves that lift the
            daemon back up one tier.
    """

    request_deadline: float = 2.0
    solve_budget: float = 0.5
    breach_threshold: int = 3
    recovery_threshold: int = 5

    def __post_init__(self) -> None:
        if self.request_deadline <= 0:
            raise ValueError(
                f"request_deadline must be > 0, got {self.request_deadline}"
            )
        if self.solve_budget <= 0:
            raise ValueError(f"solve_budget must be > 0, got {self.solve_budget}")
        if self.breach_threshold < 1:
            raise ValueError(
                f"breach_threshold must be >= 1, got {self.breach_threshold}"
            )
        if self.recovery_threshold < 1:
            raise ValueError(
                f"recovery_threshold must be >= 1, got {self.recovery_threshold}"
            )


def degradation_ladder(strategy: str) -> tuple[str, ...]:
    """The solver ladder for a daemon configured with ``strategy``.

    The configured strategy sits at tier 0; only *cheaper* rungs of the
    canonical ladder are appended below it, so a daemon already running
    ``hta-gre`` sheds straight to ``greedy-relevance`` and one running
    ``greedy-relevance`` has nowhere cheaper to go.
    """
    if strategy in DEFAULT_LADDER:
        return DEFAULT_LADDER[DEFAULT_LADDER.index(strategy):]
    return (strategy,) + DEFAULT_LADDER[1:]


class DegradationController:
    """Walks the solver ladder in response to solve-time pressure.

    Args:
        ladder: Solver names from most expensive/highest quality (tier 0)
            to cheapest (last tier); see :func:`degradation_ladder`.
        config: Budget and streak thresholds.
        registry: Metrics sink; the controller owns
            ``serve_degradation_tier`` (gauge), ``serve_degradations_total``
            and ``serve_recoveries_total`` (counters).
    """

    def __init__(
        self,
        ladder: Sequence[str],
        config: ResilienceConfig,
        registry: MetricsRegistry,
    ):
        if not ladder:
            raise ValueError("the degradation ladder cannot be empty")
        for name in ladder:
            get_solver(name)  # an unknown rung fails here, not at a solve
        self._ladder = tuple(ladder)
        self._config = config
        self._tier = 0
        self._breaches = 0
        self._healthy = 0
        self._tier_gauge = registry.gauge(
            "serve_degradation_tier",
            "Active degradation tier (0 = full quality)",
        )
        self._degradations = registry.counter(
            "serve_degradations_total", "Tier escalations under overload"
        )
        self._recoveries = registry.counter(
            "serve_recoveries_total", "Tier recoveries after sustained health"
        )

    @property
    def tier(self) -> int:
        return self._tier

    @property
    def strategy(self) -> str:
        """Name of the solver serving the active tier."""
        return self._ladder[self._tier]

    @property
    def ladder(self) -> tuple[str, ...]:
        return self._ladder

    def observe_solve(self, seconds: float) -> None:
        """Feed one solve's wall time into the breach/health streaks."""
        if seconds > self._config.solve_budget:
            self._note_breach()
        else:
            self._note_healthy()

    def observe_deadline_miss(self) -> None:
        """A request blew its deadline waiting on a solve — overload signal."""
        self._note_breach()

    def observe_solve_failure(self) -> None:
        """A batched solve raised; treated like an over-budget solve."""
        self._note_breach()

    def _note_breach(self) -> None:
        self._healthy = 0
        self._breaches += 1
        if (
            self._breaches >= self._config.breach_threshold
            and self._tier < len(self._ladder) - 1
        ):
            self._tier += 1
            self._breaches = 0
            self._degradations.inc()
            self._tier_gauge.set(self._tier)

    def _note_healthy(self) -> None:
        self._breaches = 0
        self._healthy += 1
        if self._healthy >= self._config.recovery_threshold and self._tier > 0:
            self._tier -= 1
            self._healthy = 0
            self._recoveries.inc()
            self._tier_gauge.set(self._tier)

    def describe(self) -> dict:
        """JSON-friendly state for ``/healthz``."""
        return {
            "tier": self._tier,
            "strategy": self.strategy,
            "ladder": list(self.ladder),
            "consecutive_breaches": self._breaches,
            "consecutive_healthy": self._healthy,
            "solve_budget_seconds": self._config.solve_budget,
            "request_deadline_seconds": self._config.request_deadline,
        }


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic chaos schedule.

    All probabilities are per-event Bernoulli draws from one seeded stream,
    so a plan is fully reproducible given its seed and the request sequence.

    Attributes:
        seed: Seed of the injector's random stream.
        solve_delay_p: Probability a solve is delayed by ``solve_delay_s``.
        solve_delay_s: Injected solve delay in seconds (blocks the loop, as
            a genuinely slow synchronous solve would).
        max_solve_delays: Cap on injected delays (``None`` = unlimited);
            capping lets chaos tests exercise recovery after a burst.
        solve_fail_p: Probability a solve raises :class:`InjectedFault`.
        drop_connection_p: Probability a parsed request's connection is
            closed without a response, *before* the request is dispatched
            (the request never happened server-side; retrying is safe).
        drop_response_p: Probability the connection is closed *after* the
            request was dispatched but before its response is written — the
            classic lost-ack failure.  The client cannot distinguish this
            from ``drop_connection_p`` and retries; the daemon must make
            retried mutations idempotent (completion keys) or the retry
            surfaces as a 409.
        corrupt_body_p: Probability a non-empty request body is corrupted
            before dispatch (the daemon must reject it with a 400).
    """

    seed: int = 0
    solve_delay_p: float = 0.0
    solve_delay_s: float = 0.0
    max_solve_delays: int | None = None
    solve_fail_p: float = 0.0
    drop_connection_p: float = 0.0
    drop_response_p: float = 0.0
    corrupt_body_p: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "solve_delay_p", "solve_fail_p", "drop_connection_p",
            "drop_response_p", "corrupt_body_p",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.solve_delay_s < 0:
            raise ValueError(f"solve_delay_s must be >= 0, got {self.solve_delay_s}")
        if self.max_solve_delays is not None and self.max_solve_delays < 0:
            raise ValueError(
                f"max_solve_delays must be >= 0, got {self.max_solve_delays}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
        return cls(**payload)

    @classmethod
    def from_file(cls, path: "str | Path") -> "FaultPlan":
        """Load a plan from a JSON file (the ``--fault-plan`` format)."""
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError("a fault plan file must hold a JSON object")
        return cls.from_dict(payload)


class FaultInjector:
    """Executes a :class:`FaultPlan` against the daemon's seams.

    One injector instance owns one seeded stream; each hook draws from it in
    call order, so the fault sequence is a pure function of (plan, traffic).
    """

    def __init__(self, plan: FaultPlan, registry: MetricsRegistry):
        self.plan = plan
        self._rng = ensure_rng(plan.seed)
        self._delays_injected = 0
        self._solve_delays = registry.counter(
            "serve_fault_solve_delays_total", "Injected solve delays"
        )
        self._solve_failures = registry.counter(
            "serve_fault_solve_failures_total", "Injected solve failures"
        )
        self._dropped = registry.counter(
            "serve_fault_dropped_connections_total", "Injected connection drops"
        )
        self._dropped_responses = registry.counter(
            "serve_fault_dropped_responses_total",
            "Responses dropped after dispatch (lost-ack injection)",
        )
        self._corrupted = registry.counter(
            "serve_fault_corrupted_bodies_total", "Injected body corruptions"
        )

    def _draw(self, probability: float) -> bool:
        if probability <= 0.0:
            return False
        return bool(self._rng.random() < probability)

    def on_solve(self) -> None:
        """Called inside a batched solve, after its prepare; may sleep or
        raise."""
        if self._draw(self.plan.solve_fail_p):
            self._solve_failures.inc()
            raise InjectedFault("injected solve failure")
        if self._draw(self.plan.solve_delay_p):
            limit = self.plan.max_solve_delays
            if limit is None or self._delays_injected < limit:
                self._delays_injected += 1
                self._solve_delays.inc()
                if self.plan.solve_delay_s > 0:
                    time.sleep(self.plan.solve_delay_s)

    def drop_connection(self) -> bool:
        """Whether to close the current connection without responding."""
        if self._draw(self.plan.drop_connection_p):
            self._dropped.inc()
            return True
        return False

    def drop_response(self) -> bool:
        """Whether to drop the current *response* (the request already ran)."""
        if self._draw(self.plan.drop_response_p):
            self._dropped_responses.inc()
            return True
        return False

    def corrupt_body(self, body: bytes) -> bytes | None:
        """A corrupted copy of ``body``, or ``None`` to leave it alone.

        The corruption prepends a NUL byte, which can never start valid
        JSON, so the daemon's parse path must reject it with a 400.
        """
        if body and self._draw(self.plan.corrupt_body_p):
            self._corrupted.inc()
            return b"\x00" + body[1:]
        return None

    def describe(self) -> dict:
        """JSON-friendly state for ``/healthz``."""
        return {
            "plan": self.plan.to_dict(),
            "solve_delays_injected": self._delays_injected,
        }
