"""Bandit policies over the motivation-estimation seam (PAPERS.md: Zhang
et al. frame adaptive task assignment as exploration/exploitation).

Weight policies decide the solve-time ``(alpha, beta)`` for each worker
from an estimator's posterior instead of committing to its mean.
:class:`ThompsonWeightPolicy` draws alpha from the Beta posterior (wiring
the previously unreachable
:meth:`~repro.core.estimators.BayesianMotivationEstimator.sample_weights`
into the serving path); :class:`UCBWeightPolicy` adds an optimism bonus
toward the under-observed diversity side that shrinks as evidence
accumulates.  ``None`` / "off" keeps the paper's mean behaviour
bit-identically (the policy is simply never consulted).

The solver tier is not a bandit decision: the streak
:class:`repro.serve.resilience.DegradationController` walks the ladder.

Weight policies are duck-typed like estimators: anything with
``weights_for(estimator, worker_id)`` plugs into
:class:`~repro.crowd.service.AssignmentService` and
:func:`~repro.core.adaptive.run_adaptive_loop`.  Policies that hold
state (RNG, pull counts) expose the same ``state_dict`` /
``load_state_dict`` contract as estimators so snapshots stay
bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidInstanceError
from .adaptive import MotivationEstimator
from .estimators import BayesianMotivationEstimator
from .worker import MotivationWeights

#: Valid ``--estimator`` names.
ESTIMATORS = ("plain", "bayes")
#: Valid ``--bandit`` weight-policy names.
WEIGHT_POLICIES = ("off", "thompson", "ucb")

#: Mixed into the service seed so the Thompson stream is independent of the
#: service's own shortlist/seed stream while staying reproducible from the
#: journal header alone.
_THOMPSON_STREAM = 0x54485053  # "THPS"


def make_estimator(name: str):
    """Build a named estimator (``plain`` | ``bayes``) with defaults."""
    if name == "plain":
        return MotivationEstimator()
    if name == "bayes":
        return BayesianMotivationEstimator()
    raise InvalidInstanceError(
        f"unknown estimator {name!r}; expected one of {ESTIMATORS}"
    )


def make_weight_policy(name: str, seed: "int | None" = None):
    """Build a named weight policy; ``off`` maps to ``None`` (mean path)."""
    if name == "off":
        return None
    if name == "thompson":
        return ThompsonWeightPolicy(seed=seed)
    if name == "ucb":
        return UCBWeightPolicy()
    raise InvalidInstanceError(
        f"unknown bandit policy {name!r}; expected one of {WEIGHT_POLICIES}"
    )


def build_adaptivity(config: dict, seed: "int | None" = None):
    """Build ``(estimator, weight_policy)`` from an adaptivity config dict.

    The dict is the journal-header / ServeConfig shape:
    ``{"estimator": "plain"|"bayes", "bandit": "off"|"thompson"|"ucb"}``;
    missing keys default to the paper's behaviour.  Both the daemon and
    replay construct through here so a recorded bandit run reconstructs
    the exact same policy (including the Thompson RNG stream derived from
    ``seed``).

    Raises:
        InvalidInstanceError: unknown names, or ``thompson`` without a
            posterior-sampling estimator.
    """
    estimator_name = config.get("estimator", "plain")
    bandit_name = config.get("bandit", "off")
    estimator = make_estimator(estimator_name)
    policy = make_weight_policy(bandit_name, seed=seed)
    if policy is not None and policy.requires_sampling:
        if not hasattr(estimator, "sample_weights"):
            raise InvalidInstanceError(
                f"bandit policy {bandit_name!r} requires a posterior-sampling "
                f"estimator (use --estimator bayes), got {estimator_name!r}"
            )
    return estimator, policy


class MeanWeightPolicy:
    """The identity policy: delegate to the estimator's mean.

    Exists so callers can hold "some policy" uniformly; the serving path
    uses ``None`` instead to keep the default branch untouched.
    """

    name = "off"
    requires_sampling = False

    def weights_for(self, estimator, worker_id: str) -> MotivationWeights:
        return estimator.weights_for(worker_id)

    def state_dict(self) -> dict:
        return {"name": self.name}

    def load_state_dict(self, state: dict) -> None:
        pass

    def describe(self) -> dict:
        return {"policy": self.name, "draws": 0}


class ThompsonWeightPolicy:
    """Thompson sampling over per-worker alpha.

    Each solve-time consultation draws alpha from the estimator's Beta
    posterior (``estimator.sample_weights``).  The policy owns its own
    deterministic RNG stream, derived from the service seed but decoupled
    from the service's shortlist/seed stream, so replay reconstructs the
    exact draw sequence from the journal header alone.
    """

    name = "thompson"
    requires_sampling = True

    def __init__(self, seed: "int | None" = None):
        if seed is None:
            self._rng = np.random.default_rng()
        else:
            self._rng = np.random.default_rng([int(seed), _THOMPSON_STREAM])
        self._draws = 0
        self._pulls: dict[str, int] = {}

    @property
    def draws(self) -> int:
        """Total posterior draws made (for metrics)."""
        return self._draws

    def weights_for(self, estimator, worker_id: str) -> MotivationWeights:
        self._draws += 1
        self._pulls[worker_id] = self._pulls.get(worker_id, 0) + 1
        return estimator.sample_weights(worker_id, self._rng)

    # -- snapshot -------------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "name": self.name,
            "rng_state": self._rng.bit_generator.state,
            "draws": self._draws,
            "pulls": dict(self._pulls),
        }

    def load_state_dict(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng_state"]
        self._draws = int(state["draws"])
        self._pulls = {w: int(v) for w, v in state["pulls"].items()}

    def describe(self) -> dict:
        return {
            "policy": self.name,
            "draws": self._draws,
            "workers": len(self._pulls),
        }


class UCBWeightPolicy:
    """UCB over per-worker alpha: mean plus a shrinking optimism bonus.

    The bonus ``c * sqrt(ln(1 + t) / (1 + n_w))`` (``t`` total
    consultations, ``n_w`` the worker's raw observation count) pushes
    under-observed workers toward diversity-seeking assignments — the
    factor whose gains are only observable once a reference set exists —
    and decays to the posterior mean as evidence accumulates.  Fully
    deterministic: no RNG state to snapshot.
    """

    name = "ucb"
    requires_sampling = False

    def __init__(self, c: float = 0.35):
        if c < 0.0:
            raise InvalidInstanceError(f"exploration constant must be >= 0, got {c}")
        self._c = c
        self._draws = 0
        self._pulls: dict[str, int] = {}

    @property
    def draws(self) -> int:
        return self._draws

    def weights_for(self, estimator, worker_id: str) -> MotivationWeights:
        self._draws += 1
        self._pulls[worker_id] = self._pulls.get(worker_id, 0) + 1
        mean = estimator.weights_for(worker_id).alpha
        n = estimator.observation_count(worker_id)
        bonus = self._c * math.sqrt(math.log(1.0 + self._draws) / (1.0 + n))
        alpha = min(1.0, max(0.0, mean + bonus))
        return MotivationWeights(alpha, 1.0 - alpha)

    # -- snapshot -------------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "name": self.name,
            "c": self._c,
            "draws": self._draws,
            "pulls": dict(self._pulls),
        }

    def load_state_dict(self, state: dict) -> None:
        self._c = float(state["c"])
        self._draws = int(state["draws"])
        self._pulls = {w: int(v) for w, v in state["pulls"].items()}

    def describe(self) -> dict:
        return {
            "policy": self.name,
            "c": self._c,
            "draws": self._draws,
            "workers": len(self._pulls),
        }

