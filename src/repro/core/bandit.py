"""Bandit policies over the motivation-estimation seam (PAPERS.md: Zhang
et al. frame adaptive task assignment as exploration/exploitation).

Two bandit surfaces live here:

* **Weight policies** decide the solve-time ``(alpha, beta)`` for each
  worker from an estimator's posterior instead of committing to its mean.
  :class:`ThompsonWeightPolicy` draws alpha from the Beta posterior
  (wiring the previously unreachable
  :meth:`~repro.core.estimators.BayesianMotivationEstimator.sample_weights`
  into the serving path); :class:`UCBWeightPolicy` adds an optimism bonus
  toward the under-observed diversity side that shrinks as evidence
  accumulates.  ``None`` / "off" keeps the paper's mean behaviour
  bit-identically (the policy is simply never consulted).

* :class:`TierBandit` is a contextual UCB1 over the solver degradation
  ladder: arms are ladder tiers, contexts are load regimes, rewards fold
  observed solve CPU time against the solve budget and adjudicated
  quality.  :class:`repro.serve.resilience.DegradationController` remains
  the fixed-policy special case (and the default).

Weight policies are duck-typed like estimators: anything with
``weights_for(estimator, worker_id)`` plugs into
:class:`~repro.crowd.service.AssignmentService` and
:func:`~repro.core.adaptive.run_adaptive_loop`.  Policies that hold
state (RNG, pull counts) expose the same ``state_dict`` /
``load_state_dict`` / ``export_worker`` / ``import_worker`` contract as
estimators so snapshots and shard handoff stay bit-identical.
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
#: Valid ``--tier-policy`` names (the controllers live in repro.serve).
TIER_POLICIES = ("streak", "bandit")

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

    def export_worker(self, worker_id: str) -> dict:
        return {}

    def import_worker(self, worker_id: str, state: dict) -> None:
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

    # -- snapshot / handoff ---------------------------------------------------

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

    def export_worker(self, worker_id: str) -> dict:
        pulls = self._pulls.get(worker_id)
        return {} if pulls is None else {"pulls": pulls}

    def import_worker(self, worker_id: str, state: dict) -> None:
        self._pulls.pop(worker_id, None)
        if "pulls" in state:
            pulls = int(state["pulls"])
            if pulls < 0:
                raise InvalidInstanceError(
                    f"bandit import for {worker_id!r}: negative pulls {pulls}"
                )
            self._pulls[worker_id] = pulls

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

    # -- snapshot / handoff ---------------------------------------------------

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

    def export_worker(self, worker_id: str) -> dict:
        pulls = self._pulls.get(worker_id)
        return {} if pulls is None else {"pulls": pulls}

    def import_worker(self, worker_id: str, state: dict) -> None:
        self._pulls.pop(worker_id, None)
        if "pulls" in state:
            pulls = int(state["pulls"])
            if pulls < 0:
                raise InvalidInstanceError(
                    f"bandit import for {worker_id!r}: negative pulls {pulls}"
                )
            self._pulls[worker_id] = pulls

    def describe(self) -> dict:
        return {
            "policy": self.name,
            "c": self._c,
            "draws": self._draws,
            "workers": len(self._pulls),
        }


class TierBandit:
    """Contextual UCB1 over solver ladder tiers.

    Arms are ladder positions; contexts are discrete load regimes (the
    caller buckets them — e.g. "under budget" vs "pressured").  Rewards
    must land in [0, 1] (the caller folds solve CPU time and adjudicated
    quality; see :class:`repro.serve.resilience.BanditTierController`).
    Deterministic: unplayed arms are tried lowest-index first, ties break
    to the lowest index, and there is no randomization.
    """

    def __init__(self, n_arms: int, n_contexts: int = 2, c: float = 0.3):
        if n_arms < 1:
            raise InvalidInstanceError(f"need at least one arm, got {n_arms}")
        if n_contexts < 1:
            raise InvalidInstanceError(
                f"need at least one context, got {n_contexts}"
            )
        if c < 0.0:
            raise InvalidInstanceError(f"exploration constant must be >= 0, got {c}")
        self.n_arms = n_arms
        self.n_contexts = n_contexts
        self._c = c
        self._counts = [[0] * n_arms for _ in range(n_contexts)]
        self._sums = [[0.0] * n_arms for _ in range(n_contexts)]

    def select(self, context: int) -> int:
        """The arm to play next in ``context`` (pure function of state)."""
        counts = self._counts[context]
        sums = self._sums[context]
        for arm in range(self.n_arms):
            if counts[arm] == 0:
                return arm
        total = sum(counts)
        best_arm, best_score = 0, -math.inf
        for arm in range(self.n_arms):
            mean = sums[arm] / counts[arm]
            score = mean + self._c * math.sqrt(math.log(total) / counts[arm])
            if score > best_score + 1e-12:
                best_arm, best_score = arm, score
        return best_arm

    def update(self, context: int, arm: int, reward: float) -> None:
        """Fold one observed reward (clipped to [0, 1]) into ``arm``."""
        reward = min(1.0, max(0.0, float(reward)))
        self._counts[context][arm] += 1
        self._sums[context][arm] += reward

    def counts(self, context: int) -> list[int]:
        return list(self._counts[context])

    def means(self, context: int) -> list[float]:
        return [
            s / n if n else 0.0
            for s, n in zip(self._sums[context], self._counts[context])
        ]

    def state_dict(self) -> dict:
        return {
            "c": self._c,
            "counts": [list(row) for row in self._counts],
            "sums": [list(row) for row in self._sums],
        }

    def load_state_dict(self, state: dict) -> None:
        counts = state["counts"]
        sums = state["sums"]
        if len(counts) != self.n_contexts or any(
            len(row) != self.n_arms for row in counts
        ):
            raise InvalidInstanceError(
                "tier bandit state shape mismatch: expected "
                f"{self.n_contexts}x{self.n_arms}"
            )
        self._c = float(state["c"])
        self._counts = [[int(v) for v in row] for row in counts]
        self._sums = [[float(v) for v in row] for row in sums]
