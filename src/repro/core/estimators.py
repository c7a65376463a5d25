"""Alternative motivation estimators (extensions of Section III).

The paper's estimator is a plain average of normalized gains
(:class:`repro.core.adaptive.MotivationEstimator`).  This module adds a
**Bayesian** variant: each completed task casts a fractional "diversity
vote" ``v = g_div / (g_div + g_rel)`` and the worker's latent alpha carries
a Beta posterior over those votes.  Benefits over the plain average:

* a principled cold start (the prior *is* the estimate at zero data);
* credible intervals — the platform can tell "confidently balanced" apart
  from "no idea yet";
* Thompson sampling (:meth:`BayesianMotivationEstimator.sample_weights`)
  for exploration: early iterations draw alpha from the posterior instead
  of committing to its mean, which keeps assignment diverse while evidence
  accumulates.

Estimators are duck-typed: anything with ``record(worker_id, observation)``
and ``weights_for(worker_id)`` plugs into
:func:`repro.core.adaptive.run_adaptive_loop` and
:class:`repro.crowd.service.AssignmentService`.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidInstanceError
from .adaptive import GainObservation
from .worker import MotivationWeights

_EPS = 1e-12


class BayesianMotivationEstimator:
    """Beta-posterior estimator of each worker's diversity preference.

    Args:
        prior_alpha: Beta prior pseudo-count for the diversity side.
        prior_beta: Beta prior pseudo-count for the relevance side.
            The default ``(1, 1)`` (uniform prior) gives a posterior-mean
            cold start of 0.5, matching the paper's balanced cold start.
        decay: Multiplicative decay applied to the accumulated vote mass
            each time a new vote lands (1.0 = the pure conjugate update;
            < 1 forgets stale evidence so the posterior can track drifting
            preferences — the regime where Thompson/UCB pay off).
    """

    def __init__(
        self,
        prior_alpha: float = 1.0,
        prior_beta: float = 1.0,
        decay: float = 1.0,
    ):
        if prior_alpha <= 0 or prior_beta <= 0:
            raise InvalidInstanceError(
                f"prior pseudo-counts must be positive, got "
                f"({prior_alpha}, {prior_beta})"
            )
        if not 0.0 < decay <= 1.0:
            raise InvalidInstanceError(f"decay must be in (0, 1], got {decay}")
        self._prior = (prior_alpha, prior_beta)
        self._decay = decay
        self._counts: dict[str, list[float]] = {}
        # Raw (undecayed) number of votes folded per worker.
        self._raw: dict[str, int] = {}

    # -- interface shared with MotivationEstimator ---------------------------

    def record(self, worker_id: str, observation: GainObservation) -> None:
        """Fold one observation in as a fractional diversity vote.

        Only *complete* observations (both factors measurable) vote: a
        ``None`` factor means the platform could not observe it — e.g. no
        pending task had any relevance to normalize against — and treating
        that as a zero or full vote would flood the posterior with
        artefacts of the display composition rather than worker behaviour.
        """
        div, rel = observation.diversity, observation.relevance
        if div is None or rel is None:
            return
        total = div + rel
        if total <= _EPS:
            return
        vote = div / total
        counts = self._counts.setdefault(worker_id, [0.0, 0.0])
        counts[0] = counts[0] * self._decay + vote
        counts[1] = counts[1] * self._decay + (1.0 - vote)
        self._raw[worker_id] = self._raw.get(worker_id, 0) + 1

    def weights_for(self, worker_id: str) -> MotivationWeights:
        """Posterior-mean (alpha, beta)."""
        a, b = self._posterior(worker_id)
        mean = a / (a + b)
        return MotivationWeights(mean, 1.0 - mean)

    def reset(self, worker_id: str | None = None) -> None:
        if worker_id is None:
            self._counts.clear()
            self._raw.clear()
        else:
            self._counts.pop(worker_id, None)
            self._raw.pop(worker_id, None)

    def observation_count(self, worker_id: str) -> int:
        """Number of raw votes recorded for ``worker_id`` (undecayed)."""
        return self._raw.get(worker_id, 0)

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of every worker's vote mass."""
        return {
            "prior": [self._prior[0], self._prior[1]],
            "decay": self._decay,
            "counts": {w: list(v) for w, v in self._counts.items()},
            "raw": dict(self._raw),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot, replacing current state."""
        prior = state["prior"]
        self._prior = (float(prior[0]), float(prior[1]))
        self._decay = float(state.get("decay", 1.0))
        self._counts = {
            w: [float(v[0]), float(v[1])] for w, v in state["counts"].items()
        }
        raw = state.get("raw")
        if raw is not None:
            self._raw = {w: int(v) for w, v in raw.items()}
        else:
            self._raw = {
                w: int(round(v[0] + v[1])) for w, v in self._counts.items()
            }

    # -- Bayesian extras --------------------------------------------------------

    def credible_interval(
        self, worker_id: str, mass: float = 0.9
    ) -> tuple[float, float]:
        """Central credible interval for the worker's latent alpha.

        Uses the normal approximation to the Beta posterior, clipped to
        [0, 1] — accurate enough for the platform's "is this worker's
        preference pinned down yet?" decisions.
        """
        if not 0.0 < mass < 1.0:
            raise InvalidInstanceError(f"mass must be in (0, 1), got {mass}")
        a, b = self._posterior(worker_id)
        mean = a / (a + b)
        variance = a * b / ((a + b) ** 2 * (a + b + 1.0))
        # Two-sided normal quantile via the error function.
        z = math.sqrt(2.0) * _erfinv(mass)
        half_width = z * math.sqrt(variance)
        return (
            max(0.0, mean - half_width),
            min(1.0, mean + half_width),
        )

    def sample_weights(
        self, worker_id: str, rng: np.random.Generator
    ) -> MotivationWeights:
        """Thompson sample: draw alpha from the posterior."""
        a, b = self._posterior(worker_id)
        alpha = float(rng.beta(a, b))
        return MotivationWeights(alpha, 1.0 - alpha)

    def _posterior(self, worker_id: str) -> tuple[float, float]:
        counts = self._counts.get(worker_id, [0.0, 0.0])
        return self._prior[0] + counts[0], self._prior[1] + counts[1]


def _erfinv(x: float) -> float:
    """Inverse error function (Winitzki's approximation, ~1e-3 accurate)."""
    if not -1.0 < x < 1.0:
        raise ValueError(f"erfinv domain is (-1, 1), got {x}")
    a = 0.147
    ln_term = math.log(1.0 - x * x)
    first = 2.0 / (math.pi * a) + ln_term / 2.0
    inner = first * first - ln_term / a
    return math.copysign(math.sqrt(math.sqrt(inner) - first), x)
