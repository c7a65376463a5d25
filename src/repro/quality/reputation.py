"""Per-worker accuracy posteriors — the reputation half of `repro.quality`.

Each worker carries a Beta posterior over their probability of answering a
graded question correctly, in the spirit of Tarable et al. (PAPERS.md):
even a coarse per-worker reliability prior, fed into assignment and
adjudication, buys large end-to-end accuracy gains.  Evidence comes from
two channels:

* **gold outcomes** — the worker answered a disguised gold question, and the
  platform knows whether they were right (weight ``gold_weight`` each);
* **pairwise agreement** — when an adjudicated task resolves, every pair of
  its answerers either agreed or disagreed; agreement is weak evidence of
  correctness (weight ``agreement_weight``, deliberately much smaller than
  gold — colluders manufacture agreement, gold they cannot fake).

Updates are **tick-batched**: evidence observed within a tick accumulates
into commutative pending sums and is folded into the posterior when
:meth:`ReputationTracker.flush_tick` runs (the serving daemon ticks once
per committed solve batch).  Two properties follow by construction, and the
property suite pins them:

* the posterior is invariant to permuting the completion events *within* a
  tick (addition commutes; decay happens only at the tick boundary);
* the posterior mean is monotone in gold-answer correctness (every correct
  observation adds only to the success side, with positive weight).

Decay multiplies accumulated evidence (not the prior) by ``decay`` per
tick, giving an effective evidence horizon of ``1 / (1 - decay)`` ticks —
a drifting worker's stale streak of correct golds stops shielding them
after roughly that window.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ReputationConfig:
    """Knobs of the reputation posterior.

    Attributes:
        prior_a: Beta prior pseudo-successes (uninformative default 1).
        prior_b: Beta prior pseudo-failures.
        decay: Fraction of accumulated evidence retained per tick; the
            effective memory is ``1 / (1 - decay)`` ticks.  1.0 disables
            decay (infinite horizon).
        gold_weight: Evidence mass of one gold-question outcome.
        agreement_weight: Evidence mass of one pairwise (dis)agreement.
        flag_threshold: Posterior mean below which a worker is flagged as a
            likely spammer — once enough evidence has accumulated.
        min_evidence: Evidence mass (beyond the prior) required before the
            flag can fire; protects cold-start workers from one bad answer.
    """

    prior_a: float = 1.0
    prior_b: float = 1.0
    decay: float = 0.98
    gold_weight: float = 1.0
    agreement_weight: float = 0.25
    flag_threshold: float = 0.4
    min_evidence: float = 3.0

    def __post_init__(self) -> None:
        if self.prior_a <= 0 or self.prior_b <= 0:
            raise ValueError("Beta priors must be positive")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if self.gold_weight < 0 or self.agreement_weight < 0:
            raise ValueError("evidence weights must be >= 0")
        if not 0.0 <= self.flag_threshold <= 1.0:
            raise ValueError(
                f"flag_threshold must be in [0, 1], got {self.flag_threshold}"
            )
        if self.min_evidence < 0:
            raise ValueError(
                f"min_evidence must be >= 0, got {self.min_evidence}"
            )


@dataclass
class _Posterior:
    """Accumulated evidence for one worker (excess over the prior)."""

    a: float = 0.0  # success mass, folded at tick boundaries
    b: float = 0.0  # failure mass
    pending_a: float = 0.0  # evidence observed since the last tick
    pending_b: float = 0.0
    golds: int = 0  # lifetime gold outcomes (reporting only)
    gold_correct: int = 0


class ReputationTracker:
    """The per-worker posterior table; all methods are O(1) per event.

    Reputation survives unregistration on purpose: a worker returning for a
    second session keeps the record they earned — which is exactly how a
    platform stops a flagged spammer from laundering their history through
    a re-register.
    """

    def __init__(self, config: ReputationConfig | None = None):
        self.config = config or ReputationConfig()
        self._posteriors: dict[str, _Posterior] = {}
        self._ticks = 0

    def __len__(self) -> int:
        return len(self._posteriors)

    def __contains__(self, worker_id: str) -> bool:
        return worker_id in self._posteriors

    def worker_ids(self) -> list[str]:
        return list(self._posteriors)

    @property
    def ticks(self) -> int:
        return self._ticks

    # -- evidence -----------------------------------------------------------

    def _entry(self, worker_id: str) -> _Posterior:
        entry = self._posteriors.get(worker_id)
        if entry is None:
            entry = _Posterior()
            self._posteriors[worker_id] = entry
        return entry

    def observe_gold(self, worker_id: str, correct: bool) -> None:
        """One gold-question outcome (pending until the next tick flush)."""
        entry = self._entry(worker_id)
        entry.golds += 1
        if correct:
            entry.gold_correct += 1
            entry.pending_a += self.config.gold_weight
        else:
            entry.pending_b += self.config.gold_weight

    def observe_agreement(self, worker_id: str, agreed: bool) -> None:
        """One pairwise (dis)agreement outcome from an adjudication."""
        entry = self._entry(worker_id)
        if agreed:
            entry.pending_a += self.config.agreement_weight
        else:
            entry.pending_b += self.config.agreement_weight

    def flush_tick(self) -> None:
        """Fold pending evidence into the posteriors, applying one decay.

        Decay touches only the *folded* evidence: observations within the
        closing tick enter at full weight, so two events in the same tick
        carry equal mass regardless of arrival order.
        """
        decay = self.config.decay
        self._ticks += 1
        for entry in self._posteriors.values():
            entry.a = entry.a * decay + entry.pending_a
            entry.b = entry.b * decay + entry.pending_b
            entry.pending_a = 0.0
            entry.pending_b = 0.0

    # -- queries --------------------------------------------------------------

    def mean(self, worker_id: str) -> float:
        """Posterior mean accuracy (pending evidence included); prior mean
        for workers never observed."""
        config = self.config
        entry = self._posteriors.get(worker_id)
        if entry is None:
            return config.prior_a / (config.prior_a + config.prior_b)
        a = config.prior_a + entry.a + entry.pending_a
        b = config.prior_b + entry.b + entry.pending_b
        return a / (a + b)

    def evidence(self, worker_id: str) -> float:
        """Accumulated evidence mass beyond the prior (pending included)."""
        entry = self._posteriors.get(worker_id)
        if entry is None:
            return 0.0
        return entry.a + entry.b + entry.pending_a + entry.pending_b

    def is_flagged(self, worker_id: str) -> bool:
        """Likely-spammer verdict: low mean after enough evidence."""
        return (
            self.evidence(worker_id) >= self.config.min_evidence
            and self.mean(worker_id) < self.config.flag_threshold
        )

    def flagged_workers(self) -> list[str]:
        return [w for w in self._posteriors if self.is_flagged(w)]

    def vote_weight(self, worker_id: str) -> float:
        """This worker's weight in a reputation-weighted adjudication vote.

        The posterior mean itself: a flagged spammer near 0.2 is outvoted
        ~4.5x by an established honest worker near 0.9, while two cold-start
        workers (prior mean) still break symmetric ties by count.
        """
        return self.mean(worker_id)

    def summary(self, worker_id: str) -> dict:
        entry = self._posteriors.get(worker_id)
        return {
            "mean": round(self.mean(worker_id), 6),
            "evidence": round(self.evidence(worker_id), 6),
            "flagged": self.is_flagged(worker_id),
            "golds": 0 if entry is None else entry.golds,
            "gold_correct": 0 if entry is None else entry.gold_correct,
        }

    # -- snapshot / restore ----------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable full state (bit-exact restore via floats'
        ``repr`` round-tripping under ``json``)."""
        return {
            "ticks": self._ticks,
            "posteriors": {
                worker_id: {
                    "a": entry.a,
                    "b": entry.b,
                    "pending_a": entry.pending_a,
                    "pending_b": entry.pending_b,
                    "golds": entry.golds,
                    "gold_correct": entry.gold_correct,
                }
                for worker_id, entry in self._posteriors.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        self._ticks = int(state["ticks"])
        self._posteriors = {
            worker_id: _Posterior(
                a=float(spec["a"]),
                b=float(spec["b"]),
                pending_a=float(spec["pending_a"]),
                pending_b=float(spec["pending_b"]),
                golds=int(spec["golds"]),
                gold_correct=int(spec["gold_correct"]),
            )
            for worker_id, spec in state["posteriors"].items()
        }
