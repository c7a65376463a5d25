"""Instance diagnostics — lint HTA instances before solving.

Solvers accept any well-formed instance, but several silent degeneracies
produce confusing results (near-zero objectives, all-tied profits,
meaningless relevance).  :func:`diagnose` inspects an instance and returns
structured findings a platform can log or a notebook user can read, each
tagged with a severity:

* ``error`` — the instance is solvable but the result will be degenerate;
* ``warning`` — a likely modelling mistake;
* ``info`` — characteristics that change algorithm behaviour (e.g. the
  clustered-pool regime where greedy-marginal beats the pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core.instance import HTAInstance

SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    """One diagnostic finding."""

    severity: str
    code: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")


def diagnose(instance: HTAInstance) -> list[Finding]:
    """Inspect ``instance`` and return findings, most severe first."""
    findings: list[Finding] = []
    findings.extend(_check_capacity(instance))
    findings.extend(_check_task_vectors(instance))
    findings.extend(_check_worker_vectors(instance))
    findings.extend(_check_weights(instance))
    findings.extend(_check_distance_structure(instance))
    order = {severity: i for i, severity in enumerate(SEVERITIES)}
    findings.sort(key=lambda f: order[f.severity])
    return findings


def has_blockers(findings: list[Finding]) -> bool:
    """True if any finding is an error."""
    return any(f.severity == "error" for f in findings)


def _check_capacity(instance: HTAInstance) -> list[Finding]:
    findings = []
    if instance.x_max == 1:
        findings.append(
            Finding(
                "error",
                "xmax-one",
                "x_max = 1 makes every motivation zero under Eq. 3 "
                "(no pairs, and the relevance multiplier |T'|-1 vanishes); "
                "use x_max >= 2",
            )
        )
    if instance.capacity > 2 * instance.n_tasks:
        findings.append(
            Finding(
                "warning",
                "overcapacity",
                f"capacity {instance.capacity} is more than twice the task "
                f"count {instance.n_tasks}; most slots will stay empty",
            )
        )
    return findings


def _check_task_vectors(instance: HTAInstance) -> list[Finding]:
    findings = []
    counts = instance.tasks.matrix.sum(axis=1)
    n_empty = int((counts == 0).sum())
    if n_empty:
        findings.append(
            Finding(
                "warning",
                "empty-tasks",
                f"{n_empty} task(s) have no keywords: they are maximally "
                "distant from everything and irrelevant to every worker",
            )
        )
    _, unique_counts = np.unique(
        instance.tasks.matrix, axis=0, return_counts=True
    )
    duplicate_share = 1.0 - len(unique_counts) / instance.n_tasks
    if duplicate_share > 0.5:
        findings.append(
            Finding(
                "info",
                "clustered-pool",
                f"{duplicate_share:.0%} of task vectors are duplicates "
                "(clustered pool): the HTA-APP/HTA-GRE pipeline is weak in "
                "this regime; consider the greedy-marginal or hta-local "
                "solver (see EXPERIMENTS.md)",
            )
        )
    return findings


def _check_worker_vectors(instance: HTAInstance) -> list[Finding]:
    findings = []
    counts = instance.workers.matrix.sum(axis=1)
    n_empty = int((counts == 0).sum())
    if n_empty:
        findings.append(
            Finding(
                "warning",
                "empty-workers",
                f"{n_empty} worker(s) declared no keywords: every task has "
                "zero relevance to them",
            )
        )
    max_relevance = instance.relevance.max(axis=1)
    flat = int((max_relevance < 0.05).sum())
    if flat:
        findings.append(
            Finding(
                "warning",
                "irrelevant-workers",
                f"{flat} worker(s) have no task with relevance above 0.05; "
                "their beta weight cannot influence the assignment",
            )
        )
    return findings


def _check_weights(instance: HTAInstance) -> list[Finding]:
    findings = []
    alphas = instance.alphas()
    if np.allclose(alphas, 1.0):
        findings.append(
            Finding(
                "info",
                "diversity-only",
                "every worker has alpha = 1: this is the HTA-GRE-DIV "
                "special case (relevance is ignored entirely)",
            )
        )
    elif np.allclose(alphas, 0.0):
        findings.append(
            Finding(
                "info",
                "relevance-only",
                "every worker has alpha = 0: this is the HTA-GRE-REL "
                "special case (an LSAP; the Hungarian solver is exact here)",
            )
        )
    return findings


def mean_pairwise_diversity(instance: HTAInstance) -> float | None:
    """Mean ``d(t_k, t_l)`` over the task pairs ``k < l`` (``None`` below
    two tasks), read from the profile pair: profiles ``a != b`` stand for
    ``|a| * |b|`` task pairs, and twins sit at distance 0."""
    n = instance.n_tasks
    if n < 2:
        return None
    matrix, profile = instance.profile_pair
    counts = np.bincount(profile, minlength=len(matrix)).astype(np.float64)
    return float(counts @ matrix @ counts) / (n * (n - 1))


def _check_distance_structure(instance: HTAInstance) -> list[Finding]:
    findings = []
    mean_distance = mean_pairwise_diversity(instance)
    if mean_distance is None:
        return findings
    if mean_distance > 0.85:
        findings.append(
            Finding(
                "info",
                "high-average-diversity",
                f"mean pairwise diversity is {mean_distance:.2f}: random "
                "assignment is already near-maximal on the diversity term, "
                "so optimization gains come mostly from relevance",
            )
        )
    if mean_distance < 0.05:
        findings.append(
            Finding(
                "warning",
                "near-identical-pool",
                f"mean pairwise diversity is {mean_distance:.2f}: the "
                "diversity term is vacuous on this pool",
            )
        )
    return findings
