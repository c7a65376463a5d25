"""HTA-GRE (Algorithm 2): the fast 1/8-approximation.

Identical to HTA-APP except the auxiliary LSAP is solved with GreedyMatching
on the complete bipartite profit graph (a 1/2-approximation for LSAP,
Lemma 4).  Overall ``O(|T|^2 log |T|)`` (Lemma 5) with an expected 1/8
approximation factor (Theorem 4) — the paper's recommended algorithm.

An ``lsap_method`` override is exposed so the ablation bench can swap in the
auction solver while keeping everything else fixed.
"""

from __future__ import annotations

import numpy as np

from ..assignment import Assignment
from ..instance import HTAInstance
from .base import Solver, SolveResult, register_solver
from .pipeline import check_lsap_shape, run_qap_pipeline


@register_solver
class HTAGreSolver(Solver):
    """Algorithm 2 of the paper.

    Args:
        lsap_method: LSAP subroutine (``"greedy"`` default; any method from
            :func:`repro.matching.lsap.lsap_methods` is accepted).
        matching_method: Matching used on ``B``.
        lsap_shape: ``"clique"`` (default; the greedy LSAP sorts
            ``|W| * |T|`` entries, each worker taking up to ``x_max``) or
            the paper's ``"square"`` one (``|T|^2`` entries); see
            :func:`run_qap_pipeline`.
    """

    name = "hta-gre"

    def __init__(
        self,
        lsap_method: str = "greedy",
        matching_method: str = "greedy",
        lsap_shape: str = "clique",
    ):
        self._lsap_method = lsap_method
        self._matching_method = matching_method
        self._lsap_shape = check_lsap_shape(lsap_shape)

    def solve(
        self,
        instance: HTAInstance,
        rng: "int | np.random.Generator | None" = None,
    ) -> SolveResult:
        output = run_qap_pipeline(
            instance,
            lsap_method=self._lsap_method,
            rng=rng,
            matching_method=self._matching_method,
            lsap_shape=self._lsap_shape,
        )
        assignment = Assignment.from_indices(instance, output.groups)
        assignment.validate(instance)
        return SolveResult(
            assignment=assignment,
            objective=assignment.objective(instance),
            timings=output.timings,
            info={**output.info, "solver": self.name},
        )
