"""HTA-APP (Algorithm 1): the 1/4-approximation.

Adapts Arkin et al.'s MAXQAP algorithm to HTA: greedy matching on the
diversity graph, an auxiliary LSAP solved *optimally* with the Hungarian
algorithm, and a randomized per-matched-edge swap.  Approximation factor 1/4
in expectation (Theorem 3).

The paper solves the square ``|T| x |T|`` LSAP in ``O(|T|^3)``, the dominant
cost (Lemma 3); ``lsap_shape="square"`` keeps that.  The default solves the
same optimum over the ``|W| * x_max`` clique columns only, as a
transportation problem from workers (``x_max`` tasks each) to classes of
twin tasks (one keyword profile, one matched weight), in
``O((|W| x_max)^2 n_classes)``, so the ``O(|T|^2 log |T|)`` diversity
matching bounds the solve instead (docs/THEORY.md, "The quotient LSAP").
That matching, its edge weights and the objectives read the diversity
matrix as the keyword-profile matrix through the task -> profile index; no
``|T| x |T|`` matrix is built on the default (``clique``) solve.
"""

from __future__ import annotations

import numpy as np

from ..assignment import Assignment
from ..instance import HTAInstance
from .base import Solver, SolveResult, register_solver
from .pipeline import check_lsap_shape, run_qap_pipeline


@register_solver
class HTAAppSolver(Solver):
    """Algorithm 1 of the paper.

    Args:
        matching_method: Matching used on ``B`` (``"greedy"`` default).
        lsap_shape: ``"clique"`` (default) or the paper's ``"square"``
            auxiliary LSAP; see :func:`run_qap_pipeline`.
    """

    name = "hta-app"

    def __init__(
        self,
        matching_method: str = "greedy",
        lsap_shape: str = "clique",
    ):
        self._matching_method = matching_method
        self._lsap_shape = check_lsap_shape(lsap_shape)

    def solve(
        self,
        instance: HTAInstance,
        rng: "int | np.random.Generator | None" = None,
    ) -> SolveResult:
        output = run_qap_pipeline(
            instance,
            lsap_method="hungarian",
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
