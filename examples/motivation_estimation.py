"""Motivation estimation: recovering latent alpha/beta from behaviour.

Run with ``python examples/motivation_estimation.py``.

Demonstrates Section III's adaptive machinery in isolation: workers with
known latent preferences complete tasks in latent-utility order; the
MotivationEstimator observes only the normalized marginal gains and should
converge toward each worker's true (alpha, beta).
"""

import numpy as np

from repro.analysis import format_table
from repro.core import MotivationEstimator
from repro.core.adaptive import run_adaptive_loop
from repro.core.solvers import RandomSolver
from repro.data import AMTConfig, generate_amt_pool, generate_offline_workers

LATENT_ALPHAS = [0.95, 0.7, 0.5, 0.3, 0.05]


def make_policy(latent_alpha: float):
    """Completion policy: pick the next task maximizing the latent utility
    alpha x (marginal diversity) + (1 - alpha) x relevance."""

    def policy(worker, assigned, instance, rng):
        q = instance.workers.position(worker.worker_id)
        order, remaining = [], list(assigned)
        while remaining:
            scores = []
            for t in remaining:
                diversity_gain = (
                    instance.diversity[t, order].sum() if order else 0.0
                )
                scores.append(
                    latent_alpha * diversity_gain
                    + (1 - latent_alpha) * instance.relevance[q, t]
                )
            pick = remaining[int(np.argmax(scores))]
            order.append(pick)
            remaining.remove(pick)
        return order

    return policy


def main() -> None:
    pool = generate_amt_pool(AMTConfig(n_groups=50, tasks_per_group=4), rng=0)
    rows = []
    for latent_alpha in LATENT_ALPHAS:
        workers = generate_offline_workers(1, pool.vocabulary, rng=1)
        estimator = MotivationEstimator()
        run_adaptive_loop(
            pool,
            workers,
            x_max=6,
            solver=RandomSolver(),
            n_iterations=6,
            completion_policy=make_policy(latent_alpha),
            estimator=estimator,
            rng=2,
        )
        estimated = estimator.weights_for("w0")
        rows.append(
            [latent_alpha, round(estimated.alpha, 3),
             estimator.observation_count("w0")]
        )

    print(format_table(
        ["latent alpha", "paper estimate", "obs"],
        rows,
        title="Latent vs estimated diversity preference",
    ))
    estimated = [row[1] for row in rows]
    monotone = all(a >= b for a, b in zip(estimated, estimated[1:]))
    print(f"\nEstimates ordered like the latent preferences: {monotone}")
    print(
        "\nReading: diversity-seekers (high latent alpha) show large"
        "\nnormalized marginal-diversity gains and small relevance gains,"
        "\nso their estimated alpha lands high — the signal HTA-GRE uses"
        "\nto re-assign tasks adaptively."
    )


if __name__ == "__main__":
    main()
