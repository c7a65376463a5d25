"""Streaming task assignment: tasks and workers arriving over time.

Run with ``python examples/streaming_assignment.py``.

The paper's conclusion points out that richer settings need assignment "to
be streamed".  This example drives the platform's
:class:`repro.crowd.AssignmentService` with a Poisson task stream and a
fluctuating worker population: posted tasks join the live pool through
``admit_tasks``, workers come and go through ``register_worker`` /
``unregister_worker``, and every completion goes through
``observe_completion`` + ``maybe_reassign``, which fires an HTA iteration
for every worker then due (``W^i``).
"""

import numpy as np

from repro.core import TaskPool
from repro.crowd import AssignmentService, ServiceConfig
from repro.data import AMTConfig, generate_amt_pool, generate_offline_workers


def main() -> None:
    corpus = generate_amt_pool(AMTConfig(n_groups=30, tasks_per_group=10), rng=0)
    tasks = list(corpus)
    # The platform opens with 60 tasks; the rest are posted while it runs.
    service = AssignmentService(
        TaskPool(tasks[:60], corpus.vocabulary),
        "hta-gre",
        ServiceConfig(
            x_max=3, n_random_pad=1, reassign_after=4, min_pending=1,
            candidate_cap=100,
        ),
        rng=7,
    )
    task_stream = iter(tasks[60:])
    workers = list(generate_offline_workers(6, corpus.vocabulary, rng=1))

    rng = np.random.default_rng(42)
    clock = 0.0
    posted = completions = triggered = 0
    # Three workers online at start; the rest drift in, and some leave.
    offline = workers[3:]
    for worker in workers[:3]:
        service.register_worker(worker, wall_time=clock)

    print("time    event")
    for _ in range(120):
        clock += float(rng.exponential(4.0))
        batch = [t for _, t in zip(range(rng.poisson(1.5)), task_stream)]
        if batch:
            service.admit_tasks(batch)
            posted += len(batch)
        if offline and rng.random() < 0.05:
            worker = offline.pop()
            service.register_worker(worker, wall_time=clock)
            print(f"{clock:7.1f} worker {worker.worker_id} came online")
        online = service.active_workers()
        if len(online) > 1 and rng.random() < 0.02:
            leaving = online[int(rng.integers(len(online)))]
            service.unregister_worker(leaving)
            print(f"{clock:7.1f} worker {leaving} went offline")
            continue
        # One online worker completes one of their pending tasks.
        worker_id = online[int(rng.integers(len(online)))]
        pending = service.pending_ids(worker_id)
        if not pending:
            continue
        service.observe_completion(worker_id, pending[int(rng.integers(len(pending)))])
        completions += 1
        event = service.maybe_reassign(worker_id, wall_time=clock, session_time=clock)
        if event is not None:
            triggered += 1
            weights = service.weights_of(worker_id)
            print(
                f"{clock:7.1f} iteration {event.iteration} for {worker_id}: "
                f"{len(event.task_ids)} assigned + {len(event.random_pad_ids)} "
                f"pad (alpha={weights.alpha:.2f}, {service.remaining_tasks()} "
                f"tasks left)"
            )

    print("\nStream statistics:")
    print(f"  tasks posted      : {posted}")
    print(f"  completions       : {completions}")
    print(f"  triggered solves  : {triggered}")
    print(f"  workers online    : {len(service.active_workers())}")
    print(f"  tasks still pooled: {service.remaining_tasks()}")


if __name__ == "__main__":
    main()
