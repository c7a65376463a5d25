"""The assignment service (Fig. 4): the platform-side brain.

Responsibilities, exactly as in the paper's workflow diagram:

* a new worker arrives -> build her keyword vector, assign a first display
  (random ``x_max`` tasks for the adaptive strategy's cold start; a proper
  solve for the fixed-weight baselines, whose weights need no observations);
* a worker completes a task -> record the marginal diversity/relevance gains
  into the :class:`~repro.core.adaptive.MotivationEstimator`, and decide
  whether a new assignment iteration must fire (enough completions since the
  last one, or the worker is running out of pending tasks);
* an iteration fires -> collect every active worker currently due for
  reassignment (``W^i``), solve HTA on the remaining pool with the current
  alpha/beta estimates, display ``x_max`` assigned tasks plus
  ``n_random_pad`` random ones ("to avoid falling into a silo"), and drop
  all displayed tasks from the pool ("once assigned, a task is dropped from
  subsequent iterations").

Strategy names mirror the paper: ``"hta-gre"`` (adaptive), ``"hta-gre-div"``,
``"hta-gre-rel"``, plus ``"random"`` as a floor.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.adaptive import MotivationEstimator, observe_gains
from ..core.distance import pairwise_jaccard
from ..core.instance import HTAInstance
from ..core.solvers import get_solver
from ..core.task import Task, TaskPool
from ..core.worker import MotivationWeights, Worker, WorkerPool
from ..errors import SimulationError
from ..rng import ensure_rng
from .events import TasksAssigned

#: Strategies whose alpha/beta come from observation rather than being forced.
ADAPTIVE_STRATEGIES = frozenset({"hta-gre", "hta-app"})

#: Given the ordered task ids of a solve's candidate set, return their
#: :attr:`HTAInstance.profile_pair` — or ``None`` to fall back to recomputing.
ProfilePairProvider = Callable[[Sequence[str]], "tuple[np.ndarray, np.ndarray] | None"]


class TaskPoolState:
    """Mutable "remaining tasks" bookkeeping shared by service and cache.

    The paper drops every displayed task from subsequent iterations, so
    within one campaign the live pool shrinks — this class owns that set:
    random draws, solver shortlisting, and removal, notifying registered
    removal listeners whenever tasks leave (the hook the serving layer's
    incremental diversity cache uses to stay in sync without recomputing).
    The pool is nonetheless open-world: requesters post new tasks while
    workers are mid-campaign, so :meth:`add` grows the remaining set and
    notifies arrival listeners symmetrically.
    """

    def __init__(self, pool: TaskPool, rng: np.random.Generator):
        self._remaining: dict[str, Task] = {t.task_id: t for t in pool}
        self._rng = rng
        self._listeners: list[Callable[[Sequence[str]], None]] = []
        self._arrival_listeners: list[Callable[[Sequence[Task]], None]] = []

    def __len__(self) -> int:
        return len(self._remaining)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._remaining

    def task_ids(self) -> list[str]:
        """Ids of every remaining task, in insertion order."""
        return list(self._remaining)

    def reset(self, tasks: Sequence[Task]) -> None:
        """Replace the remaining set wholesale, *without* notifying listeners.

        This is the snapshot-restore path: listeners (e.g. the diversity
        cache) are synced separately by whoever drives the restore, because
        at restore time the "removed" tasks were never seen by them as live.
        """
        self._remaining = {t.task_id: t for t in tasks}

    def add_removal_listener(self, listener: Callable[[Sequence[str]], None]) -> None:
        """Call ``listener(task_ids)`` after each batch of tasks leaves."""
        self._listeners.append(listener)

    def add_arrival_listener(self, listener: Callable[[Sequence[Task]], None]) -> None:
        """Call ``listener(tasks)`` after each batch of tasks is admitted."""
        self._arrival_listeners.append(listener)

    def add(self, tasks: Sequence[Task]) -> None:
        """Admit ``tasks`` into the pool (arrival order = insertion order).

        Raises ``ValueError`` on a duplicate id — within the batch or
        against a task already in the pool — *before* any mutation, so a
        bad batch is rejected atomically.  An empty batch is a no-op.
        """
        if not tasks:
            return
        seen: set[str] = set()
        for task in tasks:
            if task.task_id in self._remaining or task.task_id in seen:
                raise ValueError(
                    f"cannot admit task {task.task_id!r}: id already in the pool"
                )
            seen.add(task.task_id)
        for task in tasks:
            self._remaining[task.task_id] = task
        for listener in self._arrival_listeners:
            listener(tasks)

    def remove(self, task_ids: Sequence[str]) -> None:
        """Drop ``task_ids`` from the pool (ids not present are ignored)."""
        dropped = [tid for tid in task_ids if self._remaining.pop(tid, None) is not None]
        if dropped:
            for listener in self._listeners:
                listener(dropped)

    def draw_random(self, count: int) -> list[Task]:
        """Draw up to ``count`` random tasks, removing them from the pool."""
        available = list(self._remaining.values())
        if not available or count <= 0:
            return []
        take = min(count, len(available))
        picks = self._rng.choice(len(available), size=take, replace=False)
        drawn = [available[int(i)] for i in picks]
        self.remove([task.task_id for task in drawn])
        return drawn

    def shortlist(self, cap: int | None) -> list[Task]:
        """The solver's candidate tasks, subsampled if the pool exceeds ``cap``."""
        available = list(self._remaining.values())
        if cap is not None and len(available) > cap:
            picks = self._rng.choice(len(available), size=cap, replace=False)
            available = [available[int(i)] for i in picks]
        return available


@dataclass
class PreparedSolve:
    """A ready-to-run HTA solve, split off the commit that installs it.

    Produced by :meth:`AssignmentService.prepare_solve`.  ``instance``,
    ``worker_ids``, ``solver_name`` and ``seed`` are everything a solver
    needs (:func:`execute_prepared` runs them); ``candidates`` and
    ``task_pool`` are what :meth:`AssignmentService.commit_solve` needs to
    install the result.  The split lets the daemon and ``repro replay``
    journal the prepare and the commit as separate events.
    """

    worker_ids: list[str]
    candidates: list[Task]
    task_pool: TaskPool
    instance: HTAInstance
    solver_name: str
    seed: int


def execute_prepared(prepared: PreparedSolve) -> dict[str, tuple[str, ...]]:
    """Run a prepared solve with its own derived RNG stream.

    The solver named at prepare time, fed a generator seeded with the seed
    drawn at prepare time.  Serving and replay both call this, which is
    what makes a live run and its journal replay bit-identical for the
    same sequence of prepared solves.
    """
    solver = get_solver(prepared.solver_name)
    rng = np.random.default_rng(prepared.seed)
    result = solver.solve(prepared.instance, rng)
    return {
        w: tuple(result.assignment.tasks_of(w)) for w in prepared.worker_ids
    }


@dataclass(frozen=True)
class ServiceConfig:
    """Assignment-service knobs (paper values as defaults, Section V-C).

    Attributes:
        x_max: Tasks per worker per iteration (paper: 15).
        n_random_pad: Extra random tasks displayed to avoid silos (paper: 5).
        reassign_after: Completions since last assignment that trigger a new
            iteration for a worker (gives the estimator "sufficient input").
        min_pending: A worker falling below this many pending tasks also
            triggers reassignment (keeps the display stocked).
        candidate_cap: Max tasks offered to the solver per iteration; large
            remaining pools are shortlisted uniformly at random, which keeps
            the per-iteration solve within the online latency the paper
            requires ("executed in the background while workers complete
            tasks").  ``None`` disables shortlisting.
        reputation_weight: How much a worker's reputation posterior shrinks
            their relevance term in the solve: the effective relevance
            weight is ``beta * (1 - w + w * r)`` with ``r`` the posterior
            mean from the quality layer (see :mod:`repro.quality`).  A
            low-reputation worker's stated interests steer assignment less;
            the freed mass goes to diversity, which pushes probabilistic
            answerers toward broader coverage instead of letting them
            monopolise the tasks they claim to like.  0 (the default)
            bypasses the adjustment entirely — solves are bit-identical to
            a service without the quality layer.
    """

    x_max: int = 15
    n_random_pad: int = 5
    reassign_after: int = 8
    min_pending: int = 3
    candidate_cap: int | None = 400
    reputation_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.x_max < 1:
            raise ValueError(f"x_max must be >= 1, got {self.x_max}")
        if self.n_random_pad < 0:
            raise ValueError(f"n_random_pad must be >= 0, got {self.n_random_pad}")
        if not 0.0 <= self.reputation_weight <= 1.0:
            raise ValueError(
                f"reputation_weight must be in [0, 1], "
                f"got {self.reputation_weight}"
            )
        if self.reassign_after < 1:
            raise ValueError(f"reassign_after must be >= 1, got {self.reassign_after}")
        if self.min_pending < 0:
            raise ValueError(f"min_pending must be >= 0, got {self.min_pending}")


@dataclass
class _Display:
    """What one worker currently sees, with local matrices for fast gains."""

    task_ids: list[str]
    vectors: np.ndarray  # (k, R) boolean rows of the displayed tasks
    diversity: np.ndarray  # (k, k) local pairwise diversity
    relevance: np.ndarray  # (k,) relevance of each displayed task
    completed: list[int] = field(default_factory=list)  # local indices
    iteration: int = 0
    completed_since_assignment: int = 0

    def pending(self) -> list[int]:
        done = set(self.completed)
        return [i for i in range(len(self.task_ids)) if i not in done]


class AssignmentService:
    """Shared assignment brain over a task pool and a set of live workers."""

    def __init__(
        self,
        pool: TaskPool,
        strategy: str = "hta-gre",
        config: ServiceConfig | None = None,
        estimator: MotivationEstimator | None = None,
        rng: "int | np.random.Generator | None" = None,
    ):
        self._vocabulary = pool.vocabulary
        self._strategy = strategy
        get_solver(strategy)  # an unknown strategy fails here, not at a solve
        self._config = config or ServiceConfig()
        self._estimator = estimator or MotivationEstimator()
        self._rng = ensure_rng(rng)
        self._pool_state = TaskPoolState(pool, self._rng)
        # Every id the startup corpus ever contained: a displayed task
        # leaves the pool but its id must never be re-admittable.
        self._corpus_ids = frozenset(task.task_id for task in pool)
        self._diversity_provider: ProfilePairProvider | None = None
        self._reputation_provider: "Callable[[str], float] | None" = None
        self._workers: dict[str, Worker] = {}
        self._displays: dict[str, _Display] = {}
        self._iterations: dict[str, int] = {}
        # Append-only log of tasks admitted after construction, in arrival
        # order.  Snapshots carry it so restore can rebuild tasks that were
        # never part of the original corpus (they may still be referenced by
        # a display long after leaving the pool).
        self._admitted: dict[str, Task] = {}

    # -- queries -------------------------------------------------------------

    @property
    def strategy(self) -> str:
        return self._strategy

    @property
    def config(self) -> ServiceConfig:
        return self._config

    @property
    def is_adaptive(self) -> bool:
        return self._strategy in ADAPTIVE_STRATEGIES

    @property
    def estimator(self) -> MotivationEstimator:
        """The live estimator."""
        return self._estimator

    @property
    def pool_state(self) -> TaskPoolState:
        """The live "remaining tasks" state (read/subscribe; do not mutate)."""
        return self._pool_state

    def remaining_tasks(self) -> int:
        """Tasks not yet displayed to anyone."""
        return len(self._pool_state)

    def active_workers(self) -> list[str]:
        """Ids of every registered worker, in registration order."""
        return list(self._workers)

    def worker_of(self, worker_id: str) -> "Worker | None":
        """The registered :class:`Worker`, or ``None`` if not registered."""
        return self._workers.get(worker_id)

    def set_diversity_provider(self, provider: ProfilePairProvider | None) -> None:
        """Install a cache that serves per-solve diversity blocks.

        The provider receives the ordered candidate task ids of a solve and
        returns their profile pair, or ``None`` to decline (the instance
        then computes it from scratch as before).
        """
        self._diversity_provider = provider

    def set_reputation_provider(
        self, provider: "Callable[[str], float] | None"
    ) -> None:
        """Feed worker reputations (posterior mean accuracy in [0, 1]) into
        the solve when ``config.reputation_weight > 0``.

        The quality layer installs its tracker here; ``None`` (or weight 0)
        leaves every solve identical to a reputation-free service.
        """
        self._reputation_provider = provider

    def weights_of(self, worker_id: str) -> MotivationWeights:
        """Current (alpha, beta) the service would use for this worker."""
        if self._strategy == "hta-gre-div":
            return MotivationWeights.diversity_only()
        if self._strategy == "hta-gre-rel":
            return MotivationWeights.relevance_only()
        return self._estimator.weights_for(worker_id)

    def solve_weights_of(self, worker_id: str) -> MotivationWeights:
        """The weights actually fed to the solver: :meth:`weights_of`, with
        the relevance term shrunk by reputation when configured.

        ``beta' = beta * (1 - w + w * r)`` and ``alpha' = 1 - beta'`` keeps
        the alpha+beta==1 invariant while moving mass from relevance to
        diversity as the posterior mean ``r`` falls.  The early return at
        weight 0 is load-bearing: it guarantees bit-identical floats, not
        merely close ones, for the seed configuration.
        """
        weights = self.weights_of(worker_id)
        w = self._config.reputation_weight
        if w <= 0.0 or self._reputation_provider is None:
            return weights
        r = min(1.0, max(0.0, float(self._reputation_provider(worker_id))))
        beta = weights.beta * (1.0 - w + w * r)
        return MotivationWeights(1.0 - beta, beta)

    def display_of(self, worker_id: str) -> _Display:
        try:
            return self._displays[worker_id]
        except KeyError:
            raise SimulationError(f"worker {worker_id!r} has no display") from None

    def pending_ids(self, worker_id: str) -> list[str]:
        display = self.display_of(worker_id)
        return [display.task_ids[i] for i in display.pending()]

    # -- lifecycle -------------------------------------------------------------

    def register_worker(
        self,
        worker: Worker,
        wall_time: float = 0.0,
        solver_name: str | None = None,
    ) -> TasksAssigned:
        """A new worker enters a session; give them the first display.

        The adaptive strategies deal ``x_max`` random tasks (a cold start:
        no observations yet).  The fixed-weight ones solve a one-worker
        iteration through :meth:`reassign_workers` with ``solver_name``
        (default: the strategy's own solver), falling back to random tasks
        if the solve leaves them empty-handed.
        """
        worker_id = worker.worker_id
        if worker_id in self._workers:
            raise SimulationError(f"worker {worker_id!r} already registered")
        self._workers[worker_id] = worker
        self._iterations[worker_id] = 0
        if not self.is_adaptive:
            solved = self.reassign_workers(
                [worker_id], wall_time, {worker_id: 0.0}, solver_name
            )
            if worker_id in solved:
                return solved[worker_id]
        assigned = self._draw_random(self._config.x_max)
        return self._install_display(worker_id, assigned, wall_time, 0.0)

    def unregister_worker(self, worker_id: str) -> bool:
        """Session over; displayed-but-pending tasks stay dropped (paper).

        Returns whether the worker was registered — ``False`` makes retried
        DELETEs distinguishable from first deliveries (and keeps them out of
        replay journals).
        """
        present = self._workers.pop(worker_id, None) is not None
        self._displays.pop(worker_id, None)
        self._iterations.pop(worker_id, None)
        return present

    def admit_tasks(self, tasks: Sequence[Task]) -> list[str]:
        """Admit newly posted tasks into the live pool (``POST /tasks``).

        The batch is validated in full before any mutation — keyword-vector
        length, duplicate ids within the batch, and collisions with any id
        the service has ever known: the startup corpus (whether still
        pooled or currently displayed) and every previously admitted task —
        so a bad batch is rejected atomically with a
        :class:`SimulationError`.  Admitted tasks join
        the pool in batch order (arrival order = insertion order), arrival
        listeners (the diversity cache) are notified, and the batch is
        recorded in the service's admitted-task log so snapshots can
        rebuild tasks that never existed in the original corpus.

        Arrivals never join a prepared solve: its candidate set is fixed at
        prepare time, so a solve prepared before an admit commits against
        the pre-admit candidates (C1/C2 hold unchanged).

        Returns the admitted task ids, in order.  An empty batch is a
        no-op.
        """
        if not tasks:
            return []
        n_keywords = len(self._vocabulary)
        seen: set[str] = set()
        for task in tasks:
            if task.vector.shape[0] != n_keywords:
                raise SimulationError(
                    f"task {task.task_id!r} has a {task.vector.shape[0]}-keyword "
                    f"vector; this service's vocabulary has {n_keywords}"
                )
            # corpus ∪ admitted covers every id ever seen — including tasks
            # currently displayed.
            if (
                task.task_id in seen
                or task.task_id in self._corpus_ids
                or task.task_id in self._admitted
            ):
                raise SimulationError(
                    f"cannot admit task {task.task_id!r}: id already known"
                )
            seen.add(task.task_id)
        for task in tasks:
            self._admitted[task.task_id] = task
        self._pool_state.add(tasks)
        return [task.task_id for task in tasks]

    def admitted_tasks(self) -> list[Task]:
        """Every task admitted after construction, in arrival order."""
        return list(self._admitted.values())

    def observe_completion(self, worker_id: str, task_id: str) -> None:
        """Record a completion: estimator gains + display bookkeeping."""
        display = self.display_of(worker_id)
        try:
            local = display.task_ids.index(task_id)
        except ValueError:
            raise SimulationError(
                f"task {task_id!r} is not displayed to worker {worker_id!r}"
            ) from None
        if local in display.completed:
            raise SimulationError(f"task {task_id!r} was already completed")
        observation = observe_gains(
            display.diversity,
            display.relevance,
            assigned=list(range(len(display.task_ids))),
            completed_before=display.completed,
            new_index=local,
        )
        self._estimator.record(worker_id, observation)
        display.completed.append(local)
        display.completed_since_assignment += 1

    def needs_reassignment(self, worker_id: str) -> bool:
        display = self.display_of(worker_id)
        if self.remaining_tasks() == 0:
            return False
        return (
            display.completed_since_assignment >= self._config.reassign_after
            or len(display.pending()) < self._config.min_pending
        )

    def maybe_reassign(
        self, worker_id: str, wall_time: float, session_time: float
    ) -> TasksAssigned | None:
        """Fire a new iteration if this worker is due; returns the event.

        All currently-due workers are solved together (they form ``W^i``),
        but only the triggering worker's event is returned; others receive
        their new display silently and their own event is reported when the
        simulator processes them (the simulator attributes per-worker
        session times, which the service does not know).
        """
        if not self.needs_reassignment(worker_id):
            return None
        due = self.due_workers()
        if worker_id not in due:
            due.append(worker_id)
        events = self.reassign_workers(due, wall_time, {worker_id: session_time})
        return events.get(worker_id)

    def due_workers(self) -> list[str]:
        """Every registered worker currently due for reassignment (``W^i``)."""
        return [w for w in self._workers if self.needs_reassignment(w)]

    def reassign_workers(
        self,
        worker_ids: Sequence[str],
        wall_time: float,
        session_times: dict[str, float] | None = None,
        solver_name: str | None = None,
    ) -> dict[str, TasksAssigned]:
        """Run one assignment iteration for an explicit worker batch.

        The iteration the daemon runs, back to back: :meth:`prepare_solve`,
        :func:`execute_prepared`, :meth:`commit_solve`.  All live
        ``worker_ids`` are solved together in a single HTA call and the
        installed events are returned keyed by worker; see
        :meth:`commit_solve` for the fallback to random draws and for which
        workers are omitted.
        """
        prepared = self.prepare_solve(worker_ids, solver_name)
        if prepared is None:
            return {}
        assigned = execute_prepared(prepared)
        return self.commit_solve(prepared, assigned, wall_time, session_times)

    # -- prepare / commit solve seam -------------------------------------------

    def prepare_solve(
        self,
        worker_ids: Sequence[str],
        solver_name: str | None = None,
    ) -> PreparedSolve | None:
        """Shortlist candidates and build the instance for a prepared solve.

        The candidates stay in the pool: prepare, solve and commit run back
        to back with nothing in between, and :meth:`commit_solve` removes
        only what the solver assigned.  A failed solve therefore leaves the
        pool exactly as it was.

        Returns ``None`` when there is nothing to solve (no live workers in
        the batch, or an empty pool).  The solver's stream is a fresh seed
        drawn from the service RNG, so the solve is a pure function of the
        prepared candidates and replays from the journal alone.  This is
        the one way the service runs an iteration: the daemon journals each
        step, and :meth:`reassign_workers` (the simulator, and registration
        under a fixed-weight strategy) runs the three back to back.
        """
        live = [w for w in worker_ids if w in self._workers]
        if not live:
            return None
        candidates = self._pool_state.shortlist(self._config.candidate_cap)
        if not candidates:
            return None
        tasks = TaskPool(candidates, self._vocabulary)
        workers = WorkerPool(
            (
                self._workers[w].with_weights(self.solve_weights_of(w))
                for w in live
            ),
            self._vocabulary,
        )
        instance = HTAInstance(tasks, workers, self._config.x_max)
        if self._diversity_provider is not None:
            cached = self._diversity_provider([t.task_id for t in candidates])
            if cached is not None:
                instance.prime(profile_pair=cached)
        return PreparedSolve(
            worker_ids=live,
            candidates=candidates,
            task_pool=tasks,
            instance=instance,
            solver_name=solver_name or self._strategy,
            seed=int(self._rng.integers(0, 2**63)),
        )

    def commit_solve(
        self,
        prepared: PreparedSolve,
        assigned: Mapping[str, Sequence[str]],
        wall_time: float,
        session_times: dict[str, float] | None = None,
    ) -> dict[str, TasksAssigned]:
        """Install the results of a prepared solve (event-loop side).

        Routes each assigned task through the normal
        :meth:`TaskPoolState.remove` path so pool listeners (the diversity
        cache) hear about exactly the tasks that actually left.  Only ids
        still in the pool are installed, which is the C1/C2 guard: a task
        an earlier commit or pad draw already took is never shown twice.
        Empty-handed workers draw random tasks while any remain, workers
        with nothing at all are omitted (their current display stands), and
        the assignments of workers that unregistered mid-solve stay in the
        pool.  Runs synchronously — no awaits — so a commit is atomic with
        respect to the event loop.
        """
        times = session_times or {}
        events: dict[str, TasksAssigned] = {}
        for w in prepared.worker_ids:
            if w not in self._workers:
                continue
            ids = [tid for tid in assigned.get(w, ()) if tid in self._pool_state]
            tasks = [prepared.task_pool.by_id(tid) for tid in ids]
            self._pool_state.remove(ids)
            if not tasks and self.remaining_tasks() > 0:
                tasks = self._draw_random(self._config.x_max)
            if not tasks:
                continue
            events[w] = self._install_display(
                w, tasks, wall_time, times.get(w, -1.0)
            )
        return events

    # -- snapshot / restore ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """A JSON-serializable snapshot of the full mutable service state.

        Captures everything a restarted service needs to resume *exactly*
        where this one stopped: the remaining pool, registered workers,
        per-worker displays and completion bookkeeping, the motivation
        estimator, and the RNG stream position (so post-restore random draws
        match what the uninterrupted process would have drawn).  Display
        matrices are not stored — they are recomputed bit-identically from
        the keyword vectors on restore.
        """
        return {
            "strategy": self._strategy,
            "remaining_task_ids": self._pool_state.task_ids(),
            "admitted": [
                {
                    "task_id": task.task_id,
                    "interest": np.flatnonzero(task.vector).tolist(),
                    "group": task.group,
                    "title": task.title,
                    "reward": task.reward,
                    "n_questions": task.n_questions,
                }
                for task in self._admitted.values()
            ],
            "workers": {
                worker_id: {
                    "interest": np.flatnonzero(worker.vector).tolist(),
                    "alpha": worker.weights.alpha,
                    "beta": worker.weights.beta,
                }
                for worker_id, worker in self._workers.items()
            },
            "iterations": dict(self._iterations),
            "displays": {
                worker_id: {
                    "task_ids": list(display.task_ids),
                    "completed": [int(i) for i in display.completed],
                    "iteration": display.iteration,
                    "completed_since_assignment": (
                        display.completed_since_assignment
                    ),
                }
                for worker_id, display in self._displays.items()
            },
            "estimator": self._estimator.state_dict(),
            "rng_state": self._rng.bit_generator.state,
        }

    def restore_state(self, state: dict, tasks: Mapping[str, Task]) -> None:
        """Replace all mutable state with a :meth:`snapshot_state` snapshot.

        Args:
            state: A snapshot produced by a service with the same strategy.
            tasks: Lookup over the *full* original corpus — displayed tasks
                left the pool but their display bookkeeping still needs
                their keyword vectors.  Tasks admitted after construction
                are rebuilt from the snapshot's own admitted-task log, so
                they need not (and will not) appear in this lookup.

        Pool listeners (the diversity cache) are deliberately not notified;
        the caller must sync them against the restored pool itself.
        """
        if state.get("strategy") != self._strategy:
            raise SimulationError(
                f"snapshot was taken with strategy {state.get('strategy')!r}, "
                f"this service runs {self._strategy!r}"
            )
        if "weight_policy" in state:
            raise SimulationError(
                f"snapshot carries a weight policy "
                f"({state['weight_policy'].get('name')!r}); weight bandits "
                f"were retired and cannot be restored"
            )
        if "counts" in state["estimator"] and "diversity" not in state["estimator"]:
            raise SimulationError(
                "snapshot carries a Bayesian estimator state; only the "
                "paper's averaging estimator can be restored"
            )
        n_keywords = len(self._vocabulary)
        admitted: dict[str, Task] = {}
        for spec in state["admitted"]:
            vector = np.zeros(n_keywords, dtype=bool)
            if spec["interest"]:
                vector[np.asarray(spec["interest"], dtype=int)] = True
            admitted[spec["task_id"]] = Task(
                task_id=spec["task_id"],
                vector=vector,
                group=spec.get("group", ""),
                title=spec.get("title", ""),
                reward=float(spec.get("reward", 0.05)),
                n_questions=int(spec.get("n_questions", 1)),
            )
        lookup: Mapping[str, Task] = {**tasks, **admitted}
        workers: dict[str, Worker] = {}
        for worker_id, spec in state["workers"].items():
            vector = np.zeros(n_keywords, dtype=bool)
            if spec["interest"]:
                vector[np.asarray(spec["interest"], dtype=int)] = True
            workers[worker_id] = Worker(
                worker_id,
                vector,
                MotivationWeights(float(spec["alpha"]), float(spec["beta"])),
            )
        self._workers = workers
        self._iterations = {
            w: int(i) for w, i in state["iterations"].items()
        }
        self._pool_state.reset(
            [lookup[tid] for tid in state["remaining_task_ids"]]
        )
        displays: dict[str, _Display] = {}
        for worker_id, spec in state["displays"].items():
            shown = [lookup[tid] for tid in spec["task_ids"]]
            vectors = np.vstack([t.vector for t in shown])
            diversity, relevance = self._display_matrices(
                vectors, workers[worker_id].vector
            )
            displays[worker_id] = _Display(
                task_ids=list(spec["task_ids"]),
                vectors=vectors,
                diversity=diversity,
                relevance=relevance,
                completed=[int(i) for i in spec["completed"]],
                iteration=int(spec["iteration"]),
                completed_since_assignment=int(
                    spec["completed_since_assignment"]
                ),
            )
        self._displays = displays
        self._admitted = admitted
        self._estimator.load_state_dict(state["estimator"])
        self._rng.bit_generator.state = state["rng_state"]

    # -- internals -------------------------------------------------------------

    def _draw_random(self, count: int) -> list[Task]:
        """Draw up to ``count`` random tasks, removing them from the pool."""
        return self._pool_state.draw_random(count)

    @staticmethod
    def _display_matrices(
        vectors: np.ndarray, worker_vector: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Local diversity matrix and relevance row of one display.

        One distance pass over ``[tasks; worker]``: the top-left block is the
        pairwise task diversity, the last column the worker distances.  Both
        install and snapshot-restore go through here, so a restored display
        is bit-identical to the one the live process computed.
        """
        stacked = pairwise_jaccard(np.vstack([vectors, worker_vector[None, :]]))
        return np.ascontiguousarray(stacked[:-1, :-1]), 1.0 - stacked[:-1, -1]

    def _install_display(
        self,
        worker_id: str,
        assigned: list[Task],
        wall_time: float,
        session_time: float,
    ) -> TasksAssigned:
        pad = self._draw_random(self._config.n_random_pad)
        shown = list(assigned) + pad
        if not shown:
            raise SimulationError(
                f"no tasks left to display to worker {worker_id!r}"
            )
        vectors = np.vstack([t.vector for t in shown])
        worker_vector = self._workers[worker_id].vector
        diversity, relevance = self._display_matrices(vectors, worker_vector)
        iteration = self._iterations[worker_id]
        self._iterations[worker_id] = iteration + 1
        self._displays[worker_id] = _Display(
            task_ids=[t.task_id for t in shown],
            vectors=vectors,
            diversity=diversity,
            relevance=relevance,
            iteration=iteration,
        )
        weights = self.weights_of(worker_id)
        return TasksAssigned(
            wall_time=wall_time,
            session_time=session_time,
            worker_id=worker_id,
            iteration=iteration,
            task_ids=tuple(t.task_id for t in assigned),
            random_pad_ids=tuple(t.task_id for t in pad),
            alpha=weights.alpha,
            beta=weights.beta,
        )
