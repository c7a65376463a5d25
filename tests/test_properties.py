"""Property-based tests (hypothesis) on the core invariants.

Each property pins down a theorem-level fact the paper's machinery relies
on: Jaccard metricity, the 1/2 bounds of the greedy subroutines, Hungarian
optimality, Eq. 8's objective equivalence, constraint validity of every
solver output, and simplex closure of the estimator.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import Assignment, MotivationWeights
from repro.core.adaptive import GainObservation, MotivationEstimator, observe_gains
from repro.core.distance import jaccard_distance, pairwise_jaccard
from repro.core.qap import build_encoding
from repro.core.solvers import HTAAppSolver, HTAGreSolver, RelevanceGreedySolver
from repro.matching import (
    brute_force_lsap,
    exact_matching_weight,
    greedy_lsap,
    greedy_matching_dense,
    hungarian,
    is_matching,
    matching_weight,
)

from conftest import make_random_instance

bool_vectors = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        *[st.lists(st.booleans(), min_size=n, max_size=n) for _ in range(3)]
    )
)


@st.composite
def symmetric_matrix(draw, max_n=9):
    n = draw(st.integers(2, max_n))
    values = draw(
        st.lists(
            st.floats(0.0, 10.0, allow_nan=False),
            min_size=n * n,
            max_size=n * n,
        )
    )
    w = np.array(values).reshape(n, n)
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return w


@st.composite
def profit_matrix(draw, max_n=8):
    n_rows = draw(st.integers(1, max_n))
    n_cols = draw(st.integers(n_rows, max_n))
    values = draw(
        st.lists(
            st.floats(0.0, 100.0, allow_nan=False),
            min_size=n_rows * n_cols,
            max_size=n_rows * n_cols,
        )
    )
    return np.array(values).reshape(n_rows, n_cols)


class TestJaccardProperties:
    @given(bool_vectors)
    def test_metric_axioms(self, vectors):
        u, v, w = (np.array(x, dtype=bool) for x in vectors)
        duv = jaccard_distance(u, v)
        dvu = jaccard_distance(v, u)
        assert duv == pytest.approx(dvu)
        assert 0.0 <= duv <= 1.0
        assert jaccard_distance(u, u) == 0.0
        # Triangle inequality.
        assert duv <= jaccard_distance(u, w) + jaccard_distance(w, v) + 1e-12

    @given(
        st.integers(2, 20),
        st.integers(1, 10),
        st.integers(0, 2**31 - 1),
    )
    def test_pairwise_matches_scalar(self, n_rows, n_cols, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.random((n_rows, n_cols)) < 0.5
        dense = pairwise_jaccard(matrix)
        i, j = int(rng.integers(n_rows)), int(rng.integers(n_rows))
        assert dense[i, j] == pytest.approx(jaccard_distance(matrix[i], matrix[j]))


class TestMatchingProperties:
    @given(symmetric_matrix())
    @settings(max_examples=40, deadline=None)
    def test_greedy_is_half_of_optimal(self, w):
        greedy = greedy_matching_dense(w)
        assert is_matching(greedy)
        assert matching_weight(w, greedy) >= 0.5 * exact_matching_weight(w) - 1e-9

    @given(symmetric_matrix(max_n=7))
    @settings(max_examples=30, deadline=None)
    def test_exact_at_least_greedy(self, w):
        assert exact_matching_weight(w) >= matching_weight(
            w, greedy_matching_dense(w)
        ) - 1e-9


class TestProfileWalkProperties:
    """The pipeline's matching walks keyword-profile pairs; on pools with
    repeated profiles (three keywords: at most eight distinct rows) it keeps
    GreedyMatching's 1/2 bound and never touches a padded dummy."""

    @given(st.integers(2, 12), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_profile_walk_is_half_of_optimal(self, n_tasks, seed):
        instance = make_random_instance(n_tasks, 1, 1, seed=seed, n_keywords=3)
        w = instance.diversity
        matching = greedy_matching_dense(*instance.profile_pair)
        assert is_matching(matching)
        assert matching_weight(w, matching) >= 0.5 * exact_matching_weight(w) - 1e-9

    @given(
        st.integers(1, 14),  # tasks
        st.integers(1, 4),  # workers
        st.integers(1, 4),  # x_max
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_padded_dummies_never_matched(self, n_tasks, n_workers, x_max, seed):
        instance = make_random_instance(
            n_tasks, n_workers, x_max, seed=seed, n_keywords=3
        )
        encoding = build_encoding(instance)
        matching = greedy_matching_dense(encoding.profile_matrix, encoding.profile)
        assert all(j < encoding.n_real_tasks for _, j in matching)
        if encoding.n_vertices > n_tasks:
            # The dummies form one class of their own, after the profiles.
            dummies = encoding.profile[n_tasks:]
            assert (dummies == dummies[0]).all()
            assert dummies[0] not in encoding.profile[:n_tasks]


class TestLSAPProperties:
    @given(profit_matrix())
    @settings(max_examples=40, deadline=None)
    def test_hungarian_is_optimal(self, profit):
        solution = hungarian(profit)
        assert solution.is_valid(profit.shape[1])
        assert solution.value == pytest.approx(
            brute_force_lsap(profit).value, abs=1e-6
        )

    @given(profit_matrix())
    @settings(max_examples=40, deadline=None)
    def test_greedy_half_bound(self, profit):
        greedy = greedy_lsap(profit)
        assert greedy.is_valid(profit.shape[1])
        assert greedy.value >= 0.5 * hungarian(profit).value - 1e-9


@st.composite
def twin_profit_matrix(draw):
    """A profit matrix with identical twin columns, and a row supply."""
    n_rows = draw(st.integers(1, 3))
    supply = draw(st.integers(1, 2))
    n_classes = draw(st.integers(1, 4))
    n_cols = draw(st.integers(n_rows * supply, n_rows * supply + 2))
    reps = np.array(
        draw(
            st.lists(
                st.integers(0, 4), min_size=n_rows * n_classes, max_size=n_rows * n_classes
            )
        ),
        dtype=float,
    ).reshape(n_rows, n_classes)
    classes = np.array(
        draw(st.lists(st.integers(0, n_classes - 1), min_size=n_cols, max_size=n_cols))
    )
    return reps[:, classes], supply, classes


class TestQuotientLSAPProperties:
    @given(twin_profit_matrix())
    @settings(max_examples=60, deadline=None)
    def test_quotient_hungarian_is_optimal(self, case):
        profit, supply, classes = case
        expanded = np.repeat(profit, supply, axis=0)
        solution = hungarian(profit, supply, classes)
        assert solution.is_valid(profit.shape[1])
        assert solution.value == pytest.approx(brute_force_lsap(expanded).value)

    @given(twin_profit_matrix())
    @settings(max_examples=60, deadline=None)
    def test_supply_greedy_is_the_slot_level_walk(self, case):
        profit, supply, _ = case
        np.testing.assert_array_equal(
            greedy_lsap(profit, supply).row_to_col,
            greedy_lsap(np.repeat(profit, supply, axis=0)).row_to_col,
        )


class TestSolverProperties:
    @given(
        st.integers(4, 14),  # tasks
        st.integers(1, 3),  # workers
        st.integers(1, 3),  # x_max
        st.integers(0, 10_000),  # seed
    )
    @settings(max_examples=25, deadline=None)
    def test_solver_outputs_always_valid(self, n_tasks, n_workers, x_max, seed):
        instance = make_random_instance(n_tasks, n_workers, x_max, seed=seed)
        for solver in (HTAAppSolver(), HTAGreSolver()):
            result = solver.solve(instance, rng=seed)
            result.assignment.validate(instance)
            assert result.objective >= -1e-12
            # Everything assignable is assigned.
            assert result.assignment.size() == min(n_tasks, n_workers * x_max)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_qap_objective_equivalence(self, seed):
        instance = make_random_instance(8, 2, 3, seed=seed)
        encoding = build_encoding(instance)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(encoding.n_vertices)
        assert encoding.objective(perm) == pytest.approx(
            encoding.objective_dense(perm)
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_full_assignment_objective_matches_eq3(self, seed):
        instance = make_random_instance(6, 2, 3, seed=seed)
        encoding = build_encoding(instance)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(6)
        groups = encoding.tasks_by_worker(perm)
        assume(all(len(g) == 3 for g in groups))
        assignment = Assignment.from_indices(instance, groups)
        assert encoding.objective(perm) == pytest.approx(
            assignment.objective(instance)
        )


def embed_assignment(instance, encoding, assignment):
    """Embed a solver assignment as a QAP permutation (task ``k`` -> vertex).

    Worker ``q`` owns vertices ``q * x_max .. q * x_max + x_max - 1``; its
    assigned tasks land on those slots and every leftover task (or padding
    dummy) takes one of the unused vertices, yielding a full permutation
    that :meth:`QAPEncoding.objective` accepts.
    """
    pi = np.full(encoding.n_vertices, -1, dtype=np.intp)
    used = np.zeros(encoding.n_vertices, dtype=bool)
    for q, worker in enumerate(instance.workers):
        base = q * encoding.x_max
        for slot, task_id in enumerate(assignment.tasks_of(worker.worker_id)):
            vertex = base + slot
            pi[instance.tasks.position(task_id)] = vertex
            used[vertex] = True
    free = iter(np.flatnonzero(~used))
    for k in range(encoding.n_vertices):
        if pi[k] < 0:
            pi[k] = int(next(free))
    return pi


class TestServingLadderProperties:
    """Invariants of every solver on the serve degradation ladder.

    ``repro.serve`` sheds load down hta-app -> hta-gre -> greedy-relevance;
    whatever rung is active, the displays it produces must still satisfy
    C1 (at most ``x_max`` per worker), C2 (tasks globally disjoint), and
    evaluate consistently under the Eq. 8 MAXQAP encoding.
    """

    SOLVERS = (HTAAppSolver, HTAGreSolver, RelevanceGreedySolver)

    @given(
        st.integers(4, 14),  # tasks
        st.integers(1, 3),  # workers
        st.integers(1, 3),  # x_max
        st.integers(0, 10_000),  # seed
    )
    @settings(max_examples=25, deadline=None)
    def test_ladder_respects_c1_c2_and_capacity(
        self, n_tasks, n_workers, x_max, seed
    ):
        instance = make_random_instance(n_tasks, n_workers, x_max, seed=seed)
        for solver_cls in self.SOLVERS:
            result = solver_cls().solve(instance, rng=seed)
            assignment = result.assignment
            assignment.validate(instance)  # raises on any C1/C2 breach
            seen: dict[str, str] = {}
            for worker in instance.workers:
                task_ids = assignment.tasks_of(worker.worker_id)
                assert len(task_ids) <= instance.x_max  # C1: |T'| <= Xmax
                assert len(set(task_ids)) == len(task_ids)
                for task_id in task_ids:
                    assert task_id not in seen  # C2: globally disjoint
                    seen[task_id] = worker.worker_id
            # No rung may leave assignable work on the table.
            assert assignment.size() == min(n_tasks, n_workers * x_max)

    @given(
        st.integers(1, 3),  # workers
        st.integers(2, 3),  # x_max
        st.integers(0, 10_000),  # seed
    )
    @settings(max_examples=20, deadline=None)
    def test_ladder_objectives_match_qap_encoding(self, n_workers, x_max, seed):
        # Saturated instance: every worker receives exactly x_max tasks, the
        # regime where Eq. 3 and the (x_max - 1)-scaled QAP objective
        # coincide (Eq. 8).
        n_tasks = n_workers * x_max + 2
        instance = make_random_instance(n_tasks, n_workers, x_max, seed=seed)
        encoding = build_encoding(instance)
        for solver_cls in self.SOLVERS:
            result = solver_cls().solve(instance, rng=seed)
            perm = embed_assignment(instance, encoding, result.assignment)
            qap_value = encoding.objective(perm)
            # motiv() (Eq. 3) == clique-structured Eq. 8 == dense Eq. 8.
            assert qap_value == pytest.approx(
                result.assignment.objective(instance)
            )
            assert qap_value == pytest.approx(encoding.objective_dense(perm))
            assert result.objective == pytest.approx(qap_value)
            # The embedding round-trips: decoding the permutation recovers
            # exactly the solver's per-worker task sets.
            decoded = encoding.tasks_by_worker(perm)
            expected = result.assignment.indices(instance)
            assert [sorted(g) for g in decoded] == [sorted(g) for g in expected]


class TestEstimatorProperties:
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.floats(0.0, 1.0, allow_nan=False)),
                st.one_of(st.none(), st.floats(0.0, 1.0, allow_nan=False)),
            ),
            max_size=30,
        )
    )
    def test_weights_always_on_simplex(self, observations):
        estimator = MotivationEstimator()
        for div, rel in observations:
            estimator.record("w", GainObservation(diversity=div, relevance=rel))
        weights = estimator.weights_for("w")
        assert 0.0 <= weights.alpha <= 1.0
        assert weights.alpha + weights.beta == pytest.approx(1.0)

    @given(st.integers(0, 10_000), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_observed_gains_in_unit_interval(self, seed, n_assigned):
        rng = np.random.default_rng(seed)
        vectors = rng.random((n_assigned, 6)) < 0.5
        diversity = pairwise_jaccard(vectors)
        relevance = rng.random(n_assigned)
        assigned = list(range(n_assigned))
        completed: list[int] = []
        for task in assigned:
            obs = observe_gains(diversity, relevance, assigned, completed, task)
            if obs.diversity is not None:
                assert 0.0 <= obs.diversity <= 1.0
            if obs.relevance is not None:
                assert 0.0 <= obs.relevance <= 1.0
            completed.append(task)


class TestWeightsProperties:
    @given(st.floats(0.0, 1e6, allow_nan=False), st.floats(0.0, 1e6, allow_nan=False))
    def test_from_gains_simplex(self, div, rel):
        weights = MotivationWeights.from_gains(div, rel)
        assert weights.alpha + weights.beta == pytest.approx(1.0)
        assert 0.0 <= weights.alpha <= 1.0


class TestTeamProperties:
    @given(
        st.integers(1, 3),  # tasks
        st.integers(1, 3),  # team size
        st.integers(0, 1000),  # seed
    )
    @settings(max_examples=25, deadline=None)
    def test_greedy_teams_always_valid_and_bounded(self, n_tasks, team_size, seed):
        from repro.core import Task, Vocabulary, Worker, WorkerPool
        from repro.teams import (
            TeamInstance,
            collaborative_tasks_from_pool,
            greedy_teams,
        )

        rng = np.random.default_rng(seed)
        vocab = Vocabulary([f"k{i}" for i in range(8)])
        n_workers = n_tasks * team_size + int(rng.integers(0, 3))
        tasks = collaborative_tasks_from_pool(
            [Task(f"t{i}", rng.random(8) < 0.5) for i in range(n_tasks)],
            team_size,
        )
        workers = WorkerPool(
            [Worker(f"w{q}", rng.random(8) < 0.5) for q in range(n_workers)],
            vocab,
        )
        instance = TeamInstance(tasks, workers)
        assignment = greedy_teams(instance)
        assignment.validate(instance)
        value = assignment.objective(instance)
        assert 0.0 <= value <= n_tasks + 1e-9  # each team motivation in [0, 1]


class TestLocalSearchProperties:
    @given(st.integers(0, 2000))
    @settings(max_examples=15, deadline=None)
    def test_local_search_never_below_seed_solution(self, seed):
        from repro.core.solvers import HTAGreSolver, LocalSearchSolver

        instance = make_random_instance(12, 2, 3, seed=seed)
        seeded = HTAGreSolver().solve(instance, rng=seed)
        improved = LocalSearchSolver().solve(instance, rng=seed)
        improved.assignment.validate(instance)
        assert improved.objective >= seeded.objective - 1e-9
