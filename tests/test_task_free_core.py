"""The task-free solve core: the HTA pipeline reads diversities through the
task -> keyword-profile index and never builds a ``|T| x |T|`` matrix.

* The groups (and objectives) the solvers return are pinned to digests
  taken before the solve path moved onto the profile matrix.
* A ``clique`` solve succeeds with every task-level carve disabled, and
  its allocation peak stays below one ``|T| x |T|`` float matrix.
* The vectorised objectives equal their literal oracles.
"""

import hashlib
import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Assignment
from repro.core import distance
from repro.core.instance import HTAInstance
from repro.core.motivation import motivation_of_subset
from repro.core.qap import build_encoding
from repro.core.solvers import get_solver
from repro.data import AMTConfig, generate_amt_pool
from repro.data.workers import generate_offline_workers

from conftest import make_random_instance

#: ``(|T|, tasks per group, |W|, x_max)``: the offline-fig2 shape, and a
#: pool smaller than the ``|W| * x_max`` slots (dummy vertices).
SHAPES = {"fig2": (400, 20, 20, 5), "padded": (60, 5, 15, 5)}

#: sha256 prefixes of the groups and of the objectives (``float.hex``) over
#: seeds 0-2, recorded with the task-level solve core.
DIGESTS = {
    ("fig2", "hta-app", "clique"): ("3f77c4046ae8e99b", "f6d58fe9d4bbed65"),
    ("fig2", "hta-app", "square"): ("670e54972072769f", "e38eba7d9fef21ab"),
    ("fig2", "hta-gre", "clique"): ("9c2aed9289089e9d", "b2ef9b692f413300"),
    ("fig2", "hta-gre", "square"): ("9c2aed9289089e9d", "b2ef9b692f413300"),
    ("padded", "hta-app", "clique"): ("8e19564a52181c02", "479edd8ada05636a"),
    ("padded", "hta-app", "square"): ("728fe38a4133bbe7", "911211d2e2ec09ca"),
    ("padded", "hta-gre", "clique"): ("1bf21d3b822dac78", "4191839eccec3213"),
    ("padded", "hta-gre", "square"): ("1bf21d3b822dac78", "4191839eccec3213"),
}


def amt_inputs(shape: str, index: int):
    n_tasks, per_group, n_workers, _ = SHAPES[shape]
    rng = np.random.default_rng([2018, index])
    pool = generate_amt_pool(
        AMTConfig(n_groups=n_tasks // per_group, tasks_per_group=per_group), rng=rng
    )
    return pool, generate_offline_workers(n_workers, pool.vocabulary, rng=rng)


def amt_instance(shape: str, index: int) -> HTAInstance:
    return HTAInstance(*amt_inputs(shape, index), SHAPES[shape][3])


@pytest.mark.parametrize("case", sorted(DIGESTS), ids="/".join)
def test_groups_match_the_task_level_core(case):
    shape, solver_name, lsap_shape = case
    solver = get_solver(solver_name, lsap_shape=lsap_shape)
    groups, objectives = hashlib.sha256(), hashlib.sha256()
    for seed in range(3):
        result = solver.solve(amt_instance(shape, seed), rng=seed)
        groups.update(json.dumps(sorted(result.assignment.by_worker.items())).encode())
        objectives.update(result.objective.hex().encode())
    assert (groups.hexdigest()[:16], objectives.hexdigest()[:16]) == DIGESTS[case]


def _refuse(*args, **kwargs):
    raise AssertionError("a task-level diversity matrix was built")


@pytest.mark.parametrize("solver_name", ["hta-app", "hta-gre"])
def test_clique_solve_builds_no_task_matrix(monkeypatch, solver_name):
    monkeypatch.setattr(HTAInstance, "diversity", property(_refuse))
    for module in list(sys.modules.values()):
        if getattr(module, "take_submatrix", None) is distance.take_submatrix:
            monkeypatch.setattr(module, "take_submatrix", _refuse)
    pool, workers = amt_inputs("fig2", 0)
    n_tasks = len(pool)
    solver = get_solver(solver_name)
    # A process's first solve also allocates one-off imports (numpy.ma).
    solver.solve(amt_instance("padded", 0), rng=0)
    tracemalloc.start()
    try:
        instance = HTAInstance(pool, workers, SHAPES["fig2"][3])
        result = solver.solve(instance, rng=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.assignment.size() == instance.capacity
    assert peak < 8 * n_tasks**2, f"peak {peak} bytes"


@st.composite
def encoded_permutation(draw):
    """An instance with repeated profiles (three keywords), sometimes
    fewer tasks than slots, x_max down to 1, and a random permutation."""
    n_tasks = draw(st.integers(1, 14))
    n_workers = draw(st.integers(1, 4))
    x_max = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    instance = make_random_instance(n_tasks, n_workers, x_max, seed=seed, n_keywords=3)
    encoding = build_encoding(instance)
    permutation = np.random.default_rng(seed).permutation(encoding.n_vertices)
    return encoding, permutation


class TestVectorisedObjectives:
    @given(encoded_permutation())
    @settings(max_examples=150, deadline=None)
    def test_qap_objective_is_the_dense_eq8(self, case):
        encoding, permutation = case
        assert encoding.objective(permutation) == pytest.approx(
            encoding.objective_dense(permutation), rel=1e-12, abs=1e-12
        )

    @given(encoded_permutation())
    @settings(max_examples=150, deadline=None)
    def test_decode_is_the_per_task_loop(self, case):
        """Eq. 7 read one task at a time: real tasks on clique vertices,
        ascending; dummies and isolated vertices dropped."""
        encoding, permutation = case
        expected = [[] for _ in range(encoding.n_workers)]
        for task in range(encoding.n_real_tasks):
            owner = encoding.worker_of_vertex[permutation[task]]
            if owner >= 0:
                expected[owner].append(task)
        assert encoding.tasks_by_worker(permutation) == expected

    @given(
        st.integers(1, 14),
        st.integers(1, 5),
        st.integers(1, 4),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_assignment_objective_is_the_per_worker_oracle(
        self, n_tasks, n_workers, x_max, seed
    ):
        """Random partial assignments (empty workers included, tasks in any
        order): each worker's motivation is :func:`motivation_of_subset`'s
        bit for bit, and the total adds them in worker order."""
        instance = make_random_instance(n_tasks, n_workers, x_max, seed=seed, n_keywords=3)
        rng = np.random.default_rng(seed)
        order = rng.permutation(n_tasks).tolist()
        groups = []
        for _ in range(n_workers):
            size = int(rng.integers(0, x_max + 1))
            groups.append(order[:size])
            order = order[size:]
        assignment = Assignment.from_indices(instance, groups)
        oracle = [
            motivation_of_subset(
                instance.diversity, instance.relevance[q], group, worker.alpha, worker.beta
            )
            for q, (group, worker) in enumerate(zip(groups, instance.workers))
        ]
        per_worker = assignment.per_worker_motivation(instance)
        assert list(per_worker.values()) == oracle
        total = 0.0
        for value in oracle:
            total += value
        assert assignment.objective(instance) == total
