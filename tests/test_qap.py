"""MAXQAP-encoding tests: Eqs. 4-8 and the permutation decode (Eq. 7)."""

import numpy as np
import pytest

from repro.core import Assignment
from repro.core.qap import build_encoding
from repro.errors import InvalidInstanceError

from conftest import make_random_instance


class TestMatrixStructure:
    def test_a_is_block_cliques(self, small_instance):
        enc = build_encoding(small_instance)
        a = enc.dense_a()
        # Worker 1 (alpha 0.8) owns vertices 3..5 (x_max = 3).
        assert a[3, 4] == pytest.approx(0.8)
        assert a[4, 5] == pytest.approx(0.8)
        # No diagonal, no cross-clique edges.
        assert (np.diag(a) == 0).all()
        assert a[0, 3] == 0.0
        # Vertices beyond |W| * x_max are isolated.
        assert (a[9:] == 0).all() and (a[:, 9:] == 0).all()

    def test_a_symmetry(self, small_instance):
        a = build_encoding(small_instance).dense_a()
        assert (a == a.T).all()

    def test_b_is_diversity(self, small_instance):
        enc = build_encoding(small_instance)
        assert np.allclose(enc.dense_b()[:12, :12], small_instance.diversity)

    def test_c_guard_is_worker_columns(self, small_instance):
        """Regression for the Eq. 6 typo: C is non-zero exactly on the
        |W| * x_max clique columns, zero elsewhere."""
        enc = build_encoding(small_instance)
        c = enc.dense_c()
        clique_span = small_instance.n_workers * small_instance.x_max
        assert (c[:, clique_span:] == 0).all()
        # Column for worker q scales rel by beta_q * (x_max - 1).
        q = 1
        col = q * small_instance.x_max
        worker = small_instance.workers[q]
        expected = (
            small_instance.relevance[q]
            * worker.beta
            * (small_instance.x_max - 1)
        )
        assert np.allclose(c[:12, col], expected)

    def test_deg_a_closed_form(self, small_instance):
        enc = build_encoding(small_instance)
        assert np.allclose(enc.deg_a, enc.dense_a().sum(axis=0))

    def test_worker_of_vertex(self, small_instance):
        enc = build_encoding(small_instance)
        owners = enc.worker_of_vertex
        assert owners[:3].tolist() == [0, 0, 0]
        assert owners[3:6].tolist() == [1, 1, 1]
        assert owners[9:].tolist() == [-1, -1, -1]


class TestPadding:
    def test_padding_when_capacity_exceeds_tasks(self):
        instance = make_random_instance(n_tasks=5, n_workers=3, x_max=3, seed=1)
        enc = build_encoding(instance)
        assert enc.n_vertices == 9  # capacity 9 > 5 tasks
        assert enc.n_real_tasks == 5
        # Dummy rows contribute nothing.
        assert (enc.diversity[5:] == 0).all()
        assert (enc.relevance_by_worker[5:] == 0).all()

    def test_no_padding_when_tasks_exceed_capacity(self):
        instance = make_random_instance(n_tasks=10, n_workers=2, x_max=3, seed=2)
        enc = build_encoding(instance)
        assert enc.n_vertices == 10


class TestObjectiveEquivalence:
    """Eq. 8: the QAP objective equals the HTA objective."""

    @pytest.mark.parametrize("seed", range(5))
    def test_clique_objective_equals_dense_objective(self, seed):
        instance = make_random_instance(n_tasks=9, n_workers=2, x_max=3, seed=seed)
        enc = build_encoding(instance)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            perm = rng.permutation(enc.n_vertices)
            assert enc.objective(perm) == pytest.approx(enc.objective_dense(perm))

    @pytest.mark.parametrize("seed", range(5))
    def test_qap_objective_equals_hta_objective_on_full_assignments(self, seed):
        """When every clique is full (|T| >= capacity and the permutation
        fills all slots with real tasks), Eq. 8 holds against Eq. 3."""
        instance = make_random_instance(n_tasks=8, n_workers=2, x_max=3, seed=seed)
        enc = build_encoding(instance)
        rng = np.random.default_rng(100 + seed)
        perm = rng.permutation(8)
        groups = enc.tasks_by_worker(perm)
        assert all(len(g) == 3 for g in groups)
        assignment = Assignment.from_indices(instance, groups)
        assert enc.objective(perm) == pytest.approx(assignment.objective(instance))

    def test_padding_preserves_objective(self):
        """A dummy in a clique slot scores exactly like an empty slot under
        the QAP objective."""
        instance = make_random_instance(n_tasks=4, n_workers=2, x_max=3, seed=3)
        enc = build_encoding(instance)
        perm = np.arange(enc.n_vertices)
        groups = enc.tasks_by_worker(perm)
        # All real tasks decoded, dummies silently dropped.
        assert sum(len(g) for g in groups) == 4
        assert enc.objective(perm) == pytest.approx(enc.objective_dense(perm))


class TestDecode:
    def test_tasks_by_worker_equation_seven(self, small_instance):
        enc = build_encoding(small_instance)
        perm = np.arange(12)
        groups = enc.tasks_by_worker(perm)
        assert groups[0] == [0, 1, 2]
        assert groups[1] == [3, 4, 5]
        assert groups[2] == [6, 7, 8]
        # Tasks mapped to isolated vertices (9..11) are unassigned.

    def test_decode_rejects_non_permutation(self, small_instance):
        enc = build_encoding(small_instance)
        with pytest.raises(InvalidInstanceError, match="repeated"):
            enc.tasks_by_worker(np.zeros(12, dtype=int))

    def test_decode_rejects_wrong_length(self, small_instance):
        enc = build_encoding(small_instance)
        with pytest.raises(InvalidInstanceError, match="length"):
            enc.tasks_by_worker(np.arange(5))


class TestProfitMatrix:
    def test_profit_formula(self, small_instance):
        enc = build_encoding(small_instance)
        rng = np.random.default_rng(0)
        matched = rng.random(enc.n_vertices)
        f = enc.profit_matrix(matched)
        c = enc.dense_c()
        expected = np.outer(matched, enc.deg_a) + c
        # One column per worker stands for its x_max identical clique
        # columns; the isolated columns are zero.
        assert f.shape == (enc.n_vertices, enc.n_workers)
        n_clique = enc.n_workers * enc.x_max
        assert np.allclose(np.repeat(f, enc.x_max, axis=1), expected[:, :n_clique])
        assert not expected[:, n_clique:].any()

    def test_profit_rejects_bad_shape(self, small_instance):
        enc = build_encoding(small_instance)
        with pytest.raises(InvalidInstanceError, match="shape"):
            enc.profit_matrix(np.zeros(3))
