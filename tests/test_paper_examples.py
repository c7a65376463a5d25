"""The paper's worked examples (Table I, Fig. 1, Examples 1-3), verbatim.

Example 1's weights: alpha_w1 = 0.2, beta_w1 = 0.8, alpha_w2 = 0.6.  (The
paper's text then says "beta_w1 = 0.3" a second time — a typo for beta_w2;
note however that Fig. 1 multiplies worker 2's relevances by 2 x 0.3, so the
published matrix C uses beta_w2 = 0.3 even though alpha + beta then exceeds
1.  We run the equations with the figure's values to reproduce the figure's
numbers exactly, bypassing the MotivationWeights simplex check.)
"""

import numpy as np
import pytest

from repro.core.qap import QAPEncoding, build_encoding


@pytest.fixture
def figure_one_encoding(paper_example):
    """Encoding with the exact weights used in Fig. 1 (beta_w2 = 0.3)."""
    enc = build_encoding(paper_example)
    # Patch beta_w2 to the figure's literal 0.3 (vs the simplex-consistent
    # 0.4 the fixture uses).
    return QAPEncoding(
        n_vertices=enc.n_vertices,
        n_real_tasks=enc.n_real_tasks,
        n_workers=enc.n_workers,
        x_max=enc.x_max,
        profile_matrix=enc.profile_matrix,
        profile=enc.profile,
        relevance_by_worker=enc.relevance_by_worker,
        alphas=np.array([0.2, 0.6]),
        betas=np.array([0.8, 0.3]),
    )


class TestTableOne:
    def test_relevance_values(self, paper_example):
        rel = paper_example.relevance
        assert rel[0, 0] == pytest.approx(0.28)  # rel(t1, w1)
        assert rel[0, 4] == pytest.approx(0.67)  # rel(t5, w1)
        assert rel[1, 0] == pytest.approx(0.30)  # rel(t1, w2)
        assert rel[1, 6] == pytest.approx(0.0)  # rel(t7, w2)


class TestFigureOne:
    def test_matrix_a_blocks(self, figure_one_encoding):
        a = figure_one_encoding.dense_a()
        # First 3x3 block: worker 1, alpha = 0.2.
        assert a[0, 1] == pytest.approx(0.2)
        assert a[1, 2] == pytest.approx(0.2)
        # Second 3x3 block: worker 2, alpha = 0.6.
        assert a[3, 4] == pytest.approx(0.6)
        # Columns 7-8 (0-based 6-7) are isolated vertices.
        assert (a[6:, :] == 0).all()

    def test_matrix_c_first_column(self, figure_one_encoding):
        """c_{1,1} = (Xmax - 1) * beta_w1 * rel(w1, t1) = 2 x 0.8 x 0.28."""
        c = figure_one_encoding.dense_c()
        assert c[0, 0] == pytest.approx(2 * 0.8 * 0.28)
        assert c[1, 0] == pytest.approx(2 * 0.8 * 0.25)
        assert c[2, 0] == pytest.approx(2 * 0.8 * 0.2)
        assert c[5, 0] == pytest.approx(2 * 0.8 * 0.4)
        assert c[6, 0] == pytest.approx(0.0)

    def test_matrix_c_worker_two_columns(self, figure_one_encoding):
        c = figure_one_encoding.dense_c()
        assert c[0, 3] == pytest.approx(2 * 0.3 * 0.3)
        assert c[1, 3] == pytest.approx(0.0)  # rel(t2, w2) = 0
        assert c[7, 5] == pytest.approx(2 * 0.3 * 0.4)

    def test_matrix_c_isolated_columns_zero(self, figure_one_encoding):
        c = figure_one_encoding.dense_c()
        assert (c[:, 6:] == 0).all()


class TestExampleTwo:
    def test_permutation_decode(self, figure_one_encoding):
        """Example 2: pi(1)=4, pi(4)=1, identity elsewhere (1-based) gives
        T_w1 = {t4, t2, t3} and T_w2 = {t1, t5, t6}; t7, t8 unassigned."""
        # 0-based: pi[0] = 3, pi[3] = 0, rest identity.
        perm = np.arange(8)
        perm[0], perm[3] = 3, 0
        groups = figure_one_encoding.tasks_by_worker(perm)
        assert sorted(groups[0]) == [1, 2, 3]  # t2, t3, t4
        assert sorted(groups[1]) == [0, 4, 5]  # t1, t5, t6
        assigned = {t for g in groups for t in g}
        assert 6 not in assigned and 7 not in assigned  # t7, t8 left out


class TestExampleThree:
    def test_profit_f11(self, figure_one_encoding):
        """Example 3: with MB matching t1-t6 at d = 1, f_{1,1} = 1 x 0.4 +
        0.448 = 0.848 (degA_1 = alpha_w1 x (Xmax-1) = 0.4)."""
        matched_weight = np.zeros(8)
        # The example's matching: (t4,t8)=1, (t1,t6)=1, (t3,t2)=0.86, (t7,t5)=0.8
        for i, j, w in [(3, 7, 1.0), (0, 5, 1.0), (2, 1, 0.86), (6, 4, 0.8)]:
            matched_weight[i] = matched_weight[j] = w
        f = figure_one_encoding.profit_matrix(matched_weight)
        assert figure_one_encoding.deg_a[0] == pytest.approx(0.4)
        assert f[0, 0] == pytest.approx(0.848)
