"""Greedy and exact maximum-weight matching tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidInstanceError
from repro.matching import (
    cover_map,
    exact_matching_weight,
    exact_max_weight_matching,
    greedy_lsap,
    greedy_matching_dense,
    greedy_matching_edges,
    is_matching,
    matching_weight,
)


def random_symmetric(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    w = rng.random((n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return w


class TestGreedyDense:
    def test_picks_heaviest_edge_first(self):
        w = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        assert greedy_matching_dense(w) == [(0, 1)]

    def test_result_is_vertex_disjoint(self):
        for seed in range(10):
            matching = greedy_matching_dense(random_symmetric(11, seed))
            assert is_matching(matching)

    def test_skips_non_positive_edges(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = -1.0
        assert greedy_matching_dense(w) == []

    def test_trivial_sizes(self):
        assert greedy_matching_dense(np.zeros((0, 0))) == []
        assert greedy_matching_dense(np.zeros((1, 1))) == []

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            greedy_matching_dense(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="square"):
            greedy_matching_dense(np.zeros((2, 3)), [0, 1])

    @pytest.mark.parametrize("seed", range(15))
    def test_half_approximation_bound(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        w = random_symmetric(n, seed + 100)
        greedy_weight = matching_weight(w, greedy_matching_dense(w))
        optimal = exact_matching_weight(w)
        assert greedy_weight >= 0.5 * optimal - 1e-12

    def test_matches_everything_on_positive_complete_graph(self):
        w = random_symmetric(8, 0) + 0.01
        np.fill_diagonal(w, 0.0)
        assert len(greedy_matching_dense(w)) == 4


@st.composite
def tied_symmetric(draw):
    """Symmetric integer weights in [-2, 3]: many ties, zeros, negatives."""
    n = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    w = np.random.default_rng(seed).integers(-2, 4, size=(n, n)).astype(float)
    w = np.triu(w, 1)
    return w + w.T


class TestGreedyDenseEqualsEdgeLoop:
    @given(tied_symmetric())
    @settings(max_examples=200, deadline=None)
    def test_identical_to_one_edge_at_a_time(self, w):
        """The chunked dense walk returns the sequential greedy matching edge
        for edge: the edge-list walk over the upper triangle in row-major
        order (a stable sort keeps that order among ties)."""
        rows, cols = np.triu_indices(len(w), k=1)
        edges = [(int(i), int(j), w[i, j]) for i, j in zip(rows, cols)]
        assert greedy_matching_dense(w) == greedy_matching_edges(edges)


@st.composite
def twin_graph(draw):
    """A symmetric class matrix ``c`` and each vertex's class ``p``: integer
    class weights in [-1, 3] (many ties, zeros and negatives), 0 inside a
    class; vertices ``i, j`` are joined at ``c[p_i, p_j]``."""
    n_classes = draw(st.integers(1, 8))
    n = draw(st.integers(0, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    c = np.triu(rng.integers(-1, 4, size=(n_classes, n_classes)), 1).astype(float)
    profile = rng.integers(0, n_classes, size=n)
    return c + c.T, profile


def assert_greedy_run(w: np.ndarray, matching: list[tuple[int, int]]) -> None:
    """Replay ``matching`` edge by edge: each edge joins two free vertices
    at the heaviest weight left between free vertices, and once it ends no
    positive edge joins two free vertices."""
    free = np.ones(len(w), dtype=bool)

    def heaviest_free_edge() -> float:
        idx = np.flatnonzero(free)
        sub = w[np.ix_(idx, idx)]
        rows, cols = np.triu_indices(len(idx), k=1)
        return float(sub[rows, cols].max(initial=0.0))

    for i, j in matching:
        assert i < j and free[i] and free[j]
        assert w[i, j] > 0.0
        assert w[i, j] == heaviest_free_edge()
        free[i] = free[j] = False
    assert heaviest_free_edge() <= 0.0


class TestProfilePairWalk:
    """The walk over twin classes (keyword profiles) is a GreedyMatching run,
    and with one vertex per class it is the task-pair walk."""

    @given(twin_graph())
    @settings(max_examples=200, deadline=None)
    def test_every_edge_is_a_heaviest_free_edge(self, graph):
        c, profile = graph
        matching = greedy_matching_dense(c, profile)
        assert is_matching(matching)
        assert_greedy_run(c[np.ix_(profile, profile)], matching)

    @given(tied_symmetric())
    @settings(max_examples=200, deadline=None)
    def test_singleton_classes_are_the_task_walk(self, w):
        """``profile=None``, the identity index and singleton classes spread
        in increasing order over a wider matrix all give the
        one-edge-at-a-time loop's matching."""
        n = len(w)
        rows, cols = np.triu_indices(n, k=1)
        task_walk = greedy_matching_edges(
            (int(i), int(j), w[i, j]) for i, j in zip(rows, cols)
        )
        assert greedy_matching_dense(w) == task_walk
        assert greedy_matching_dense(w, np.arange(n)) == task_walk
        spread = 3 * np.arange(n) + 7
        wide = np.zeros((3 * n + 7, 3 * n + 7))
        wide[np.ix_(spread, spread)] = w
        assert greedy_matching_dense(wide, spread) == task_walk

    @given(twin_graph(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_labels_break_ties_in_their_order(self, graph, seed):
        """Only the order of the class indices matters: moving the classes
        to increasing rows of a wider matrix changes nothing, and any
        renumbering (rows moved along) is still a greedy run."""
        c, profile = graph
        k = len(c)
        rng = np.random.default_rng(seed)
        increasing = np.sort(rng.choice(100, k, replace=False))
        wide = np.zeros((100, 100))
        wide[np.ix_(increasing, increasing)] = c
        assert greedy_matching_dense(
            wide, increasing[profile]
        ) == greedy_matching_dense(c, profile)
        shuffled = rng.permutation(k)
        moved = np.empty_like(c)
        moved[np.ix_(shuffled, shuffled)] = c
        assert_greedy_run(
            c[np.ix_(profile, profile)],
            greedy_matching_dense(moved, shuffled[profile]),
        )

    @given(st.integers(1, 8), st.integers(0, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_permuting_task_labels_keeps_weight(self, n_classes, n, seed):
        """Shuffle which task carries which label: with distinct class-pair
        weights the walk takes the same class pairs equally often, so the
        matched weight does not move (integer weights: sums are exact)."""
        rng = np.random.default_rng(seed)
        rows, cols = np.triu_indices(n_classes, k=1)
        c = np.zeros((n_classes, n_classes))
        c[rows, cols] = rng.permutation(len(rows)) - 3.0
        c = c + c.T
        profile = rng.integers(0, n_classes, size=n)
        shuffled = rng.permutation(profile)
        weights = []
        for labels in (profile, shuffled):
            w = c[np.ix_(labels, labels)]
            weights.append(matching_weight(w, greedy_matching_dense(c, labels)))
        assert weights[0] == weights[1]

    def test_matches_twins_of_a_pair_at_once(self):
        """Classes {0, 2, 4} and {1, 3}: the heaviest class pair matches two
        task pairs, lowest free indices first; the third twin is left over."""
        c = np.array([[0.0, 2.0], [2.0, 0.0]])
        profile = np.array([0, 1, 0, 1, 0])
        assert greedy_matching_dense(c, profile) == [(0, 1), (2, 3)]

    def test_profile_length_checked(self):
        """``profile`` is a 1-D index into the rows of the class matrix."""
        with pytest.raises(ValueError, match="profile"):
            greedy_matching_dense(np.zeros((3, 3)), [0, 3])
        with pytest.raises(ValueError, match="profile"):
            greedy_matching_dense(np.zeros((3, 3)), [-1, 0])
        with pytest.raises(ValueError, match="profile"):
            greedy_matching_dense(np.zeros((3, 3)), [[0, 1]])


def greedy_lsap_entry_loop(profit: np.ndarray) -> np.ndarray:
    """Greedy LSAP one entry at a time: the stable order of decreasing
    profit, taking each entry whose row and column are both free."""
    n_rows, n_cols = profit.shape
    row_to_col = np.full(n_rows, -1, dtype=np.intp)
    col_taken: set[int] = set()
    for flat in np.argsort(-profit, axis=None, kind="stable").tolist():
        r, c = divmod(flat, n_cols)
        if row_to_col[r] < 0 and c not in col_taken:
            row_to_col[r] = c
            col_taken.add(c)
    return row_to_col


@st.composite
def tied_rectangle(draw):
    """Integer profits in [-1, 2] with n_rows <= n_cols: many ties."""
    n_rows = draw(st.integers(0, 30))
    n_cols = draw(st.integers(max(n_rows, 1), 60))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.integers(-1, 3, size=(n_rows, n_cols)).astype(float)


class TestGreedyLSAPEqualsEntryLoop:
    @given(tied_rectangle())
    @settings(max_examples=200, deadline=None)
    def test_identical_to_one_entry_at_a_time(self, profit):
        """The chunked walk assigns every row the column the sequential
        greedy loop assigns it."""
        np.testing.assert_array_equal(
            greedy_lsap(profit).row_to_col, greedy_lsap_entry_loop(profit)
        )


class TestGreedyEdges:
    def test_matches_dense_on_same_graph(self):
        w = random_symmetric(7, 3)
        edges = [
            (i, j, w[i, j]) for i in range(7) for j in range(i + 1, 7)
        ]
        assert set(greedy_matching_edges(edges)) == set(greedy_matching_dense(w))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            greedy_matching_edges([(1, 1, 2.0)])

    def test_empty_edge_list(self):
        assert greedy_matching_edges([]) == []


class TestExactMatching:
    def test_simple_case(self):
        w = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        assert exact_max_weight_matching(w) == [(0, 1)]

    def test_beats_or_ties_greedy(self):
        for seed in range(10):
            w = random_symmetric(10, seed)
            exact_w = exact_matching_weight(w)
            greedy_w = matching_weight(w, greedy_matching_dense(w))
            assert exact_w >= greedy_w - 1e-12

    def test_exact_is_a_matching(self):
        for seed in range(5):
            matching = exact_max_weight_matching(random_symmetric(9, seed))
            assert is_matching(matching)

    def test_greedy_adversarial_instance(self):
        """Path graph a-b-c-d with weights 2, 3, 2: greedy takes the middle
        edge (weight 3), optimal takes both outer edges (weight 4)."""
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 2.0
        w[1, 2] = w[2, 1] = 3.0
        w[2, 3] = w[3, 2] = 2.0
        assert matching_weight(w, greedy_matching_dense(w)) == 3.0
        assert exact_matching_weight(w) == 4.0

    def test_size_limit_enforced(self):
        with pytest.raises(InvalidInstanceError, match="limited"):
            exact_max_weight_matching(np.zeros((21, 21)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            exact_max_weight_matching(np.zeros((2, 3)))

    def test_ignores_non_positive_edges(self):
        w = np.full((4, 4), -1.0)
        np.fill_diagonal(w, 0.0)
        assert exact_max_weight_matching(w) == []


class TestHelpers:
    def test_is_matching_detects_shared_vertex(self):
        assert not is_matching([(0, 1), (1, 2)])
        assert is_matching([(0, 1), (2, 3)])
        assert not is_matching([(0, 0)])

    def test_cover_map(self):
        partner = cover_map([(0, 2)], 4)
        assert partner.tolist() == [2, -1, 0, -1]

    def test_matching_weight(self):
        w = random_symmetric(5, 1)
        assert matching_weight(w, [(0, 1), (2, 3)]) == pytest.approx(
            w[0, 1] + w[2, 3]
        )
