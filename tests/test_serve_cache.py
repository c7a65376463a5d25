"""Incremental diversity cache: parity with from-scratch recomputation.

The open-world half of the contract is property-tested: under any
hypothesis-generated interleaving of block appends and removals, every
live submatrix must be *bit-identical* (``np.array_equal``, not allclose)
to a ``pairwise_jaccard`` rebuild over the same keyword rows — growth and
compaction move float64 entries around but never recompute them
differently.  The cache stores one row per distinct keyword profile, so
``TestProfileCache`` draws vectors from a small alphabet to make profiles
repeat, against the same task-level oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Task, TaskPool, Vocabulary
from repro.core.distance import keyword_profiles, pairwise_jaccard, take_submatrix
from repro.crowd.service import AssignmentService, ServiceConfig
from repro.serve.cache import IncrementalDiversityCache


def carve(cache, ids):
    """The task-level block a solve expands from the cache's profile pair."""
    pair = cache.submatrix(ids)
    return None if pair is None else take_submatrix(*pair)


@pytest.fixture
def vocab():
    return Vocabulary([f"k{i}" for i in range(20)])


@pytest.fixture
def pool(vocab):
    rng = np.random.default_rng(3)
    return TaskPool(
        [Task(f"t{i}", rng.random(20) < 0.3) for i in range(80)], vocab
    )


class TestTakeSubmatrix:
    def test_matches_fancy_indexing(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((10, 10))
        idx = [7, 2, 5]
        expected = matrix[np.ix_(idx, idx)]
        got = take_submatrix(matrix, idx)
        np.testing.assert_array_equal(got, expected)
        assert got.flags["C_CONTIGUOUS"]

    def test_duplicate_indices(self):
        rng = np.random.default_rng(1)
        matrix = rng.random((8, 8))
        idx = [2, 2, 5]
        np.testing.assert_array_equal(
            take_submatrix(matrix, idx), matrix[np.ix_(idx, idx)]
        )

    def test_out_of_order_indices(self):
        rng = np.random.default_rng(2)
        matrix = rng.random((9, 9))
        idx = [8, 0, 4, 1]
        np.testing.assert_array_equal(
            take_submatrix(matrix, idx), matrix[np.ix_(idx, idx)]
        )

    def test_empty_index_set(self):
        assert take_submatrix(np.zeros((5, 5)), []).shape == (0, 0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            take_submatrix(np.zeros((3, 4)), [0])


class TestCacheParity:
    def test_submatrix_matches_recompute(self, pool):
        cache = IncrementalDiversityCache(pool)
        ids = [t.task_id for t in pool][10:40]
        sub = carve(cache, ids)
        expected = pairwise_jaccard(pool.subset(ids).matrix)
        np.testing.assert_allclose(sub, expected)

    def test_parity_survives_removals_and_compaction(self, pool):
        rng = np.random.default_rng(1)
        cache = IncrementalDiversityCache(pool, compact_threshold=0.6)
        alive = [t.task_id for t in pool]
        for _ in range(5):
            drop = list(rng.choice(alive, size=10, replace=False))
            cache.on_removed(drop)
            alive = [tid for tid in alive if tid not in set(drop)]
            sample = list(rng.choice(alive, size=min(12, len(alive)), replace=False))
            sub = carve(cache, sample)
            expected = pairwise_jaccard(pool.subset(sample).matrix)
            np.testing.assert_allclose(sub, expected)
        assert cache.compactions >= 1
        assert len(cache) == len(alive)

    def test_submatrix_duplicate_ids(self, pool):
        cache = IncrementalDiversityCache(pool)
        ids = ["t3", "t3", "t7"]
        base = [t.task_id for t in pool]
        rows = [base.index(tid) for tid in ids]
        full = pairwise_jaccard(pool.matrix)
        np.testing.assert_allclose(
            carve(cache, ids), full[np.ix_(rows, rows)]
        )

    def test_submatrix_out_of_order_ids(self, pool):
        cache = IncrementalDiversityCache(pool)
        ids = ["t40", "t2", "t19", "t5"]
        base = [t.task_id for t in pool]
        rows = [base.index(tid) for tid in ids]
        full = pairwise_jaccard(pool.matrix)
        np.testing.assert_allclose(
            carve(cache, ids), full[np.ix_(rows, rows)]
        )

    def test_profile_pair_is_what_a_fresh_instance_builds(self, vocab):
        """The pair is compacted to the candidates' profiles and numbers
        them by first appearance, as ``keyword_profiles`` does, so a primed
        solve and a from-scratch one walk the same classes."""
        rng = np.random.default_rng(5)
        rows = rng.random((6, 20)) < 0.3
        pool = TaskPool(
            [Task(f"t{i}", rows[rng.integers(6)]) for i in range(40)], vocab
        )
        cache = IncrementalDiversityCache(pool)
        ids = [t.task_id for t in pool][::-3]
        matrix, profile = cache.submatrix(ids)
        profiles, expected = keyword_profiles(pool.subset(ids).matrix)
        np.testing.assert_array_equal(profile, expected)
        assert np.array_equal(matrix, pairwise_jaccard(profiles))

    def test_submatrix_empty_ids(self, pool):
        cache = IncrementalDiversityCache(pool)
        assert carve(cache, []).shape == (0, 0)

    def test_unknown_id_declines(self, pool):
        cache = IncrementalDiversityCache(pool)
        cache.on_removed(["t0"])
        assert carve(cache, ["t0", "t1"]) is None
        assert "t0" not in cache

    def test_rejects_bad_threshold(self, pool):
        with pytest.raises(ValueError, match="compact_threshold"):
            IncrementalDiversityCache(pool, compact_threshold=1.5)


def _rebuild_oracle(rows: dict[str, np.ndarray]) -> np.ndarray:
    """From-scratch Jaccard over the live rows, in arrival order."""
    return pairwise_jaccard(np.vstack(list(rows.values())))


class TestCacheGrowth:
    """Block append: the open-world direction of the cache contract."""

    R = 12

    def _make(self, seed=0, n=10, threshold=0.6):
        rng = np.random.default_rng(seed)
        vocab = Vocabulary([f"k{i}" for i in range(self.R)])
        tasks = [Task(f"t{i}", rng.random(self.R) < 0.35) for i in range(n)]
        pool = TaskPool(tasks, vocab)
        cache = IncrementalDiversityCache(pool, compact_threshold=threshold)
        live = {t.task_id: np.asarray(t.vector, dtype=bool) for t in tasks}
        return cache, live, rng

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        ops=st.lists(
            st.tuples(st.sampled_from(["add", "remove"]), st.integers(1, 6)),
            min_size=1,
            max_size=12,
        ),
    )
    def test_interleaved_growth_matches_rebuild_oracle(self, seed, ops):
        """Any append/remove interleaving stays bit-identical to a rebuild.

        Drains to empty and regrows when hypothesis finds that path; growth
        re-packs (compaction) and geometric over-allocation must both be
        invisible in the served entries.
        """
        cache, live, rng = self._make(seed=seed)
        counter = len(live)
        for kind, size in ops:
            if kind == "add":
                batch = [
                    Task(f"t{counter + j}", rng.random(self.R) < 0.35)
                    for j in range(size)
                ]
                counter += size
                cache.on_added(batch)
                for task in batch:
                    live[task.task_id] = np.asarray(task.vector, dtype=bool)
            elif live:
                picks = rng.choice(
                    len(live), size=min(size, len(live)), replace=False
                )
                ids = [list(live)[i] for i in sorted(picks)]
                cache.on_removed(ids)
                for tid in ids:
                    live.pop(tid)
            assert len(cache) == len(live)
            if live:
                got = carve(cache, list(live))
                assert got is not None
                assert np.array_equal(got, _rebuild_oracle(live))
            else:
                assert carve(cache, []).shape == (0, 0)

    def test_empty_append_is_a_noop(self):
        cache, live, _ = self._make()
        before = carve(cache, list(live)).copy()
        cache.on_added([])
        assert cache.appends == 0
        np.testing.assert_array_equal(carve(cache, list(live)), before)

    def test_duplicate_id_in_batch_rejected_atomically(self):
        cache, live, rng = self._make()
        fresh = rng.random(self.R) < 0.35
        batch = [Task("new-a", fresh), Task("new-a", fresh)]
        with pytest.raises(ValueError, match="already cached"):
            cache.on_added(batch)
        assert "new-a" not in cache
        assert np.array_equal(
            carve(cache, list(live)), _rebuild_oracle(live)
        )

    def test_duplicate_of_live_row_rejected_atomically(self):
        cache, live, rng = self._make()
        batch = [Task("new-b", rng.random(self.R) < 0.35), Task("t3", rng.random(self.R) < 0.35)]
        with pytest.raises(ValueError, match="t3"):
            cache.on_added(batch)
        assert "new-b" not in cache  # the valid half must not land either
        assert np.array_equal(
            carve(cache, list(live)), _rebuild_oracle(live)
        )

    def test_vector_length_mismatch_rejected(self):
        cache, _, rng = self._make()
        with pytest.raises(ValueError, match="keyword"):
            cache.on_added([Task("new-c", rng.random(self.R + 3) < 0.35)])

    def test_append_after_total_drain(self):
        cache, live, rng = self._make(n=6)
        cache.on_removed(list(live))
        assert len(cache) == 0
        batch = [Task(f"fresh{i}", rng.random(self.R) < 0.35) for i in range(4)]
        cache.on_added(batch)
        rows = {t.task_id: np.asarray(t.vector, dtype=bool) for t in batch}
        got = carve(cache, list(rows))
        assert np.array_equal(got, _rebuild_oracle(rows))

    def test_growth_overallocates_geometrically(self):
        cache, live, rng = self._make(n=4)
        batch = [Task(f"g{i}", rng.random(self.R) < 0.35) for i in range(9)]
        cache.on_added(batch)
        assert cache.backing_rows == 13
        assert cache.allocated_rows >= 13  # grown past the initial 4
        for task in batch:
            live[task.task_id] = np.asarray(task.vector, dtype=bool)
        assert np.array_equal(
            carve(cache, list(live)), _rebuild_oracle(live)
        )


class TestProfileCache:
    """Profile-level storage against a task-level oracle.

    Vectors come from a small alphabet (the empty vector included), so
    profiles repeat: arrivals reuse cached rows, removals take away some but
    not all tasks of a profile, and compaction renumbers what survives.
    The oracle is ``pairwise_jaccard`` over the live tasks' own vectors.
    """

    R = 6
    ALPHABET = np.array(
        [
            [0, 0, 0, 0, 0, 0],
            [1, 1, 0, 0, 0, 0],
            [0, 1, 1, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [1, 0, 1, 0, 1, 1],
        ],
        dtype=bool,
    )

    def _pool(self, letters):
        vocab = Vocabulary([f"k{i}" for i in range(self.R)])
        return TaskPool(
            [Task(f"t{i}", self.ALPHABET[a]) for i, a in enumerate(letters)], vocab
        )

    @staticmethod
    def _assert_matches_oracle(cache, live):
        assert len(cache) == len(live)
        ids = list(live)
        got = carve(cache, ids)
        assert got is not None
        if ids:
            assert np.array_equal(got, pairwise_jaccard(np.vstack(list(live.values()))))
        else:
            assert got.shape == (0, 0)
        distinct = len({np.asarray(v).tobytes() for v in live.values()})
        assert distinct <= cache.backing_rows <= cache.allocated_rows

    @settings(max_examples=200, deadline=None)
    @given(
        initial=st.lists(st.integers(0, 4), min_size=1, max_size=12),
        threshold=st.sampled_from([0.0, 0.5, 0.9]),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("add"), st.lists(st.integers(0, 4), min_size=1, max_size=6)),
                st.tuples(st.just("remove"), st.lists(st.integers(0, 99), min_size=1, max_size=6)),
                st.tuples(st.just("drain"), st.just([])),
                st.tuples(st.just("duplicate"), st.lists(st.integers(0, 99), min_size=1, max_size=1)),
            ),
            max_size=15,
        ),
    )
    def test_interleaving_matches_task_level_oracle(self, initial, threshold, ops):
        pool = self._pool(initial)
        cache = IncrementalDiversityCache(pool, compact_threshold=threshold)
        live = {t.task_id: np.asarray(t.vector, dtype=bool) for t in pool}
        counter = len(live)
        for kind, args in ops:
            if kind == "add":
                batch = [Task(f"t{counter + j}", self.ALPHABET[a]) for j, a in enumerate(args)]
                counter += len(batch)
                cache.on_added(batch)
                live.update((t.task_id, np.asarray(t.vector, dtype=bool)) for t in batch)
            elif kind == "remove" and live:
                ids = list(live)
                drop = list(dict.fromkeys(ids[i % len(ids)] for i in args))
                cache.on_removed(drop)
                for tid in drop:
                    live.pop(tid)
            elif kind == "drain":
                cache.on_removed(list(live))
                live.clear()
            elif kind == "duplicate" and live:
                ids = list(live)
                clash = ids[args[0] % len(ids)]
                with pytest.raises(ValueError, match="already cached"):
                    cache.on_added([Task(f"t{counter}", self.ALPHABET[1]), Task(clash, self.ALPHABET[2])])
                assert f"t{counter}" not in cache
            self._assert_matches_oracle(cache, live)
            # Never more profile rows in use than distinct vectors ever seen.
            assert cache.backing_rows <= len(self.ALPHABET)

    def test_shared_profile_arrival_adds_no_row(self):
        cache = IncrementalDiversityCache(self._pool([1, 2, 1, 0]))
        rows, alloc = cache.backing_rows, cache.allocated_rows
        assert rows == 3
        cache.on_added([Task("n0", self.ALPHABET[2]), Task("n1", self.ALPHABET[0])])
        assert (cache.backing_rows, cache.allocated_rows) == (rows, alloc)
        assert cache.appends == 1

    def test_removing_part_of_a_shared_profile_keeps_its_row(self):
        pool = self._pool([1, 1, 1, 2])
        cache = IncrementalDiversityCache(pool, compact_threshold=0.9)
        cache.on_removed(["t0", "t1"])
        assert cache.compactions == 0 and cache.backing_rows == 2
        live = {t.task_id: t.vector for t in pool if t.task_id in ("t2", "t3")}
        self._assert_matches_oracle(cache, live)
        cache.on_removed(["t2"])  # the profile's last task: now it dies
        assert cache.compactions == 1 and cache.backing_rows == 1
        self._assert_matches_oracle(cache, {"t3": pool.by_id("t3").vector})

    def test_dead_profile_row_is_reused_before_compaction(self):
        cache = IncrementalDiversityCache(self._pool([1, 2, 3, 4]), compact_threshold=0.0)
        cache.on_removed(["t0"])
        cache.on_added([Task("back", self.ALPHABET[1])])
        assert cache.backing_rows == 4
        live = {f"t{i}": self.ALPHABET[a] for i, a in ((1, 2), (2, 3), (3, 4))}
        live["back"] = self.ALPHABET[1]
        self._assert_matches_oracle(cache, live)

    def test_all_distinct_pool_compacts_profiles(self):
        """Every task its own profile: removals kill profiles and force
        compaction; appends of new profiles grow the buffer geometrically."""
        rng = np.random.default_rng(5)
        R = 24
        vocab = Vocabulary([f"k{i}" for i in range(R)])
        vectors = np.unique(rng.random((90, R)) < 0.4, axis=0)[:60]
        rng.shuffle(vectors)
        tasks = [Task(f"d{i}", v) for i, v in enumerate(vectors[:40])]
        cache = IncrementalDiversityCache(TaskPool(tasks, vocab))
        live = {t.task_id: t.vector for t in tasks}
        assert cache.backing_rows == 40
        drop = [f"d{i}" for i in range(25)]
        cache.on_removed(drop)
        for tid in drop:
            live.pop(tid)
        assert cache.compactions == 1
        assert cache.backing_rows == cache.allocated_rows == 15
        self._assert_matches_oracle(cache, live)
        arrivals = [Task(f"d{40 + i}", v) for i, v in enumerate(vectors[40:])]
        cache.on_added(arrivals)
        live.update((t.task_id, t.vector) for t in arrivals)
        assert cache.backing_rows == 35 and cache.allocated_rows >= 35
        self._assert_matches_oracle(cache, live)
        # Growth must carry the survivors' live counts: removing the
        # arrivals now kills only their profiles.
        cache.on_removed([t.task_id for t in arrivals])
        for task in arrivals:
            live.pop(task.task_id)
        assert cache.compactions == 2 and cache.backing_rows == 15
        self._assert_matches_oracle(cache, live)


class TestServiceIntegration:
    def test_cached_service_matches_uncached_run(self, pool, vocab):
        """Same seed, same strategy: the cache must not change assignments."""
        from repro.core import Worker

        config = ServiceConfig(
            x_max=4, n_random_pad=2, reassign_after=3, min_pending=1,
            candidate_cap=None,
        )

        def drive(service):
            events = []
            rng = np.random.default_rng(9)
            for i in range(3):
                worker = Worker(f"w{i}", rng.random(20) < 0.3)
                events.append(service.register_worker(worker, 0.0))
            for _ in range(2):
                for i in range(3):
                    wid = f"w{i}"
                    for tid in service.pending_ids(wid)[:3]:
                        service.observe_completion(wid, tid)
                    event = service.maybe_reassign(wid, 1.0, 1.0)
                    if event is not None:
                        events.append(event)
            return [(e.worker_id, e.task_ids, e.random_pad_ids) for e in events]

        plain = AssignmentService(pool, "hta-gre-rel", config, rng=0)
        cached = AssignmentService(pool, "hta-gre-rel", config, rng=0)
        IncrementalDiversityCache(pool).attach(cached)
        assert drive(plain) == drive(cached)

    def test_attach_subscribes_to_pool_arrivals(self, pool):
        """Admitting tasks through the service grows the attached cache."""
        rng = np.random.default_rng(7)
        service = AssignmentService(pool, "hta-gre-rel", ServiceConfig(), rng=0)
        cache = IncrementalDiversityCache(pool).attach(service)
        arrivals = [Task(f"arr-{i}", rng.random(20) < 0.3) for i in range(3)]
        service.admit_tasks(arrivals)
        assert all(task.task_id in cache for task in arrivals)
        ids = ["t5", "arr-0", "t12", "arr-2"]
        rows = {t.task_id: np.asarray(t.vector, dtype=bool) for t in pool}
        rows.update(
            (t.task_id, np.asarray(t.vector, dtype=bool)) for t in arrivals
        )
        expected = pairwise_jaccard(np.vstack([rows[tid] for tid in ids]))
        assert np.array_equal(carve(cache, ids), expected)
