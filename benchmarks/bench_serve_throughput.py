"""Serving-path performance: daemon throughput and the diversity cache.

Two measurements put the online service boundary on the perf trajectory:

* **daemon throughput** — an in-process daemon on an ephemeral port driven
  by the closed-loop load generator over real sockets; reports requests/sec,
  request latency quantiles, and the daemon's solve-batch latency histogram;
* **incremental diversity cache vs recompute-from-scratch** — per-solve
  pairwise-diversity acquisition on a pool >= 2000 tasks, comparing the
  ``O(k^2 R)`` keyword-matrix recomputation every solve pays today against
  the cache's ``O(k^2)`` submatrix carve.

Both emit one JSON perf record (also written to ``benchmarks/serve_perf.json``
when run standalone: ``python benchmarks/bench_serve_throughput.py``).
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import time

import numpy as np

from repro.core.distance import pairwise_jaccard, take_submatrix
from repro.data import CrowdFlowerConfig, generate_crowdflower_corpus
from repro.serve.cache import IncrementalDiversityCache
from repro.serve.loadgen import LoadgenConfig, run_self_contained

PERF_PATH = pathlib.Path(__file__).parent / "serve_perf.json"

THROUGHPUT_WORKERS = 50
THROUGHPUT_COMPLETIONS = 12
THROUGHPUT_TASKS = 4000

CACHE_POOL_SIZE = 2048
CACHE_ITERATIONS = 6
CACHE_REMOVED_PER_ITERATION = 60


def measure_throughput() -> dict:
    """Drive the daemon with the load generator; return the perf record."""
    result, metrics = asyncio.run(
        run_self_contained(
            LoadgenConfig(
                n_workers=THROUGHPUT_WORKERS,
                completions_per_worker=THROUGHPUT_COMPLETIONS,
                seed=7,
            ),
            n_tasks=THROUGHPUT_TASKS,
        )
    )
    solve = metrics["serve_solve_seconds"]
    record = {
        "benchmark": "serve_throughput",
        "workers": THROUGHPUT_WORKERS,
        "completions": result.completions,
        "requests": result.requests,
        "requests_per_second": round(result.requests_per_second, 2),
        "request_p50_seconds": result.latency["p50"],
        "request_p95_seconds": result.latency["p95"],
        "solve_batches": metrics["serve_solves_total"],
        "solve_p50_seconds": solve["p50"],
        "solve_p95_seconds": solve["p95"],
        "solve_p99_seconds": solve["p99"],
        "mean_batch_size": metrics["serve_solve_batch_size"]["mean"],
        "disjointness_violations": metrics["serve_disjointness_violations_total"],
        "clean": result.clean,
    }
    return record


def measure_cache_speedup() -> dict:
    """Time per-solve diversity acquisition: recompute vs cache carve."""
    corpus = generate_crowdflower_corpus(
        CrowdFlowerConfig(n_tasks=CACHE_POOL_SIZE), rng=11
    )
    pool = corpus.pool
    rng = np.random.default_rng(3)

    build_start = time.perf_counter()
    cache = IncrementalDiversityCache(pool)
    build_seconds = time.perf_counter() - build_start

    alive = [t.task_id for t in pool]
    position = {t.task_id: i for i, t in enumerate(pool)}
    recompute_seconds = 0.0
    carve_seconds = 0.0
    for _ in range(CACHE_ITERATIONS):
        # The candidate set of one solve: everything still in the pool
        # (candidate_cap=None semantics — the worst case for recompute).
        rows = np.fromiter((position[tid] for tid in alive), dtype=np.intp)
        vectors = pool.matrix[rows]

        started = time.perf_counter()
        recomputed = pairwise_jaccard(vectors)
        recompute_seconds += time.perf_counter() - started

        started = time.perf_counter()
        carved = take_submatrix(*cache.submatrix(alive))
        carve_seconds += time.perf_counter() - started

        np.testing.assert_allclose(carved, recomputed)

        drop_idx = rng.choice(len(alive), size=CACHE_REMOVED_PER_ITERATION, replace=False)
        dropped = {alive[int(i)] for i in drop_idx}
        cache.on_removed(list(dropped))
        alive = [tid for tid in alive if tid not in dropped]

    return {
        "benchmark": "diversity_cache",
        "pool_size": CACHE_POOL_SIZE,
        "iterations": CACHE_ITERATIONS,
        "cache_build_seconds": round(build_seconds, 4),
        "recompute_seconds": round(recompute_seconds, 4),
        "cache_carve_seconds": round(carve_seconds, 4),
        "speedup": round(recompute_seconds / max(carve_seconds, 1e-9), 2),
        "amortized_after_solves": round(
            build_seconds
            / max(recompute_seconds / CACHE_ITERATIONS - carve_seconds / CACHE_ITERATIONS, 1e-9),
            2,
        ),
    }


def test_serve_throughput(report):
    record = measure_throughput()
    report("serve throughput:\n" + json.dumps(record, indent=2))
    assert record["clean"]
    assert record["disjointness_violations"] == 0
    assert record["solve_batches"] > 0
    assert record["requests_per_second"] > 0


def test_diversity_cache_speedup(report):
    record = measure_cache_speedup()
    report("diversity cache vs recompute:\n" + json.dumps(record, indent=2))
    assert record["pool_size"] >= 2000
    assert record["speedup"] > 1.0


def main() -> int:
    records = [measure_throughput(), measure_cache_speedup()]
    payload = json.dumps(records, indent=2)
    print(payload)
    PERF_PATH.write_text(payload + "\n")
    print(f"wrote {PERF_PATH}")
    ok = records[0]["clean"] and records[1]["speedup"] > 1.0
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
