"""Hot-path kernels vs their reference implementations.

Times the hot-path kernels against the original implementations they
replaced, on serving-path shapes:

* **Jaccard** — ``pairwise_jaccard`` (one float64 BLAS product per block)
  vs the int64-matmul formula it replaced, kept here as
  :func:`int64_jaccard`, on a pool-sized square matrix and a display-sized
  cross matrix.  Outputs are checked bit-identical (``==``) while timing.
* **LSAP** — ``hungarian`` (the vectorized search) vs the index-array
  reference ``_hungarian_min_reference``, the oracle kept in
  :mod:`repro.matching.lsap`, on a square instance and on the wide
  rectangular shape the serving path solves (a few workers against many
  candidate tasks).  Both run one augmentation per row, so the ratio is
  the bookkeeping win; assignments are checked identical, row for row,
  while timing.
* **Quotient LSAP** — the pipeline's HTA-APP call on a Fig. 2 instance
  (|T|=400 in 20-task groups, |W|=20, x_max=5): ``hungarian`` over
  workers x twin classes, each worker taking x_max columns, vs the
  reference on the expanded 100 x 400 clique rectangle it stands for.
  Values are checked equal while timing.
* **Greedy matching** — ``greedy_matching_dense`` walking keyword-profile
  pairs of the profile matrix (the pipeline's call) vs the same walk with
  ``profile=None`` on the task matrix, which is the task-pair walk it
  replaced, on a Fig. 2 instance (|T|=400
  in 20-task groups, |W|=20, x_max=5).  Tie order differs, so the outputs
  are checked to be matchings, the profile walk's weight at least half the
  task walk's (both are greedy, so both reach half the optimum).

All committed numbers are *speedup ratios* (reference time / kernel time),
so the baseline is machine-portable; each is taken from the unrounded
timings: the minimum of seven samples per side, the sides alternating.
Standalone: ``python benchmarks/bench_kernels.py`` writes
``benchmarks/BENCH_kernels.json``; ``--check BASELINE.json`` re-runs and
fails when any ratio drops below 1.0 (the kernel is slower than its
oracle) or regresses >25% vs the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.core.distance import pairwise_jaccard
from repro.core.qap import build_encoding
from repro.core.solvers import pipeline
from repro.experiments import build_offline_instance
from repro.matching.greedy import greedy_matching_dense, is_matching, matching_weight
from repro.matching.lsap import _hungarian_min_reference, hungarian

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_kernels.json"

JACCARD_SQUARE = (1500, 400)  # (tasks, keywords): pool-scale diversity matrix
JACCARD_CROSS = (40, 1500, 400)  # workers x tasks relevance block
LSAP_SQUARE = 300
LSAP_RECT = (40, 400)  # workers x candidate tasks, the serving-path shape
MATCHING_SHAPE = (400, 20, 20, 5)  # tasks, tasks per group, workers, x_max
MATCHING_CALLS = 20  # walks per timed sample: one walk is ~1 ms
#: Samples per side of a reference/kernel pair, taken alternately, so a
#: slow spell of a shared host hits both sides and the minimum skips it
#: (best-of-3 in a row let one spell cover a ~1 ms kernel's every sample,
#: and gave the second side warm caches).
INTERLEAVED = 7

#: Ratio metrics CI compares against the committed baseline (>25% fails);
#: all are speedups, higher is better.
CHECKED_RATIOS = (
    "jaccard_square_speedup",
    "jaccard_cross_speedup",
    "lsap_square_speedup",
    "lsap_rect_speedup",
    "lsap_quotient_speedup",
    "matching_profile_speedup",
)
REGRESSION_TOLERANCE = 0.25
#: Absolute floor on every checked ratio, whatever the baseline: a kernel
#: that is slower than the oracle it replaced has no reason to exist.  The
#: drift floor alone cannot catch that for baselines near 1 (1.25 x 0.75
#: is 0.94).
MIN_SPEEDUP = 1.0


def _interleaved(reference, kernel, samples: int = INTERLEAVED):
    """Minimum wall time of each side over ``samples`` alternating runs,
    plus each side's last result."""
    best = [float("inf"), float("inf")]
    results = [None, None]
    for _ in range(samples):
        for side, fn in enumerate((reference, kernel)):
            started = time.perf_counter()
            results[side] = fn()
            best[side] = min(best[side], time.perf_counter() - started)
    return best, results


def int64_jaccard(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The reference: intersection counts as one int64 matmul, which numpy
    runs in its own loop (BLAS takes floating-point types only)."""
    intersection = left.astype(np.int64) @ right.astype(np.int64).T
    union = (
        left.sum(axis=1, dtype=np.int64)[:, None]
        + right.sum(axis=1, dtype=np.int64)[None, :]
        - intersection
    )
    out = np.zeros(intersection.shape, dtype=np.float64)
    nonzero = union > 0
    out[nonzero] = 1.0 - intersection[nonzero] / union[nonzero]
    return out


def measure_jaccard() -> dict:
    rng = np.random.default_rng(0)
    n, width = JACCARD_SQUARE
    matrix = rng.random((n, width)) < 0.25

    (int64_s, blas_s), (reference, blas) = _interleaved(
        lambda: int64_jaccard(matrix, matrix), lambda: pairwise_jaccard(matrix)
    )
    assert (blas == reference).all(), "BLAS kernel diverged from int64"

    n_left, n_right, width = JACCARD_CROSS
    left = rng.random((n_left, width)) < 0.25
    right = rng.random((n_right, width)) < 0.25
    (int64_cross_s, blas_cross_s), (reference_cross, blas_cross) = _interleaved(
        lambda: int64_jaccard(left, right), lambda: pairwise_jaccard(left, right)
    )
    assert (blas_cross == reference_cross).all(), "cross kernel diverged"

    return {
        "square_shape": list(JACCARD_SQUARE),
        "square_int64_seconds": int64_s,
        "square_blas_seconds": blas_s,
        "cross_shape": list(JACCARD_CROSS),
        "cross_int64_seconds": int64_cross_s,
        "cross_blas_seconds": blas_cross_s,
        "bit_identical": True,
    }


def measure_lsap() -> dict:
    rng = np.random.default_rng(1)
    square = rng.random((LSAP_SQUARE, LSAP_SQUARE))
    (ref_sq_s, vec_sq_s), (ref_sq, vec_sq) = _interleaved(
        lambda: _hungarian_min_reference(-square), lambda: hungarian(square)
    )
    np.testing.assert_array_equal(vec_sq.row_to_col, ref_sq)

    n_rows, n_cols = LSAP_RECT
    rect = rng.random((n_rows, n_cols))
    (ref_rc_s, vec_rc_s), (ref_rc, vec_rc) = _interleaved(
        lambda: _hungarian_min_reference(-rect), lambda: hungarian(rect)
    )
    np.testing.assert_array_equal(vec_rc.row_to_col, ref_rc)

    return {
        "square_n": LSAP_SQUARE,
        "square_reference_seconds": ref_sq_s,
        "square_vectorized_seconds": vec_sq_s,
        "rect_shape": list(LSAP_RECT),
        "rect_reference_seconds": ref_rc_s,
        "rect_vectorized_seconds": vec_rc_s,
    }


def fig2_quotient_input(seed: int = 3):
    """HTA-APP's LSAP input on a Fig. 2 instance, built as the pipeline
    builds it: per-worker profits over the shuffled tasks, and their twin
    classes."""
    instance = build_offline_instance(*MATCHING_SHAPE, rng=seed)
    encoding = build_encoding(instance)
    rng = np.random.default_rng(seed)
    matching = pipeline._diversity_matching(encoding, "greedy", rng)
    weights = pipeline._matched_edge_weights(encoding, matching)
    order = rng.permutation(encoding.n_vertices)
    profit = np.ascontiguousarray(encoding.profit_matrix(weights)[order].T)
    return profit, encoding.x_max, pipeline.twin_classes(encoding, weights, order)


def measure_quotient() -> dict:
    profit, supply, classes = fig2_quotient_input()
    expanded = np.repeat(profit, supply, axis=0)
    (ref_s, quotient_s), (reference, quotient) = _interleaved(
        lambda: _hungarian_min_reference(-expanded),
        lambda: hungarian(profit, supply, classes),
    )
    optimum = expanded[np.arange(len(expanded)), reference].sum()
    assert abs(quotient.value - optimum) <= 1e-9 * max(1.0, abs(optimum)), (
        "quotient solve missed the expanded optimum"
    )
    return {
        "shape": list(expanded.shape),
        "classes": int(classes.max()) + 1,
        "expanded_reference_seconds": ref_s,
        "quotient_seconds": quotient_s,
    }


def measure_matching() -> dict:
    instance = build_offline_instance(*MATCHING_SHAPE, rng=2)
    # The task walk reads the task matrix, the profile walk the profile pair.
    weights, (profiles, profile) = instance.diversity, instance.profile_pair

    def walks(matrix, labels):
        return [greedy_matching_dense(matrix, labels) for _ in range(MATCHING_CALLS)][-1]

    (task_s, profile_s), (task_walk, profile_walk) = _interleaved(
        lambda: walks(weights, None), lambda: walks(profiles, profile)
    )
    assert is_matching(task_walk) and is_matching(profile_walk)
    assert matching_weight(weights, profile_walk) >= 0.5 * matching_weight(
        weights, task_walk
    ), "profile walk fell below half the task walk"
    return {
        "shape": list(MATCHING_SHAPE),
        "profiles": int(profile.max()) + 1,
        "task_walk_seconds": task_s / MATCHING_CALLS,
        "profile_walk_seconds": profile_s / MATCHING_CALLS,
    }


def _speedup(reference_s: float, kernel_s: float) -> float:
    return round(reference_s / max(kernel_s, 1e-9), 2)


def _rounded(timings: dict) -> dict:
    return {
        key: round(value, 4) if key.endswith("_seconds") else value
        for key, value in timings.items()
    }


def measure() -> dict:
    jaccard = measure_jaccard()
    lsap = measure_lsap()
    quotient = measure_quotient()
    matching = measure_matching()
    return {
        "benchmark": "perf_kernels",
        "jaccard": _rounded(jaccard),
        "lsap": _rounded(lsap),
        "lsap_quotient": _rounded(quotient),
        "matching": {
            key: round(value, 6) if key.endswith("_seconds") else value
            for key, value in matching.items()
        },
        "jaccard_square_speedup": _speedup(
            jaccard["square_int64_seconds"], jaccard["square_blas_seconds"]
        ),
        "jaccard_cross_speedup": _speedup(
            jaccard["cross_int64_seconds"], jaccard["cross_blas_seconds"]
        ),
        "lsap_square_speedup": _speedup(
            lsap["square_reference_seconds"], lsap["square_vectorized_seconds"]
        ),
        "lsap_rect_speedup": _speedup(
            lsap["rect_reference_seconds"], lsap["rect_vectorized_seconds"]
        ),
        "lsap_quotient_speedup": _speedup(
            quotient["expanded_reference_seconds"], quotient["quotient_seconds"]
        ),
        "matching_profile_speedup": _speedup(
            matching["task_walk_seconds"], matching["profile_walk_seconds"]
        ),
    }


def check_against_baseline(record: dict, baseline: dict) -> list[str]:
    failures = []
    for name in CHECKED_RATIOS:
        current = record[name]
        # Speedups beyond ~50x have a sub-millisecond denominator, so timer
        # resolution dominates run-to-run variance; give those 2x slack
        # instead of the usual 25%.
        tolerance = 0.5 if baseline[name] > 50 else REGRESSION_TOLERANCE
        floor = baseline[name] * (1.0 - tolerance)
        if current < floor:
            failures.append(
                f"{name}: {current} fell below {floor:.3f} (baseline "
                f"{baseline[name]}, tolerance {tolerance:.0%})"
            )
        if current < MIN_SPEEDUP:
            failures.append(
                f"{name}: {current} < {MIN_SPEEDUP}: the kernel is slower "
                f"than its reference"
            )
    return failures


def test_kernels_beat_references(report):
    record = measure()
    report("perf kernels vs references:\n" + json.dumps(record, indent=2))
    assert record["jaccard"]["bit_identical"]
    assert record["jaccard_square_speedup"] > 1.0
    assert record["lsap_rect_speedup"] > 1.0
    assert record["lsap_quotient_speedup"] > 1.0
    assert record["matching_profile_speedup"] > 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        metavar="BASELINE.json",
        help="compare speedup ratios against a committed baseline instead "
        "of writing a new one; exits 1 when a ratio is below 1.0 or "
        "regresses >25%%",
    )
    args = parser.parse_args(argv)

    record = measure()
    print(json.dumps(record, indent=2))
    if args.check:
        baseline = json.loads(pathlib.Path(args.check).read_text())
        failures = check_against_baseline(record, baseline)
        for line in failures:
            print(f"REGRESSION {line}", file=sys.stderr)
        print("perf check:", "FAIL" if failures else "OK")
        return 1 if failures else 0

    BASELINE_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {BASELINE_PATH}")
    return 0 if record["jaccard_square_speedup"] > 1.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
