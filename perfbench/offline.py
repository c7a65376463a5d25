"""The ``offline-fig2`` workload: the paper's Fig. 2 solves, in process.

Set-up generates a seeded list of AMT-style task pools and worker pools at
the Fig. 2 shape (1/10 scale).  The measured loop then alternates HTA-APP
and HTA-GRE, each solve on a freshly built ``HTAInstance`` so its
diversity and relevance matrices are computed inside the timed call, as a
first solve of a new problem pays them.  After the loop every assignment
is validated (C1/C2) and its literal Eq. 8 QAP objective is compared with
the HTA objective the solver reported.

The gated times are normalized by :mod:`probe`, run right before every
set-up and every instance: each step's time over the probe's, times
``probe.NOMINAL_S``.  The raw times are in the report.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import probe
import spans as spanlib
from serving import (generator_metrics, solver_cross_checks, solver_layer_metrics,
                     tracing_overhead)
from stats import mean, percentile


def build_inputs(shape: dict, seed: int, n_instances: int):
    from repro.data import AMTConfig, generate_amt_pool
    from repro.data.workers import generate_offline_workers

    inputs = []
    for i in range(n_instances):
        rng = np.random.default_rng([seed, 10, i])
        pool = generate_amt_pool(
            AMTConfig(
                n_groups=shape["n_tasks"] // shape["tasks_per_group"],
                tasks_per_group=shape["tasks_per_group"],
            ),
            rng=rng,
        )
        workers = generate_offline_workers(shape["n_workers"], pool.vocabulary, rng=rng)
        inputs.append((pool, workers))
    return inputs


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def solve_loop(cfg: dict, inputs, seed: int, seconds: float):
    """Alternate the solvers for ``seconds`` (and at least one pass over
    the instance list); returns one record per solve."""
    from repro.core.instance import HTAInstance
    from repro.core.solvers import get_solver

    solvers = [get_solver(name) for name in cfg["solvers"]]
    x_max = cfg["shape"]["x_max"]
    records = []
    minimum = len(inputs) * len(solvers)
    deadline = time.perf_counter() + seconds
    k = 0
    while k < minimum or time.perf_counter() < deadline or k % len(solvers):
        index = (k // len(solvers)) % len(inputs)
        which = k % len(solvers)
        if which == 0:
            probe_s = probe.run()
        pool, workers = inputs[index]
        rng = np.random.default_rng([seed, 11, index, which])
        started, cpu_started = time.perf_counter(), time.process_time()
        try:
            instance = HTAInstance(pool, workers, x_max)
            result = solvers[which].solve(instance, rng)
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed solve is counted
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        records.append({"index": index, "solver": solvers[which].name,
                        "seconds": elapsed, "cpu_s": time.process_time() - cpu_started,
                        "probe_s": probe_s, "result": result, "error": error})
        k += 1
    return records


def check(cfg: dict, inputs, records) -> dict:
    """C1/C2 validity and Eq. 8 (QAP objective == HTA objective)."""
    from repro.core.instance import HTAInstance
    from repro.core.qap import build_encoding

    x_max = cfg["shape"]["x_max"]
    invalid = mismatched = 0
    for record in records:
        result = record["result"]
        if result is None:
            continue
        pool, workers = inputs[record["index"]]
        instance = HTAInstance(pool, workers, x_max)
        try:
            result.assignment.validate(instance)
        except Exception:  # noqa: BLE001
            invalid += 1
            continue
        encoding = build_encoding(instance)
        permutation = np.full(encoding.n_vertices, -1, dtype=np.intp)
        for q, tasks in enumerate(result.assignment.indices(instance)):
            for slot, task in enumerate(tasks):
                permutation[task] = q * x_max + slot
        free = iter(sorted(set(range(encoding.n_vertices)) - set(permutation.tolist())))
        for row in np.flatnonzero(permutation < 0):
            permutation[row] = next(free)
        hta = result.assignment.objective(instance)
        qap = encoding.objective_dense(permutation)
        if not (math.isclose(qap, hta, rel_tol=1e-9, abs_tol=1e-9)
                and math.isclose(result.objective, hta, rel_tol=1e-9, abs_tol=1e-9)):
            mismatched += 1
    failed = sum(r["error"] is not None for r in records)
    return {
        "every assignment validates (C1/C2)": invalid == 0,
        "QAP objective (Eq. 8) equals the HTA objective": mismatched == 0,
        "every solve completed without error": failed == 0,
    }


def summarize(cfg: dict, setups, records, rss_mb: float) -> dict:
    ok = [r for r in records if r["result"] is not None]
    report = {}
    first_pass = len(cfg["solvers"]) * cfg["instances"]
    for name in cfg["solvers"]:
        mine = [r for r in ok if r["solver"] == name]
        key = name.replace("-", "_")
        busy = sum(r["seconds"] for r in mine)
        report[f"{key}.solves_per_s"] = len(mine) / busy if busy else None
        report[f"{key}.objective_mean"] = mean(
            r["result"].objective for r in records[:first_pass]
            if r["solver"] == name and r["result"] is not None)
        report[f"{key}.solves"] = len(mine)
    failed = len(records) - len(ok)
    report["failed_share"] = failed / len(records)
    report["assign_s.mean"] = mean(r["seconds"] for r in ok)
    # One operation is one instance assigned by every solver (a Fig. 2
    # point); records come in consecutive per-instance groups.
    n = len(cfg["solvers"])
    groups = [records[i:i + n] for i in range(0, len(records) - n + 1, n)]
    whole = [g for g in groups if all(r["result"] is not None for r in g)]
    report["instance_s"] = [sum(r["seconds"] for r in g) for g in whole]
    report["raw"] = {
        "setup_s": statistics.median(s for s, _ in setups),
        "assign_s.p50": percentile(report["instance_s"], 50),
        "cpu_ms.per_op": 1000.0 * sum(r["cpu_s"] for g in whole for r in g) / max(1, len(whole)),
    }
    report["probe_s.median"] = statistics.median(g[0]["probe_s"][0] for g in whole) if whole else None
    # Each step over the probe run just before it (wall over wall, CPU over CPU).
    assign = percentile([sum(r["seconds"] for r in g) / g[0]["probe_s"][0] for g in whole], 50)
    cpu = mean(sum(r["cpu_s"] for r in g) / g[0]["probe_s"][1] for g in whole)
    scale = probe.NOMINAL_S
    return {
        "e2e": {
            "setup_s": scale * statistics.median(s / p for s, p in setups),
            "rss_mb": rss_mb,
            "assign_s.p50": None if assign is None else scale * assign,
            "cpu_ms.per_op": None if cpu is None else 1000.0 * scale * cpu,
        },
        "report": report,
        "attempted": len(records),
        "failed": failed,
    }


def one_pass(cfg: dict, seed: int, seconds: float, repeats: int, recorder=None):
    """Set up ``repeats`` times, half before and half after the solve loop,
    so the set-up median samples the machine at two moments."""
    setups = []

    def setup():
        probe_wall, _ = probe.run()
        started = time.perf_counter()
        inputs = build_inputs(cfg["shape"], seed, cfg["instances"])
        setups.append((time.perf_counter() - started, probe_wall))
        return inputs

    probe.run()  # warm-up
    after = repeats // 2
    for _ in range(repeats - after):
        inputs = setup()
    records = solve_loop(cfg, inputs, seed, seconds)
    for _ in range(after):
        setup()
    # Read the trace before the checks, which call the wrapped layers too.
    trace = None
    if recorder is not None:
        trace = (spanlib.layer_table(recorder.spans), dict(recorder.counts),
                 {k: list(v) for k, v in recorder.samples.items()})
    summary = summarize(cfg, setups, records, peak_rss_mb())
    summary["checks"] = check(cfg, inputs, records)
    return summary, records, trace


def run(cfg: dict, seed: int, seconds: float, trace: bool) -> dict:
    if not trace:
        summary, _, _ = one_pass(cfg, seed, seconds, cfg["setup_repeats"])
        return summary
    plain, _, _ = one_pass(cfg, seed, seconds, 1)
    recorder = spanlib.Recorder()
    spanlib.install_solver_layers(recorder)
    traced, records, (table, counts, samples) = one_pass(cfg, seed, seconds, 1, recorder)
    layers = solver_layer_metrics(table, counts)
    ok = [r for r in records if r["result"] is not None]
    layers.update(generator_metrics([]))
    layers.update({
        "gen.sent": float(len(records)),
        "gen.ok": float(len(ok)),
        "gen.failed": float(len(records) - len(ok)),
    })
    measured = sum(r["seconds"] for r in ok)
    layers["budget.assign_coverage"] = layers["solve.busy_s"] / measured if measured else 0.0
    checks = {**plain["checks"], **{f"traced: {k}": v for k, v in traced["checks"].items()}}
    checks.update({f"cross-check: {k}": v
                   for k, v in solver_cross_checks(table, samples).items()})
    overhead = tracing_overhead(plain["e2e"], traced["e2e"])
    return {
        **traced,
        "per_layer": layers,
        "checks": checks,
        "overhead": overhead,
        "untraced": plain,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
    }
