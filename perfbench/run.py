"""The repository benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The workloads, their daemon flags, rates and reasons live in
``perfbench/workloads.json``; metric names and units come from
``BENCHMARK.json``.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs an untraced pass and then a traced one with the same
seed and reports the per-layer metrics, the tracing overhead, the
cross-checks against the program's own timers, and the layer budget.

Human-readable report lines come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A
run that fails any correctness check prints ``correct: false`` with no
metrics and exits 1.  The full result is also written to
``.perfbench/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: Per-layer metrics of layers a workload never runs: they read zero.
SERVE_ONLY_LAYERS = ("cache.", "scheduler.", "service.", "http.", "journal.",
                     "snapshot.", "quality.")


def load_program() -> None:
    """Put ``src/`` of the checkout on the path and import the program."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"perfbench: no program at {src}/repro; run from a checkout root")
    sys.path.insert(0, src)
    import repro  # noqa: F401


def emit(result: dict, spec: dict, trace: bool, workload: dict) -> dict:
    """The metrics block of the final line, named and unit-tagged as in
    BENCHMARK.json."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["per_layer"] if trace else result["e2e"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        value = values.get(name)
        if value is None and trace and workload["kind"] == "offline" and name.startswith(SERVE_ONLY_LAYERS):
            value = 0.0
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"metric {name} was not measured")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def print_report(name: str, result: dict) -> None:
    print(f"== perfbench {name}")
    for phase in result.get("phases", []):
        print("phase " + json.dumps(phase))
    untraced = result.get("untraced")
    if untraced is not None:
        print("untraced e2e " + json.dumps(untraced["e2e"]))
    print("e2e " + json.dumps(result["e2e"]))
    print("report " + json.dumps(result["report"]))
    if "overhead" in result:
        print("tracing overhead (traced / untraced - 1) " + json.dumps(result["overhead"]))
    if "budget" in result:
        print("layer budget " + json.dumps(result["budget"]))
    if "per_layer" in result:
        print("per_layer " + json.dumps(result["per_layer"]))
    for note in result.get("notes", []):
        print(f"note: {note}")
    for check, ok in result["checks"].items():
        print(f"check {'PASS' if ok else 'FAIL'}: {check}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(HERE, "workloads.json")) as fh:
        workloads = json.load(fh)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in workloads or args.workload == "layer_map":
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads[args.workload]
    load_program()

    out_dir = os.path.join(os.getcwd(), ".perfbench")
    run_dir = os.path.join(out_dir, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    trace = bool(args.trace)
    if workload["kind"] == "offline":
        import offline

        result = offline.run(workload, args.seed, args.seconds, trace)
    else:
        import serving

        result = serving.run(workload, args.seed, args.seconds, trace, run_dir)
    shutil.rmtree(run_dir, ignore_errors=True)

    correct = all(result["checks"].values())
    print_report(args.workload, result)
    final = {"correct": correct, "attempted": result["attempted"],
             "failed": result["failed"],
             "metrics": emit(result, spec, trace, workload) if correct else {}}
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({**{k: v for k, v in result.items() if k != "untraced"}, "final": final},
                  fh, indent=1, default=str)
    print(json.dumps(final))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
