"""Command-line interface: ``repro-hta`` (or ``python -m repro``).

Subcommands:

* ``solve`` — generate a synthetic instance and run a solver on it;
* ``diagnose`` — lint a synthetic instance (degeneracy findings);
* ``offline`` — run one of the offline sweeps (fig2a, fig2b, fig2c, fig3);
* ``online`` — run the Fig. 5 online experiment and print curves + tests;
* ``teams`` — team formation for collaborative tasks (future-work demo);
* ``report`` — run every experiment and write a markdown report;
* ``serve`` — run the online assignment daemon (JSON over HTTP);
* ``replay`` — re-drive a recorded serve journal and check bit-identity;
* ``solvers`` — list registered solvers.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis.ascii_plot import ascii_plot
from .analysis.tables import format_series, format_table
from .core.solvers import get_solver, solver_names
from .experiments.config import OfflineScale, OnlineScale
from .experiments.offline import (
    ROW_HEADERS,
    build_offline_instance,
    sweep_groups,
    sweep_tasks,
    sweep_workers,
)
from .experiments.online import run_online_experiment


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.handler(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hta",
        description="Motivation-aware task assignment (ICDE 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    p_solvers = sub.add_parser("solvers", help="list registered solvers")
    p_solvers.set_defaults(handler=_cmd_solvers)

    p_solve = sub.add_parser("solve", help="solve one synthetic instance")
    p_solve.add_argument("--tasks", type=int, default=200)
    p_solve.add_argument("--workers", type=int, default=10)
    p_solve.add_argument("--x-max", type=int, default=5)
    p_solve.add_argument("--tasks-per-group", type=int, default=20)
    p_solve.add_argument("--solver", default="hta-gre", choices=solver_names())
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.set_defaults(handler=_cmd_solve)

    p_diag = sub.add_parser("diagnose", help="lint a synthetic instance")
    p_diag.add_argument("--tasks", type=int, default=200)
    p_diag.add_argument("--workers", type=int, default=10)
    p_diag.add_argument("--x-max", type=int, default=5)
    p_diag.add_argument("--tasks-per-group", type=int, default=20)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.set_defaults(handler=_cmd_diagnose)

    p_off = sub.add_parser("offline", help="run an offline sweep")
    p_off.add_argument(
        "figure", choices=["fig2a", "fig2b", "fig2c", "fig3"],
        help="which paper figure to regenerate",
    )
    p_off.add_argument("--seed", type=int, default=0)
    p_off.add_argument("--repeats", type=int, default=None)
    p_off.set_defaults(handler=_cmd_offline)

    p_on = sub.add_parser("online", help="run the Fig. 5 online experiment")
    p_on.add_argument("--sessions", type=int, default=None)
    p_on.add_argument("--corpus-size", type=int, default=None)
    p_on.add_argument("--seed", type=int, default=0)
    p_on.add_argument(
        "--plot", action="store_true", help="render ASCII charts of the curves"
    )
    p_on.set_defaults(handler=_cmd_online)

    p_teams = sub.add_parser(
        "teams", help="team formation for collaborative tasks (future-work demo)"
    )
    p_teams.add_argument("--tasks", type=int, default=3)
    p_teams.add_argument("--team-size", type=int, default=3)
    p_teams.add_argument("--workers", type=int, default=12)
    p_teams.add_argument("--seed", type=int, default=0)
    p_teams.set_defaults(handler=_cmd_teams)

    p_report = sub.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    p_report.add_argument("--out", default="reproduction_report.md")
    p_report.add_argument("--db", default=None,
                          help="also persist measurements to this SQLite file")
    p_report.add_argument("--fast", action="store_true",
                          help="reduced scale (seconds instead of minutes)")
    p_report.add_argument("--figures-dir", default=None,
                          help="also write each figure as an SVG into this directory")
    p_report.add_argument("--seed", type=int, default=0)
    p_report.set_defaults(handler=_cmd_report)

    p_serve = sub.add_parser(
        "serve", help="run the online assignment daemon (see docs/SERVING.md)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument("--tasks", type=int, default=2000,
                         help="synthetic corpus size to serve")
    p_serve.add_argument("--strategy", default="hta-gre", choices=solver_names())
    p_serve.add_argument("--x-max", type=int, default=15)
    p_serve.add_argument("--random-pad", type=int, default=5)
    p_serve.add_argument("--reassign-after", type=int, default=8)
    p_serve.add_argument("--min-pending", type=int, default=3)
    p_serve.add_argument("--candidate-cap", type=int, default=400,
                         help="solver shortlist size; 0 disables shortlisting")
    p_serve.add_argument("--batch-delay-ms", type=float, default=50.0,
                         help="solve micro-batch coalescing window")
    p_serve.add_argument("--max-batch-size", type=int, default=64)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--request-deadline", type=float, default=2.0,
                         help="seconds a /complete may wait on a solve before "
                              "answering with the stale display")
    p_serve.add_argument("--solve-budget", type=float, default=0.5,
                         help="target seconds per batched solve; sustained "
                              "breaches degrade the solver tier")
    p_serve.add_argument("--fault-plan", default=None, metavar="PLAN.json",
                         help="inject deterministic faults from a JSON fault "
                              "plan (see docs/SERVING.md)")
    p_serve.add_argument("--snapshot-path", default=None, metavar="FILE.db",
                         help="persist crash-safe state snapshots to this "
                              "SQLite file")
    p_serve.add_argument("--snapshot-every", type=int, default=20,
                         help="solve batches between automatic snapshots")
    p_serve.add_argument("--restore", action="store_true",
                         help="resume from the latest snapshot in "
                              "--snapshot-path before serving")
    p_serve.add_argument("--trace-file", default=None, metavar="TRACE.jsonl",
                         help="append one JSON line per sampled request trace "
                              "(aggregate with `repro trace summarize`)")
    p_serve.add_argument("--trace-sample-rate", type=float, default=0.0,
                         help="fraction of requests to trace, in [0, 1] "
                              "(0 disables tracing, 1 traces everything)")
    p_serve.add_argument("--journal", default=None, metavar="JOURNAL.jsonl",
                         help="record a deterministic flight journal of every "
                              "request and solve (replay it with "
                              "`repro replay`)")
    p_serve.add_argument("--gold-rate", type=float, default=0.0,
                         help="per-display probability of injecting a gold "
                              "question into each worker's assignment "
                              "(0 disables the quality subsystem's gold path)")
    p_serve.add_argument("--redundancy", type=int, default=1,
                         help="answers to collect per task before "
                              "adjudicating (1 disables redundancy)")
    p_serve.add_argument("--reputation-weight", type=float, default=0.0,
                         help="blend factor in [0, 1] scaling the relevance "
                              "term by worker reputation (0 keeps the seed "
                              "assignment behaviour bit-identical)")
    p_serve.add_argument("--quality-seed", type=int, default=0,
                         help="seed for gold-bank selection and probe "
                              "injection decisions")
    p_serve.add_argument("--answer-labels", type=int, default=4,
                         help="size of the categorical answer space used for "
                              "gold truth labels (>= 2)")
    p_serve.set_defaults(handler=_cmd_serve)

    p_replay = sub.add_parser(
        "replay",
        help="re-drive a recorded serve journal and check bit-identity",
    )
    p_replay.add_argument("journal", help="JSONL journal written by "
                                          "`repro serve --journal`")
    p_replay.add_argument("--pin-tier", default=None, choices=solver_names(),
                          help="also replay with every solve pinned to this "
                               "degradation-ladder tier (a diagnostic; its "
                               "divergence is reported but not fatal)")
    p_replay.set_defaults(handler=_cmd_replay)

    p_trace = sub.add_parser(
        "trace", help="work with request trace files (see docs/SERVING.md)"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_summarize = trace_sub.add_parser(
        "summarize", help="per-stage latency breakdown of a JSONL trace file"
    )
    p_summarize.add_argument("file", help="JSONL trace file written by "
                                          "`repro serve --trace-file`")
    p_summarize.add_argument("--strict", action="store_true",
                             help="exit non-zero when the file is empty or "
                                  "any root span never closed (trace leak)")
    p_summarize.set_defaults(handler=_cmd_trace_summarize)
    return parser


def _cmd_solvers(args: argparse.Namespace) -> int:
    for name in solver_names():
        print(name)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = build_offline_instance(
        args.tasks, args.tasks_per_group, args.workers, args.x_max, rng=args.seed
    )
    solver = get_solver(args.solver)
    result = solver.solve(instance, rng=args.seed)
    print(instance.describe())
    print(f"solver    : {args.solver}")
    print(f"objective : {result.objective:.4f}")
    print(f"assigned  : {result.assignment.size()} tasks")
    for phase, seconds in sorted(result.timings.items()):
        print(f"time[{phase}] : {seconds * 1e3:.2f} ms")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from .validate import diagnose, has_blockers

    instance = build_offline_instance(
        args.tasks, args.tasks_per_group, args.workers, args.x_max, rng=args.seed
    )
    print(instance.describe())
    findings = diagnose(instance)
    if not findings:
        print("no findings: the instance looks healthy")
        return 0
    for finding in findings:
        print(f"[{finding.severity:7s}] {finding.code}: {finding.message}")
    return 1 if has_blockers(findings) else 0


def _cmd_offline(args: argparse.Namespace) -> int:
    scale = OfflineScale()
    repeats = args.repeats if args.repeats is not None else scale.n_repeats
    if args.figure in ("fig2a", "fig2b"):
        points = sweep_tasks(
            scale.task_sweep, scale.tasks_per_group, scale.n_workers,
            scale.x_max, n_repeats=repeats, rng=args.seed,
        )
    elif args.figure == "fig2c":
        points = sweep_workers(
            scale.worker_sweep, scale.n_tasks_for_worker_sweep,
            scale.tasks_per_group, scale.x_max, n_repeats=repeats, rng=args.seed,
        )
    else:
        points = sweep_groups(
            scale.group_sweep, scale.n_tasks_for_group_sweep, scale.n_workers,
            scale.x_max, n_repeats=repeats, rng=args.seed,
        )
    print(format_table(ROW_HEADERS, [p.row() for p in points], title=args.figure))
    return 0


def _cmd_online(args: argparse.Namespace) -> int:
    scale = OnlineScale()
    overrides = {}
    if args.sessions is not None:
        overrides["n_sessions"] = args.sessions
    if args.corpus_size is not None:
        overrides["corpus_size"] = args.corpus_size
    if overrides:
        from dataclasses import replace

        scale = replace(scale, **overrides)
    result = run_online_experiment(scale=scale, rng=args.seed)
    for strategy, outcome in result.outcomes.items():
        print(f"== {strategy} ==")
        for key, value in outcome.summary.items():
            print(f"  {key}: {value:.2f}")
    minutes = list(range(0, 31, 5))
    for metric in ("quality", "throughput", "retention"):
        series = {
            strategy: [getattr(o, metric).at(m) for m in minutes]
            for strategy, o in result.outcomes.items()
        }
        print(format_series("minute", series, minutes, title=f"Fig.5 {metric}"))
        if args.plot:
            print(ascii_plot(series, title=f"Fig.5 {metric} (x = minutes)"))
    print("significance tests:")
    for name, test in result.significance.items():
        print(f"  {name}: p={test.p_value:.4f}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import ReportConfig, generate_report

    if args.fast:
        config = ReportConfig.fast(
            seed=args.seed, store_path=args.db, figures_dir=args.figures_dir
        )
    else:
        config = ReportConfig(
            seed=args.seed, store_path=args.db, figures_dir=args.figures_dir
        )
    text = generate_report(config)
    from pathlib import Path

    Path(args.out).write_text(text)
    print(f"wrote {args.out} ({len(text.splitlines())} lines)")
    if args.db:
        print(f"measurements stored in {args.db}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .crowd.service import ServiceConfig
    from .data import CrowdFlowerConfig, generate_crowdflower_corpus
    from .serve import FaultPlan, ResilienceConfig, ServeConfig, run_daemon

    corpus = generate_crowdflower_corpus(
        CrowdFlowerConfig(n_tasks=args.tasks), rng=args.seed
    )
    fault_plan = FaultPlan.from_file(args.fault_plan) if args.fault_plan else None
    if args.restore and not args.snapshot_path:
        print("--restore requires --snapshot-path", file=sys.stderr)
        return 2
    quality = None
    if args.gold_rate > 0 or args.redundancy > 1:
        from .quality import AdjudicationConfig, GoldConfig, QualityConfig

        quality = QualityConfig(
            gold=GoldConfig(
                rate=args.gold_rate,
                seed=args.quality_seed,
                n_labels=max(2, args.answer_labels),
            ),
            adjudication=AdjudicationConfig(redundancy=args.redundancy),
        )
    corpus_spec = {
        "kind": "crowdflower", "n_tasks": args.tasks, "seed": args.seed,
    }
    pool = corpus.pool
    config = ServeConfig(
        host=args.host,
        port=args.port,
        strategy=args.strategy,
        service=ServiceConfig(
            x_max=args.x_max,
            n_random_pad=args.random_pad,
            reassign_after=args.reassign_after,
            min_pending=args.min_pending,
            candidate_cap=args.candidate_cap or None,
            reputation_weight=args.reputation_weight,
        ),
        quality=quality,
        max_batch_delay=args.batch_delay_ms / 1000.0,
        max_batch_size=args.max_batch_size,
        seed=args.seed,
        resilience=ResilienceConfig(
            request_deadline=args.request_deadline,
            solve_budget=args.solve_budget,
        ),
        fault_plan=fault_plan,
        snapshot_path=args.snapshot_path,
        snapshot_every=args.snapshot_every,
        restore=args.restore,
        trace_file=args.trace_file,
        trace_sample_rate=args.trace_sample_rate,
        journal_path=args.journal,
        corpus_spec=corpus_spec,
    )
    if fault_plan is not None:
        print(f"fault injection active: {fault_plan.to_dict()}")
    print(
        f"serving {len(pool)} tasks with {args.strategy} "
        f"on http://{args.host}:{args.port} (Ctrl-C to stop)"
    )
    try:
        asyncio.run(run_daemon(pool, config))
    except KeyboardInterrupt:
        print("daemon stopped")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .serve.replay import (
        ReplayError,
        ReplayVariant,
        load_journal,
        pool_from_corpus_spec,
        replay_journal,
    )

    path = Path(args.journal)
    if not path.exists():
        print(f"no such journal: {path}", file=sys.stderr)
        return 2
    try:
        journal = load_journal(path)
    except ReplayError as exc:
        # load_journal's messages begin with the journal's path.
        print(f"cannot replay {exc}", file=sys.stderr)
        return 2
    variants = [ReplayVariant()]
    if args.pin_tier is not None:
        variants.append(
            ReplayVariant(f"pin:{args.pin_tier}", pinned_solver=args.pin_tier)
        )
    try:
        pool = pool_from_corpus_spec(journal.corpus_spec)
        reports = [replay_journal(journal, pool, variant) for variant in variants]
    except ReplayError as exc:
        print(f"cannot replay {path}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
    # A pinned tier diverging from an adaptively-recorded run is the
    # diagnostic, not a failure; every other variant must match.
    failed = [
        r for r in reports if not r.ok and not r.variant.startswith("pin:")
    ]
    for report in failed:
        print(
            f"divergence [{report.variant}]: {report.divergence.describe()}"
            if report.divergence is not None
            else f"divergence [{report.variant}]: "
                 f"{report.disjointness_violations} disjointness violation(s)",
            file=sys.stderr,
        )
    return 1 if failed else 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .serve.tracing import SUMMARY_HEADERS, summarize_trace_file

    path = Path(args.file)
    if not path.exists():
        print(f"no such trace file: {path}", file=sys.stderr)
        return 2
    summary = summarize_trace_file(path)
    if summary.n_traces == 0:
        print(f"{path}: no traces (empty file)")
        return 1 if args.strict else 0
    print(format_table(
        SUMMARY_HEADERS, summary.rows, title=f"per-stage latency · {path.name}"
    ))
    print(
        f"traces: {summary.n_traces}  spans: {summary.n_spans}  "
        f"unclosed roots: {summary.n_unclosed}"
    )
    if args.strict and not summary.clean:
        print(
            f"trace leak: {summary.n_unclosed} root span(s) never closed",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_teams(args: argparse.Namespace) -> int:
    from .data import (
        CrowdFlowerConfig,
        generate_crowdflower_corpus,
        generate_online_workers,
    )
    from .teams import (
        TeamInstance,
        collaborative_tasks_from_pool,
        greedy_teams,
        random_teams,
    )

    corpus = generate_crowdflower_corpus(
        CrowdFlowerConfig(n_tasks=max(args.tasks * 10, 40)), rng=args.seed
    )
    workers = generate_online_workers(args.workers, rng=args.seed + 1)
    tasks = collaborative_tasks_from_pool(
        list(corpus.pool)[: args.tasks], args.team_size
    )
    instance = TeamInstance(tasks, workers)
    greedy = greedy_teams(instance)
    random_baseline = random_teams(instance, rng=args.seed)
    print(f"greedy objective : {greedy.objective(instance):.4f}")
    print(f"random objective : {random_baseline.objective(instance):.4f}")
    for task_id, members in greedy.by_task.items():
        print(f"  {task_id}: {', '.join(members)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
