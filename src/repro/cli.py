"""Command-line interface: explore the reproduction without writing code.

Subcommands
-----------
``generate``    build the synthetic DMV data set and print its Table 1
``query``       run one SQL statement against a DMV database, comparing
                static and adaptive execution
``stats``       per-table storage footprint of a DMV database
``shell``       interactive SQL shell over a DMV database
``serve``       concurrent multi-client query server (NDJSON over TCP)
``replay``      reconstruct a recorded query's adaptation timeline offline
``telemetry``   aggregate a telemetry directory into per-template analytics
``experiment``  run one of the paper's experiments and print its report

Examples::

    python -m repro generate --scale 0.05
    python -m repro serve --scale 0.05 --port 7654 --telemetry-dir telem/
    python -m repro query --scale 0.05 "SELECT COUNT(*) FROM Car c WHERE c.make = 'Mazda'"
    python -m repro query --scale 0.05 --backend columnar "SELECT ..."
    python -m repro stats --scale 0.05 --backend columnar
    python -m repro query --scale 0.02 --extended --telemetry-dir telem/ "SELECT ..."
    python -m repro replay --telemetry-dir telem/ --latest
    python -m repro replay --telemetry-dir telem/ --diff q-...-1 q-...-2
    python -m repro telemetry --telemetry-dir telem/
    python -m repro experiment fig7 --scale 0.05 --queries 10
    python -m repro shell --scale 0.02
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import (
    learned_experiment,
    overhead_experiment,
    scatter_experiment,
    table1_experiment,
    template_ratio_experiment,
    window_sweep_experiment,
)
from repro.core.config import AdaptiveConfig, ReorderMode
from repro.db import Database
from repro.dmv import four_table_workload, load_dmv, six_table_workload
from repro.errors import BudgetExceeded, ReproError
from repro.obs import QueryObservability, render_explain_analyze
from repro.optimizer.plancache import DEFAULT_CAPACITY
from repro.robustness.faults import FaultPlan
from repro.robustness.limits import ExecutionLimits


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=0.05,
        help="DMV scale factor; 1.0 = the paper's 100K owners (default 0.05)",
    )
    parser.add_argument("--seed", type=int, default=20070426)
    parser.add_argument(
        "--extended",
        action="store_true",
        help="include the Location/Time extension tables (Sec 5.5)",
    )
    parser.add_argument(
        "--backend",
        choices=["row", "columnar"],
        default="row",
        help="storage backend: reference row store or typed columnar "
        "arrays with compiled predicates (default: row)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Adaptively Reordering Joins during "
        "Query Execution' (ICDE 2007)",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="FILE",
        help="profile the whole command under cProfile and dump pstats "
        "data to FILE (inspect with `python -m pstats FILE`)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="build the DMV data set")
    _add_scale(generate)

    query = commands.add_parser("query", help="run one SQL statement")
    _add_scale(query)
    query.add_argument("sql", help="the SQL statement to run")
    query.add_argument(
        "--mode",
        choices=[mode.value for mode in ReorderMode],
        default=ReorderMode.BOTH.value,
        help="reordering mode for the adaptive run (default: both)",
    )
    query.add_argument(
        "--explain", action="store_true", help="print the static plan"
    )
    query.add_argument(
        "--explain-analyze",
        action="store_true",
        help="run once under --mode with full observability and print the "
        "EXPLAIN ANALYZE report (per-leg actuals vs. estimates, adaptation "
        "timeline, work breakdown)",
    )
    query.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSONL span trace of the run to FILE",
    )
    query.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry after the run",
    )
    query.add_argument(
        "--max-rows",
        type=int,
        default=None,
        help="abort with a budget error after this many result rows",
    )
    query.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="per-execution wall-clock deadline in milliseconds",
    )
    query.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON",
        help="fault-injection plan for the adaptive run: inline JSON "
        '(e.g. \'{"seed": 7, "faults": [{"site": "controller", '
        '"nth_call": 1, "kind": "permanent"}]}\') or a path to a JSON file',
    )
    query.add_argument(
        "--telemetry-dir",
        default=None,
        metavar="DIR",
        help="record a flight record (decision audit, per-leg q-errors, "
        "adaptation timeline) to DIR's rotating JSONL store; inspect it "
        "with `repro replay --telemetry-dir DIR --latest`",
    )
    query.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="slow-query threshold for the flight recorder (records at/"
        "above MS wall-clock are flagged and logged in full)",
    )

    shell = commands.add_parser("shell", help="interactive SQL shell")
    _add_scale(shell)

    stats = commands.add_parser(
        "stats",
        help="per-table storage footprint of a DMV database",
    )
    _add_scale(stats)
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the storage-stats payload as JSON instead of the table",
    )
    stats.add_argument(
        "--metrics",
        action="store_true",
        help="also print the storage gauges in metrics-registry form",
    )

    serve = commands.add_parser(
        "serve",
        help="run the concurrent query server (newline-delimited JSON)",
    )
    _add_scale(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=7654,
        help="TCP port (0 = pick a free port and print it; default 7654)",
    )
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=4,
        metavar="N",
        help="engine processes, one query each (default 4); more than "
        "the core count buys queueing, not speed",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=32,
        metavar="N",
        help="bounded admission queue; full → REJECTED_OVERLOAD (default 32)",
    )
    serve.add_argument(
        "--queue-per-session",
        type=int,
        default=8,
        metavar="N",
        help="per-client cap inside the admission queue (default 8)",
    )
    serve.add_argument(
        "--rate-limit-qps",
        type=float,
        default=0.0,
        metavar="QPS",
        help="per-client token-bucket rate (0 disables; default 0)",
    )
    serve.add_argument(
        "--rate-limit-burst",
        type=float,
        default=8.0,
        metavar="N",
        help="token-bucket burst size (default 8)",
    )
    serve.add_argument(
        "--timeout-ms",
        type=float,
        default=10_000.0,
        metavar="MS",
        help="default per-query deadline, server-clamped (default 10000)",
    )
    serve.add_argument(
        "--plan-cache",
        type=int,
        default=DEFAULT_CAPACITY,
        metavar="N",
        help="capacity in statements of the database's plan cache "
        f"(0 disables; default {DEFAULT_CAPACITY})",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        metavar="S",
        help="seconds to let in-flight queries finish on SIGTERM before "
        "cancelling them (default 10)",
    )
    serve.add_argument(
        "--telemetry-dir",
        default=None,
        metavar="DIR",
        help="drain per-query flight records to DIR's rotating JSONL "
        "store (the in-memory ring is always on)",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help="slow-query log threshold: queries at/above MS wall-clock "
        "are logged with their full flight record (default: off)",
    )

    replay = commands.add_parser(
        "replay",
        help="reconstruct a recorded query's adaptation timeline offline",
    )
    replay.add_argument(
        "query_id",
        nargs="?",
        default=None,
        help="flight-record query id (q-...); omit with --latest/--list",
    )
    replay.add_argument(
        "--telemetry-dir",
        required=True,
        metavar="DIR",
        help="telemetry directory holding the JSONL segments to read",
    )
    replay.add_argument(
        "--list",
        action="store_true",
        help="list the recorded queries instead of replaying one",
    )
    replay.add_argument(
        "--latest",
        action="store_true",
        help="replay the most recently recorded query",
    )
    replay.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        default=None,
        help="compare two recorded executions side by side",
    )

    telemetry = commands.add_parser(
        "telemetry",
        help="aggregate a telemetry directory into per-template analytics",
    )
    telemetry.add_argument(
        "--telemetry-dir",
        required=True,
        metavar="DIR",
        help="telemetry directory holding the JSONL segments to read",
    )
    telemetry.add_argument(
        "--json",
        action="store_true",
        help="emit the aggregate as JSON (estimate-error feedback input) "
        "instead of the text report",
    )

    experiment = commands.add_parser(
        "experiment", help="run one of the paper's experiments"
    )
    _add_scale(experiment)
    experiment.add_argument(
        "name",
        choices=[
            "table1", "fig7", "fig8", "fig9", "fig10", "fig11", "overhead",
            "learned",
        ],
    )
    experiment.add_argument(
        "--queries", type=int, default=10, help="queries per template"
    )
    return parser


def _load(args, plan_cache_size: int = DEFAULT_CAPACITY) -> Database:
    started = time.perf_counter()
    backend = getattr(args, "backend", "row")
    db, summary = load_dmv(
        scale=args.scale,
        seed=args.seed,
        extended=args.extended,
        backend=backend,
        plan_cache_size=plan_cache_size,
    )
    elapsed = time.perf_counter() - started
    print(
        f"loaded DMV at scale {args.scale} ({backend} backend) "
        f"in {elapsed:.1f}s:",
        file=sys.stderr,
    )
    for name, count in summary.as_rows():
        print(f"  {name:14s} {count:10,d} rows", file=sys.stderr)
    return db


def _parse_fault_plan(value: str | None) -> FaultPlan | None:
    if value is None:
        return None
    text = value.strip()
    if not text.startswith("{"):
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read()
    return FaultPlan.from_json(text)


# Warn at most once per process when a CLI option silently disqualifies
# the vectorized cascade on a columnar database (satellite of the chunked
# adaptive engine: the fallback is correct but much slower, so name the
# failed gate instead of degrading quietly).
_vector_gate_warned = False


def _warn_vector_gate(result, cli_args) -> None:
    global _vector_gate_warned
    stats = result.stats
    # Only a columnar database asks the cascade: a row store names no gate.
    if _vector_gate_warned or cli_args is None or stats.vector_gate is None:
        return
    _vector_gate_warned = True
    print(
        f"note: vectorized cascade disabled ({stats.vector_gate}); "
        f"ran the {stats.engine!r} engine instead",
        file=sys.stderr,
    )


def _run_query(
    db: Database,
    sql: str,
    mode: ReorderMode,
    explain: bool,
    limits: ExecutionLimits | None = None,
    fault_plan: FaultPlan | None = None,
    cli_args=None,
) -> None:
    if explain:
        print(db.explain(sql))
        print()
    try:
        static = db.execute(
            sql, AdaptiveConfig(mode=ReorderMode.NONE), limits=limits
        )
    except BudgetExceeded as error:
        print(f"static:   budget exceeded — {error.progress_summary()}")
        return
    _warn_vector_gate(static, cli_args)
    for row in static.rows[:25]:
        print(row)
    if len(static.rows) > 25:
        print(f"... ({len(static.rows)} rows total)")
    print(f"\nstatic:   {static.stats.total_work:12,.0f} work units "
          f"({static.stats.wall_seconds * 1000:.1f} ms) "
          f"[{static.stats.engine}]")
    if mode is not ReorderMode.NONE:
        try:
            adaptive = db.execute(
                sql,
                AdaptiveConfig(mode=mode),
                limits=limits,
                fault_plan=fault_plan,
            )
        except BudgetExceeded as error:
            print(f"adaptive: budget exceeded — {error.progress_summary()}")
            return
        _warn_vector_gate(adaptive, cli_args)
        matches = sorted(adaptive.rows) == sorted(static.rows)
        print(f"adaptive: {adaptive.stats.total_work:12,.0f} work units "
              f"({adaptive.stats.wall_seconds * 1000:.1f} ms) "
              f"[{adaptive.stats.engine}], "
              f"{adaptive.stats.total_switches} switch(es), "
              f"results {'match' if matches else 'MISMATCH!'}")
        speedup = static.stats.total_work / max(adaptive.stats.total_work, 1e-9)
        print(f"speedup:  {speedup:12.2f}x")
        if adaptive.stats.degraded:
            print("DEGRADED: the adaptive layer failed and was disabled; "
                  "the query completed on its static order")
        if adaptive.stats.events:
            print("adaptation events:")
            for event in adaptive.stats.events:
                print(f"  {event.describe()}")


def _make_recorder(args):
    """A FlightRecorder draining to --telemetry-dir, or None."""
    directory = getattr(args, "telemetry_dir", None)
    if not directory:
        return None
    from repro.obs.recorder import FlightRecorder, TelemetryStore

    return FlightRecorder(
        store=TelemetryStore(directory),
        slow_query_ms=getattr(args, "slow_query_ms", None),
    )


def _run_observed_query(
    db: Database,
    sql: str,
    mode: ReorderMode,
    args,
    limits: ExecutionLimits | None,
    fault_plan: FaultPlan | None,
) -> int:
    """One observed execution: --explain-analyze / --trace / --metrics /
    --telemetry-dir."""
    config = AdaptiveConfig(mode=mode)
    recorder = _make_recorder(args)
    if args.explain_analyze or args.trace or args.metrics:
        obs = QueryObservability.armed()
    else:
        # Telemetry-only: the decision audit alone, fed at the controller's
        # check points.
        obs = QueryObservability()
    if recorder is not None:
        obs = recorder.arm(base=obs)

    def dump_trace() -> None:
        if args.trace and obs.tracer is not None:
            obs.tracer.write_jsonl(args.trace)
            print(
                f"trace: {len(obs.tracer.spans)} span(s) written to {args.trace}",
                file=sys.stderr,
            )

    def record_flight(result=None, outcome="ok", error=None, wall_ms=None) -> None:
        if recorder is None:
            return
        record = recorder.finish_query(
            obs,
            result,
            sql=sql,
            config=config,
            outcome=outcome,
            error=error,
            wall_ms=wall_ms,
        )
        recorder.close()
        print(
            f"telemetry: flight record {record.query_id} "
            f"({record.adaptations} adaptation(s), "
            f"{len(record.decisions)} decision(s)) written to "
            f"{args.telemetry_dir}",
            file=sys.stderr,
        )

    started = time.perf_counter()
    try:
        result = db.execute(
            sql, config, limits=limits, fault_plan=fault_plan, obs=obs
        )
    except BudgetExceeded as error:
        print(f"budget exceeded — {error.progress_summary()}")
        dump_trace()
        record_flight(
            outcome="budget_exceeded",
            error=error,
            wall_ms=(time.perf_counter() - started) * 1000.0,
        )
        return 0
    _warn_vector_gate(result, args)
    if args.explain_analyze:
        print(render_explain_analyze(result, limits))
    else:
        for row in result.rows[:25]:
            print(row)
        if len(result.rows) > 25:
            print(f"... ({len(result.rows)} rows total)")
        print(
            f"\n{result.stats.total_work:,.0f} work units "
            f"({result.stats.wall_seconds * 1000:.1f} ms), "
            f"{result.stats.total_switches} switch(es)"
        )
    if args.metrics and result.metrics is not None:
        from repro.obs.metrics import record_plan_cache_gauges

        record_plan_cache_gauges(result.metrics, db.plan_cache.stats())
        print("\nmetrics:")
        print(result.metrics.render())
    dump_trace()
    record_flight(result)
    return 0


def cmd_generate(args) -> int:
    _, summary = load_dmv(
        scale=args.scale,
        seed=args.seed,
        extended=args.extended,
        backend=args.backend,
    )
    print(table1_experiment(summary, args.scale).report())
    return 0


def cmd_query(args) -> int:
    try:
        fault_plan = _parse_fault_plan(args.fault_plan)
    except (OSError, ValueError) as error:
        print(f"error: invalid --fault-plan: {error}", file=sys.stderr)
        return 2
    limits = None
    if args.max_rows is not None or args.timeout_ms is not None:
        try:
            limits = ExecutionLimits(
                max_rows=args.max_rows,
                timeout_seconds=(
                    args.timeout_ms / 1000.0
                    if args.timeout_ms is not None
                    else None
                ),
            )
        except ValueError as error:
            print(f"error: invalid limits: {error}", file=sys.stderr)
            return 2
    db = _load(args)
    if args.explain_analyze or args.trace or args.metrics or args.telemetry_dir:
        if args.explain:
            print(db.explain(args.sql))
            print()
        return _run_observed_query(
            db,
            args.sql,
            ReorderMode(args.mode),
            args,
            limits=limits,
            fault_plan=fault_plan,
        )
    _run_query(
        db,
        args.sql,
        ReorderMode(args.mode),
        args.explain,
        limits=limits,
        fault_plan=fault_plan,
        cli_args=args,
    )
    return 0


def cmd_stats(args) -> int:
    import json

    from repro.obs.metrics import (
        MetricsRegistry,
        record_plan_cache_gauges,
        record_storage_gauges,
    )

    db = _load(args)
    storage = db.storage_stats()
    if args.json:
        print(json.dumps(storage, indent=2))
    else:
        print(f"backend: {storage['backend']}")
        print(f"{'table':14s} {'rows':>10s} {'bytes':>14s}")
        for entry in storage["per_table"]:
            print(
                f"{entry['table']:14s} {entry['rows']:10,d} "
                f"{entry['bytes']:14,d}"
            )
        print(
            f"{'total':14s} {'':>10s} {storage['total_bytes']:14,d} "
            f"({storage['table_count']} tables)"
        )
    if args.metrics:
        registry = MetricsRegistry()
        record_storage_gauges(registry, storage)
        record_plan_cache_gauges(registry, db.plan_cache.stats())
        print("\nmetrics:")
        print(registry.render())
    return 0


def cmd_shell(args) -> int:
    db = _load(args)
    print("repro SQL shell — end statements with Enter; "
          "commands: .explain SQL | .quit", file=sys.stderr)
    while True:
        try:
            line = input("repro> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if not line:
            continue
        if line in (".quit", ".exit", "\\q"):
            return 0
        try:
            if line.startswith(".explain"):
                print(db.explain(line[len(".explain"):].strip()))
            else:
                _run_query(db, line, ReorderMode.BOTH, explain=False)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)


def cmd_serve(args) -> int:
    import asyncio

    from repro.server import QueryServer, ServerConfig

    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            max_concurrency=args.max_concurrency,
            max_queue_depth=args.max_queue_depth,
            max_queue_per_session=args.queue_per_session,
            default_timeout_ms=min(args.timeout_ms, 60_000.0),
            rate_limit_qps=args.rate_limit_qps,
            rate_limit_burst=args.rate_limit_burst,
            plan_cache_size=args.plan_cache,
            drain_grace_seconds=args.drain_grace,
            telemetry_dir=args.telemetry_dir,
            slow_query_ms=args.slow_query_ms,
        )
    except ValueError as error:
        print(f"error: invalid server config: {error}", file=sys.stderr)
        return 2
    db = _load(args, plan_cache_size=config.plan_cache_size)
    server = QueryServer(db, config)

    def on_ready(srv: QueryServer) -> None:
        print(
            f"listening on {config.host}:{srv.port} "
            f"(engines={config.max_concurrency}, "
            f"queue={config.max_queue_depth}); SIGTERM drains",
            file=sys.stderr,
            flush=True,
        )

    return asyncio.run(server.serve_forever(on_ready=on_ready))


def cmd_replay(args) -> int:
    from repro.obs.audit import (
        find_record,
        latest_record,
        load_records,
        render_diff,
        render_listing,
        render_replay,
    )

    records = load_records(args.telemetry_dir)
    if not records:
        print(
            f"error: no finalized telemetry segments in {args.telemetry_dir!r} "
            "(a live server finalizes its active segment on drain)",
            file=sys.stderr,
        )
        return 1
    if args.list:
        print(render_listing(records))
        return 0
    if args.diff is not None:
        pair = []
        for query_id in args.diff:
            record = find_record(records, query_id)
            if record is None:
                print(f"error: no record {query_id!r}", file=sys.stderr)
                return 1
            pair.append(record)
        print(render_diff(pair[0], pair[1]))
        return 0
    if args.latest:
        record = latest_record(records)
    elif args.query_id:
        record = find_record(records, args.query_id)
        if record is None:
            print(
                f"error: no record {args.query_id!r} "
                f"({len(records)} record(s) available; try --list)",
                file=sys.stderr,
            )
            return 1
    else:
        print(
            "error: give a query id, or --latest / --list / --diff A B",
            file=sys.stderr,
        )
        return 2
    assert record is not None
    print(render_replay(record))
    return 0


def cmd_telemetry(args) -> int:
    import json

    from repro.obs.analytics import TelemetryAnalytics
    from repro.obs.audit import load_records

    records = load_records(args.telemetry_dir)
    if not records:
        print(
            f"error: no finalized telemetry segments in {args.telemetry_dir!r}",
            file=sys.stderr,
        )
        return 1
    analytics = TelemetryAnalytics.from_records(records)
    if args.json:
        print(json.dumps(analytics.as_dict(), indent=2, default=str))
    else:
        print(analytics.render())
    return 0


def cmd_experiment(args) -> int:
    if args.name == "table1":
        _, summary = load_dmv(
            scale=args.scale,
            seed=args.seed,
            extended=args.extended,
            backend=args.backend,
        )
        print(table1_experiment(summary, args.scale).report())
        return 0
    if args.name == "fig11":
        db, _ = load_dmv(
            scale=args.scale,
            seed=args.seed,
            extended=True,
            backend=args.backend,
        )
        workload = six_table_workload(count=max(args.queries * 2, 10))
        print(scatter_experiment(db, workload).report("Fig 11 — six-table joins"))
        return 0
    if args.name == "learned":
        # E11: the engine on the columnar backend (chunk semantics), the
        # oracle on the row store; six-table statements, as Fig 11.
        db, _ = load_dmv(
            scale=args.scale,
            seed=args.seed,
            extended=True,
            backend=args.backend,
        )
        workload = six_table_workload(count=max(args.queries * 2, 10))
        print(
            learned_experiment(
                db,
                workload,
                AdaptiveConfig(mode=ReorderMode.BOTH),
                AdaptiveConfig(mode=ReorderMode.NONE),
            ).report(
                "Learn once — static vs first vs later adaptive executions "
                f"(six-table, {args.backend} backend)"
            )
        )
        return 0
    db = _load(args)
    workload = four_table_workload(queries_per_template=args.queries)
    if args.name == "fig7":
        print(scatter_experiment(db, workload).report("Fig 7 — scatter"))
    elif args.name == "fig8":
        print(
            template_ratio_experiment(db, workload, ReorderMode.INNER_ONLY)
            .report("Fig 8 — inner-only reordering")
        )
    elif args.name == "fig9":
        print(
            template_ratio_experiment(db, workload, ReorderMode.DRIVING_ONLY)
            .report("Fig 9 — driving-only reordering")
        )
    elif args.name == "fig10":
        print(window_sweep_experiment(db, workload).report())
    elif args.name == "overhead":
        print(overhead_experiment(db, workload).report())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "query": cmd_query,
        "stats": cmd_stats,
        "shell": cmd_shell,
        "serve": cmd_serve,
        "replay": cmd_replay,
        "telemetry": cmd_telemetry,
        "experiment": cmd_experiment,
    }
    if args.profile:
        import cProfile

        # A profiling run is a debugging run: engine errors keep their
        # traceback.
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return handlers[args.command](args)
        finally:
            profiler.disable()
            profiler.dump_stats(args.profile)
            print(
                f"profile: pstats dump written to {args.profile} "
                f"(inspect with `python -m pstats {args.profile}`)",
                file=sys.stderr,
            )
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {' '.join(str(error).split())}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
