"""Library workloads: one caller in a closed loop around ``Database.execute``.

Layers are timed from outside, through public calls only
(``Database.parse`` / ``plan`` / ``execute``, ``ExecutionStats``,
``Database.storage_stats``, ``DmvGenerator.populate``, ``Database.analyze``).
"""

from __future__ import annotations

import dataclasses
import gc
import random
import resource
import sys
import time
from collections import Counter
from typing import Sequence

from repro import AdaptiveConfig, Database, ReorderMode, StatisticsLevel
from repro.dmv import DmvGenerator, four_table_workload, six_table_workload

from estimators import median, percentile, self_times, throughput
from oracle import digest, statement_key

perf = time.perf_counter

#: workload -> (template grid, reordering mode)
WORKLOADS = {
    "four_static": ("four", ReorderMode.NONE),
    "four_adaptive": ("four", ReorderMode.BOTH),
    "six_static": ("six", ReorderMode.NONE),
    "six_adaptive": ("six", ReorderMode.BOTH),
}
#: An end-to-end run is this many rounds of {set up, measure}, so that
#: ``setup_s`` is a median and not one draw.
ROUNDS = 3
#: Fewest passes of each kind in a traced run.
MIN_PASSES = 3
#: Share of the statements the traced run keeps unseen until its cold pass.
COLD_SHARE = 0.1


def grid(kind: str) -> list[str]:
    """Every statement of a template grid, in grid order.

    Asking the public generators for more statements than a grid holds
    returns the whole grid whatever the seed, which is what makes the
    workload's cost the same for every seed (see README: sampling 60 of
    396 statements moved ``query_ms_p95`` by 30-50% between seeds).
    """
    if kind == "four":
        workload = four_table_workload(queries_per_template=10**9)
    else:
        workload = six_table_workload(count=10**9)
    return [query.sql for query in workload]


def every_statement() -> list[str]:
    return grid("four") + grid("six")


def order(rng: random.Random, count: int) -> list[int]:
    """A fresh execution order. Every pass gets its own, because the order
    decides what the engine's bounded caches hold when a statement runs
    (a columnar index keeps 16 group kernels, first in first out; the grid
    has more predicate sets than that): with one order per run, which
    statements pay for a kernel rebuild, and so ``query_ms_p95``, moved by
    18% between seeds."""
    return rng.sample(range(count), count)


def engine_config(mode: ReorderMode) -> AdaptiveConfig:
    """The configuration ROADMAP calls "the engine".

    Only knobs that still exist are passed, so a later change can delete
    ``batched`` / ``batch_size`` / ``monitor_granularity`` from
    ``AdaptiveConfig`` without editing the benchmark.
    """
    wanted = {"batched": True, "batch_size": 256, "monitor_granularity": "chunk"}
    known = {field.name for field in dataclasses.fields(AdaptiveConfig)}
    return AdaptiveConfig(
        mode=mode, **{k: v for k, v in wanted.items() if k in known}
    )


def build_database(scale: float) -> tuple[Database, float, float]:
    """``load_dmv(extended=True, backend="columnar")`` with CARDINALITY
    statistics, split so populate and analyze can be timed apart."""
    t0 = perf()
    db = Database(backend="columnar")
    DmvGenerator(scale=scale).populate(db, extended=True)
    t1 = perf()
    db.analyze(level=StatisticsLevel.CARDINALITY)
    return db, t1 - t0, perf() - t1


class Tally:
    """Operations attempted and failed, judged against the oracle."""

    def __init__(self, expected: dict[str, list]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def counts(self, sqls: Sequence[str]) -> list[int]:
        return [self.expected[statement_key(sql)][0] for sql in sqls]

    def check_digests(self, sqls: Sequence[str], row_sets: Sequence) -> None:
        for sql, rows in zip(sqls, row_sets):
            self.attempted += 1
            want = self.expected[statement_key(sql)]
            if rows is None or [len(rows), digest(rows)] != want:
                self.failed += 1


def _report(error: Exception) -> None:
    print(f"query failed: {type(error).__name__}: {error}", file=sys.stderr)


def first_pass(db, config, sqls) -> tuple[list[float], list]:
    """One pass that keeps the rows, for digest checks after the clock stops."""
    latencies, row_sets = [], []
    for sql in sqls:
        t0 = perf()
        try:
            rows = db.execute(sql, config).rows
        except Exception as error:  # counted as failed; the run reports it
            _report(error)
            rows = None
        latencies.append(perf() - t0)
        row_sets.append(rows)
    return latencies, row_sets


def timed_pass(db, config, sqls, counts, order, latencies, tally) -> None:
    """One untraced pass; row counts are checked after each timestamp."""
    execute = db.execute
    for index in order:
        sql = sqls[index]
        t0 = perf()
        try:
            rows = len(execute(sql, config).rows)
        except Exception as error:
            _report(error)
            rows = -1
        latencies[index].append(perf() - t0)
        tally.failed += rows != counts[index]
    tally.attempted += len(order)


def run_untraced(workload, seed, seconds, scale, expected, speed, import_s) -> dict:
    kind, mode = WORKLOADS[workload]
    config = engine_config(mode)
    sqls = grid(kind)
    rng = random.Random(seed)
    tally = Tally(expected)

    counts = tally.counts(sqls)
    latencies = [[] for _ in sqls]
    setup_walls = []
    passes = 0
    # Each round sets up afresh and then measures a share of the time: the
    # timed passes cover several database instances and a longer stretch
    # of the host's (uneven) speed than one block would.
    for _ in range(ROUNDS):
        db = row_sets = None  # one database alive at a time
        gc.collect()
        warm_up = [sqls[index] for index in order(rng, len(sqls))]
        t0 = perf()
        db, _, _ = build_database(scale)
        # The warm-up pass fills lazy CSR sidecars and kernel plans.
        _, row_sets = first_pass(db, config, warm_up)
        setup_walls.append(perf() - t0)
        tally.check_digests(warm_up, row_sets)
        row_sets = None
        deadline = perf() + seconds / ROUNDS
        while True:  # one pass, then as many more as end before the deadline
            gc.collect()
            speed.sample()
            t0 = perf()
            timed_pass(
                db, config, sqls, counts, order(rng, len(sqls)), latencies, tally
            )
            passes += 1
            now = perf()
            if now + (now - t0) > deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Each statement stands for its median over the passes: a stretch in
    # which the host ran slow moves single samples, not the medians.
    typical = [median(samples) for samples in latencies]
    return {
        "metrics": {
            "queries_per_s": throughput(latencies),
            "query_ms_p50": median(typical) * 1e3,
            "query_ms_p95": percentile(typical, 0.95) * 1e3,
            "setup_s": import_s + median(setup_walls),
            "peak_rss_mb": peak_rss_mb,
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "counts": {
            "statements": len(sqls),
            "passes": passes,
            "samples": len(sqls) * passes,
            "setups": ROUNDS,
        },
    }


class Trace:
    """In-memory spans ``{id, name, start, end, parent, query_id}``."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, name, start, end, parent, query_id) -> int:
        span_id = len(self.spans)
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "query_id": query_id,
            }
        )
        return span_id

    def self_seconds_by_name(self) -> dict[str, list[float]]:
        own = self_times(self.spans)
        by_name: dict[str, list[float]] = {}
        for span in self.spans:
            by_name.setdefault(span["name"], []).append(own[span["id"]])
        return by_name

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


def traced_pass(
    db, config, sqls, counts, order, trace, totals, engines, tally, base
):
    """One pass calling the layers separately, a span around each call."""
    parse, plan_of, execute = db.parse, db.plan, db.execute
    for index in order:
        sql = sqls[index]
        query_id = base + index
        t0 = perf()
        try:
            spec = parse(sql)
            t1 = perf()
            plan = plan_of(spec)
            t2 = perf()
            result = execute(plan, config)
            t3 = perf()
        except Exception as error:
            _report(error)
            tally.failed += 1
            continue
        stats = result.stats
        rows = len(result.rows)
        tally.failed += rows != counts[index]
        query = trace.add("query", t0, t3, None, query_id)
        trace.add("query.parse", t0, t1, query, query_id)
        trace.add("optimizer.optimize", t1, t2, query, query_id)
        executing = trace.add("executor.execute", t2, t3, query, query_id)
        # The executor reports its loop's wall time, not when it began;
        # the span is placed at the end of the execute call.
        run = min(stats.wall_seconds, t3 - t2)
        trace.add("executor.run", t3 - run, t3, executing, query_id)

        work = stats.work
        totals["queries"] += 1
        totals["work_units"] += stats.total_work
        totals["adaptation_units"] += stats.adaptation_work
        totals["rows"] += rows
        totals["index_descends"] += work.index_descends
        totals["index_entries"] += work.index_entries
        totals["row_fetches"] += work.row_fetches
        totals["predicate_evals"] += work.predicate_evals
        totals["inner_checks"] += stats.inner_checks
        totals["driving_checks"] += stats.driving_checks
        totals["inner_reorders"] += stats.inner_reorders
        totals["driving_switches"] += stats.driving_switches
        totals["gated"] += stats.vector_gate is not None
        engines[stats.engine] += 1
    tally.attempted += len(order)


def static_reference(db, sqls, counts, rng, tally) -> tuple[float, float]:
    """Elapsed seconds (per-statement medians) and work units of the same
    statements in mode NONE, the base of ``core.*_vs_static``."""
    config = engine_config(ReorderMode.NONE)
    latencies = [[] for _ in sqls]
    for _ in range(MIN_PASSES):
        gc.collect()
        timed_pass(
            db, config, sqls, counts, order(rng, len(sqls)), latencies, tally
        )
    work = sum(db.execute(sql, config).stats.total_work for sql in sqls)
    return sum(median(samples) for samples in latencies), work


def run_traced(workload, seed, seconds, scale, expected, speed) -> dict:
    kind, mode = WORKLOADS[workload]
    config = engine_config(mode)
    sqls = grid(kind)
    rng = random.Random(seed)
    tally = Tally(expected)
    shuffled = [sqls[index] for index in order(rng, len(sqls))]
    cold_count = max(1, int(len(sqls) * COLD_SHARE))
    seen, cold = shuffled[:-cold_count], shuffled[-cold_count:]

    db, populate_s, analyze_s = build_database(scale)
    t0 = perf()
    _, row_sets = first_pass(db, config, seen)
    warm_wall = perf() - t0
    tally.check_digests(seen, row_sets)
    storage = db.storage_stats()
    # Statements the database has not seen: what a plan cache cannot help.
    cold_latencies, row_sets = first_pass(db, config, cold)
    tally.check_digests(cold, row_sets)
    del row_sets

    counts = tally.counts(sqls)
    latencies = [[] for _ in sqls]
    trace, totals, engines = Trace(), Counter(), Counter()
    passes = 0
    start = perf()
    # Untraced and traced passes alternate, so drift hits both alike and
    # their difference is the tracing overhead.
    while perf() - start < seconds or passes < MIN_PASSES:
        gc.collect()
        speed.sample()
        timed_pass(
            db, config, sqls, counts, order(rng, len(sqls)), latencies, tally
        )
        gc.collect()
        traced_pass(
            db, config, sqls, counts, order(rng, len(sqls)),
            trace, totals, engines, tally, base=passes * len(sqls),
        )
        passes += 1

    queries = totals["queries"]
    own = trace.self_seconds_by_name()
    query_seconds = sum(trace.durations("query"))
    share = {name: sum(values) / query_seconds for name, values in own.items()}
    run_seconds = sum(own["executor.run"])
    checks = totals["inner_checks"] + totals["driving_checks"]
    switches = totals["inner_reorders"] + totals["driving_switches"]
    untraced = [value for per_statement in latencies for value in per_statement]
    typical = dict(zip(sqls, map(median, latencies)))
    seen_median_wall = sum(typical[sql] for sql in seen)
    metrics = {
        "query.parse_ms_p50": median(own["query.parse"]) * 1e3,
        "query.parse_share": share["query.parse"],
        "optimizer.optimize_ms_p50": median(own["optimizer.optimize"]) * 1e3,
        "optimizer.optimize_share": share["optimizer.optimize"],
        "db.cold_query_ms_p50": median(cold_latencies) * 1e3,
        "executor.prepare_ms_p50": median(own["executor.execute"]) * 1e3,
        "executor.prepare_share": share["executor.execute"],
        "executor.run_ms_p50": median(own["executor.run"]) * 1e3,
        "executor.run_share": share["executor.run"],
        "executor.ns_per_work_unit": run_seconds * 1e9 / totals["work_units"],
        "executor.work_units_per_query": totals["work_units"] / queries,
        "executor.rows_per_query": totals["rows"] / queries,
        "executor.engine_vector_share": engines["vector"] / queries,
        "executor.engine_vector_adaptive_share":
            engines["vector-adaptive"] / queries,
        "executor.engine_fell_to_fast_share":
            engines["vector-adaptive+fast"] / queries,
        "executor.engine_other_share": 1.0 - (
            engines["vector"] + engines["vector-adaptive"]
            + engines["vector-adaptive+fast"]
        ) / queries,
        "executor.gated_share": totals["gated"] / queries,
        "storage.index_descends_per_query": totals["index_descends"] / queries,
        "storage.index_entries_per_query": totals["index_entries"] / queries,
        "storage.row_fetches_per_query": totals["row_fetches"] / queries,
        "storage.predicate_evals_per_query":
            totals["predicate_evals"] / queries,
        "storage.table_mb": storage["total_bytes"] / 2**20,
        "storage.kernel_plan_mb": storage["kernel_plan_bytes"] / 2**20,
        "storage.warm_pass_s": warm_wall - seen_median_wall,
        "dmv.populate_s": populate_s,
        "catalog.analyze_s": analyze_s,
        "core.inner_checks_per_query": totals["inner_checks"] / queries,
        "core.driving_checks_per_query": totals["driving_checks"] / queries,
        "core.inner_reorders_per_query": totals["inner_reorders"] / queries,
        "core.driving_switches_per_query":
            totals["driving_switches"] / queries,
        "core.switches_per_check": switches / checks if checks else 0.0,
        "core.adaptation_units_share":
            totals["adaptation_units"] / totals["work_units"],
        "bench.trace_overhead_share":
            median(trace.durations("query")) / median(untraced) - 1.0,
    }
    if mode.monitors:
        static_seconds, static_work = static_reference(db, sqls, counts, rng, tally)
        metrics["core.work_vs_static"] = (
            totals["work_units"] / passes / static_work
        )
        metrics["core.elapsed_vs_static"] = (
            sum(median(samples) for samples in latencies) / static_seconds
        )
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "counts": {
            "statements": len(sqls),
            "cold_statements": len(cold),
            "passes": passes,
            "traced_queries": queries,
            "engines": dict(engines),
        },
        "spans": trace.spans,
    }
