"""Speedup of the engine over the oracle on the six-table DMV workload.

Measures, per reorder mode, the two things that run a query:

* ``oracle`` — row store + scalar pipeline (the paper's executor: exact
  semantics, reorder checks every ``c`` rows),
* ``engine`` — columnar store: the vectorized cascade.

Variant reps are interleaved (oracle, engine, oracle, ...) and
the minimum per variant is reported, so machine-load drift hits every
variant alike instead of biasing whichever ran last. Every variant's result
rows are checked against the oracle's per query — a speedup that changes
answers must fail loudly, not report numbers.

Every variant reports three walls, because ``stats.wall_seconds`` starts
after planning and so hides the front end: ``wall_seconds`` (the executor's
own clock, what the speedups are computed from), ``end_to_end_seconds``
(``perf_counter`` around ``db.execute(db.plan(sql))`` with the statement
already in the database's plan cache — the warm path) and
``end_to_end_cold_seconds``
(the same plus its backend's ``front_end`` section: parsing and optimizing
each statement once, which is what a first-seen statement pays on top).

Every execution here hands ``db.plan(sql)`` — the optimizer's plan, through
the plan cache — to ``db.execute``: executing the text itself would start a
repeated monitored statement from the plan feedback of its previous run
(DESIGN.md Sec 4j), and every section compares single executions.

Each variant records the store it ran on (``config``: the backend name,
which is all that picks the machine) and which execution engine(s)
actually ran (``engines``).
Under ``--check`` the ``engine`` variant must not be slower than the
oracle, must have run the vectorized cascade on every query — with the
driving leg switched somewhere in the driving modes, or that says
nothing; full-scale runs additionally hold the adaptive engine's mode-BOTH
>=10x floor over the oracle.

A second section measures observing on the engine: the adaptive six-table
workload runs disarmed, with the always-on flight recorder's bundle and with
a fully armed one (what EXPLAIN ANALYZE arms), interleaved min-of-reps. Both
bundles must run the disarmed run's machine at its exact work units; the
recorder's wall contract is ≤5%, the armed bundle's ≤1.5× — under
``--check`` either overrun fails the run.

Results go to ``BENCH_speedup.json`` at the repo root (atomic write; the
``"server"`` section bench_server.py keeps there is preserved), so the
perf trajectory of future PRs is recorded. Any mode whose speedup regresses
vs the stored baseline is reported loudly on stderr; under ``--check`` the
process also exits non-zero if the engine is slower than the oracle by
more than 10%, the armed recorder costs more than 5% wall, or a fully
armed bundle more than 1.5× the disarmed wall.

Usage::

    PYTHONPATH=src python benchmarks/bench_speedup.py --adaptive  # full run
    PYTHONPATH=src python benchmarks/bench_speedup.py --quick --check  # CI
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from unittest import mock

from repro.bench.runner import host_metadata, merge_json_atomic
from repro.core.config import AdaptiveConfig, ReorderMode
from repro.dmv import load_dmv, six_table_workload
from repro.executor import vector

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: --check fails when the engine exceeds the oracle's time by more than this
#: factor.
CHECK_TOLERANCE = 1.10

#: --check (full scale) fails when the mode-BOTH engine speeds up less than
#: this over the oracle — the chunked vectorized adaptive engine's headline
#: contract.
MODE_BOTH_ENGINE_FLOOR = 10.0

#: A stored-baseline speedup may drift down by this factor before the
#: regression report fires (wall-clock noise allowance).
REGRESSION_TOLERANCE = 0.90

#: --check fails when an armed flight recorder costs more than this much
#: wall time over the disarmed adaptive run (the recorder's ≤5% budget).
OBSERVABILITY_GATE_PCT = 5.0

#: --check fails when a fully armed bundle (tracer + metrics + sampler: what
#: EXPLAIN ANALYZE arms) costs more than this factor of the disarmed wall.
ARMED_GATE_RATIO = 1.5


def measure_mode(queries, variants, config, reps: int) -> dict[str, dict]:
    """Min-of-reps wall seconds per variant (name -> database) under
    *config*, with result verification (sorted rows per query, against the
    first variant's)."""
    best = {name: float("inf") for name in variants}
    best_end_to_end = dict(best)
    meters: dict[str, dict] = {name: {} for name in variants}
    engines: dict[str, set] = {name: set() for name in variants}
    switches = {name: 0 for name in variants}
    reference: dict[str, list] = {}
    for rep in range(reps):
        for name, db in variants.items():
            total = end_to_end = 0.0
            for query in queries:
                started = time.perf_counter()
                outcome = db.execute(db.plan(query.sql), config)
                end_to_end += time.perf_counter() - started
                total += outcome.stats.wall_seconds
                if rep == 0:
                    engines[name].add(outcome.stats.engine)
                    switches[name] += outcome.stats.driving_switches
                    rows = sorted(outcome.rows)
                    expected = reference.setdefault(query.qid, rows)
                    if rows != expected:
                        raise AssertionError(
                            f"{query.qid}: variant {name!r} changed the result set"
                        )
            best_end_to_end[name] = min(best_end_to_end[name], end_to_end)
            if total < best[name]:
                best[name] = total
                meters[name] = {
                    "wall_seconds": total,
                    "config": db.backend_name,
                }
    for name in meters:
        # Which execution engine(s) ran the variant's queries (engine
        # choice is deterministic, so rep 0 covers it).
        meters[name]["engines"] = sorted(engines[name])
        meters[name]["driving_switches"] = switches[name]
        # Warm: min of reps, and from the second rep on every statement is
        # a plan-cache hit.
        meters[name]["end_to_end_seconds"] = best_end_to_end[name]
    return meters


def mid_scan_pass(db, queries, config) -> tuple[int, set]:
    """``(driving switches, engine labels)`` of one untimed engine pass that
    starts from chunks of 16 driving rows.

    A chunk boundary that ends the driving scan applies nothing, and at
    benchmark scales a first chunk of 256 is most six-table scans whole:
    the timed reps apply no switch. The vacuity guard needs a run that
    decides mid-scan and stays on the cascade across the switch.
    """
    switches, engines = 0, set()
    with mock.patch.object(vector, "MONITORED_CHUNK_ROWS", 16):
        for query in queries:
            stats = db.execute(db.plan(query.sql), config).stats
            switches += stats.driving_switches
            engines.add(stats.engine)
    return switches, engines


def measure_front_end(db, queries, reps: int) -> dict[str, float]:
    """Min-of-reps seconds to parse and to optimize every statement once.

    ``Database.parse`` and ``plan(QuerySpec)`` never consult the plan
    cache, so this is the first-seen cost however often it is repeated.
    """
    parse = optimize = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        specs = [db.parse(query.sql) for query in queries]
        parsed = time.perf_counter()
        for spec in specs:
            db.plan(spec)
        optimize = min(optimize, time.perf_counter() - parsed)
        parse = min(parse, parsed - started)
    return {"parse_seconds": parse, "optimize_seconds": optimize}


def add_cold_walls(meters: dict[str, dict], front_end: dict[str, dict]) -> None:
    """``end_to_end_cold_seconds`` per variant: its warm pass plus its
    backend's front end, i.e. the pass with every statement seen for the
    first time."""
    for meter in meters.values():
        meter["end_to_end_cold_seconds"] = meter["end_to_end_seconds"] + sum(
            front_end[meter["config"]].values()
        )


def measure_observability(db, queries, reps: int) -> dict:
    """Observed vs unobserved wall time on the adaptive workload, on *db*.

    Two bundles beside the disarmed run: the flight recorder's (the
    decision audit alone) and a fully armed one (tracer, metrics registry,
    estimate sampler: what ``obs=True``, EXPLAIN ANALYZE and ``--trace`` /
    ``--metrics`` arm). Neither has a per-row hook, so each must run the
    disarmed run's machine and charge its work units exactly; their only
    admissible cost is wall time at cold sites. Any meter delta or
    machine change is a bug, not an overhead, and raises.

    Timing methodology: the recorder's true overhead (a tuple append per
    kept check) is small enough that scheduler noise swamps a naive A/B
    measurement. The variants are warmed once, then each rep runs them
    back-to-back *per query* — rotating which goes first — and the reported
    figures compare sums of per-query minima, the most noise-robust point
    statistic for a deterministic workload.
    """
    from repro.obs.observer import QueryObservability
    from repro.obs.recorder import FlightRecorder

    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    recorder = FlightRecorder(capacity=max(len(queries) * 2, 8))
    variants = ("disarmed", "recorder", "armed")

    def run(query, name: str):
        plan = db.plan(query.sql)
        if name == "recorder":
            bundle = recorder.arm()
            outcome = db.execute(plan, config, obs=bundle)
            recorder.finish_query(
                bundle, outcome, sql=query.sql, config=config
            )
        elif name == "armed":
            outcome = db.execute(plan, config, obs=QueryObservability.armed())
        else:
            outcome = db.execute(plan, config)
        return outcome

    # Warm caches off the clock, and hold each bundle to the disarmed run.
    reference = [run(query, "disarmed").stats for query in queries]
    for name in variants[1:]:
        for query, expected in zip(queries, reference):
            stats = run(query, name).stats
            if stats.work != expected.work:
                raise AssertionError(
                    f"{query.qid}: the {name} bundle changed deterministic "
                    f"work units ({stats.total_work} != {expected.total_work})"
                )
            if stats.engine != expected.engine:
                raise AssertionError(
                    f"{query.qid}: the {name} bundle ran {stats.engine!r}, "
                    f"unobserved {expected.engine!r}"
                )

    best = {name: [float("inf")] * len(queries) for name in variants}
    for rep in range(reps):
        order = variants[rep % 3:] + variants[: rep % 3]
        for index, query in enumerate(queries):
            for name in order:
                wall = run(query, name).stats.wall_seconds
                if wall < best[name][index]:
                    best[name][index] = wall
    disarmed = sum(best["disarmed"])
    recorded = sum(best["recorder"])
    armed = sum(best["armed"])
    return {
        "store": db.backend_name,
        "engines": sorted({stats.engine for stats in reference}),
        "disarmed_wall_seconds": disarmed,
        "recorder_wall_seconds": recorded,
        "recorder_overhead_pct": (recorded / disarmed - 1.0) * 100.0,
        "armed_wall_seconds": armed,
        "armed_ratio": armed / disarmed,
        "work_units": sum(stats.total_work for stats in reference),
        "records": recorder.recorded_total,
    }


def report_regressions(baseline: dict, payload: dict) -> list[str]:
    """Compare against the stored baseline; return loud human lines."""
    lines: list[str] = []
    if baseline.get("scale") != payload.get("scale") or baseline.get(
        "query_count"
    ) != payload.get("query_count"):
        # A quick/CI run against a full-scale stored baseline (or vice
        # versa) would compare apples to oranges — speedups shrink with
        # scale as fixed per-query overheads dominate.
        return []
    for mode, meters in payload.get("modes", {}).items():
        old_meters = baseline.get("modes", {}).get(mode, {})
        for variant, data in meters.items():
            new = data.get("speedup_vs_oracle")
            old = old_meters.get(variant, {}).get("speedup_vs_oracle")
            if new is None or old is None:
                continue
            if new < old * REGRESSION_TOLERANCE:
                lines.append(
                    f"REGRESSION: mode {mode} variant {variant} speedup "
                    f"{new:.2f}x < stored baseline {old:.2f}x"
                )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1, help="DMV scale factor")
    parser.add_argument("--count", type=int, default=6, help="six-table query count")
    parser.add_argument("--reps", type=int, default=7, help="interleaved repetitions")
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="also measure mode BOTH (adaptive reordering) variants",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scale/count, static mode only (CI smoke)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit 1 if the engine > {CHECK_TOLERANCE:.2f}x the oracle's wall time",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_speedup.json"),
        help="where to write the JSON payload",
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.scale = min(args.scale, 0.05)
        args.count = min(args.count, 3)
        args.reps = min(args.reps, 3)
        # Quick runs still measure mode BOTH so the CI smoke exercises
        # the adaptive cascade and its engine (vacuity) gate; the absolute
        # mode-both floor stays full-scale only.
        args.adaptive = True

    db, summary = load_dmv(scale=args.scale, extended=True)
    columnar_db, _ = load_dmv(
        scale=args.scale, extended=True, backend="columnar"
    )
    queries = six_table_workload(count=args.count)

    modes = [ReorderMode.NONE]
    if args.adaptive:
        modes.append(ReorderMode.BOTH)

    payload: dict = {
        "benchmark": "six_table_speedup",
        "unix_time": time.time(),
        "host": host_metadata(),
        "scale": args.scale,
        "query_count": len(queries),
        "reps": args.reps,
        "modes": {},
        "front_end": {},
    }
    check_failed = False
    engine_gate_failed = False
    for mode in modes:
        name = mode.name.lower()
        variants = {"oracle": db, "engine": columnar_db}
        meters = measure_mode(
            queries, variants, AdaptiveConfig(mode=mode), args.reps
        )
        front_end = {
            "row": measure_front_end(db, queries, args.reps),
            "columnar": measure_front_end(columnar_db, queries, args.reps),
        }
        add_cold_walls(meters, front_end)
        oracle = meters["oracle"]["wall_seconds"]
        for meter in meters.values():
            meter["speedup_vs_oracle"] = oracle / meter["wall_seconds"]
        payload["modes"][name] = meters
        payload["front_end"][name] = front_end
        engine = meters["engine"]
        print(
            f"{name:8s} oracle={oracle:.3f}s "
            f"engine={engine['wall_seconds']:.3f}s "
            f"({engine['speedup_vs_oracle']:.2f}x, engines "
            f"{','.join(engine['engines'])})"
        )
        print(
            f"{name:8s} engine end to end: "
            f"executor={engine['wall_seconds']:.3f}s "
            f"warm={engine['end_to_end_seconds']:.3f}s "
            f"cold={engine['end_to_end_cold_seconds']:.3f}s "
            f"(parse {front_end['columnar']['parse_seconds']:.3f}s + optimize "
            f"{front_end['columnar']['optimize_seconds']:.3f}s)"
        )
        if engine["wall_seconds"] > oracle * CHECK_TOLERANCE:
            check_failed = True
        # Vacuity guard: the engine variant must actually run the
        # vectorized cascade on every query (mode NONE: the static
        # cascade; monitored modes: the chunked adaptive cascade from start
        # to finish — no mid-query hand-off, though the driving leg must
        # have been switched somewhere or that says nothing).
        expected = "vector-adaptive" if mode.monitors else "vector"
        stray = set(engine["engines"]) - {expected}
        if mode.reorders_driving:
            engine["mid_scan_driving_switches"], probed = mid_scan_pass(
                columnar_db, queries, AdaptiveConfig(mode=mode)
            )
            stray |= probed - {expected}
        if stray:
            print(
                f"CHECK FAILED: engine variant (mode {name}) ran "
                f"engine(s) {sorted(stray)}, expected {expected!r}",
                file=sys.stderr,
            )
            engine_gate_failed = True
        if mode.reorders_driving and not engine["mid_scan_driving_switches"]:
            print(
                f"CHECK FAILED: engine variant (mode {name}) never switched "
                f"its driving leg; the engine guard is vacuous",
                file=sys.stderr,
            )
            engine_gate_failed = True
        # The chunked adaptive engine's perf contract: mode BOTH at full
        # scale must hold a >=10x speedup over the oracle (quick/CI scales
        # are dominated by fixed per-query overheads, so the absolute
        # floor applies to full runs only).
        if (
            mode is ReorderMode.BOTH
            and not args.quick
            and engine["speedup_vs_oracle"] < MODE_BOTH_ENGINE_FLOOR
        ):
            print(
                f"CHECK FAILED: mode-both engine speedup "
                f"{engine['speedup_vs_oracle']:.2f}x below the "
                f"{MODE_BOTH_ENGINE_FLOOR:.0f}x floor",
                file=sys.stderr,
            )
            engine_gate_failed = True

    # The recorder's true overhead (a tuple append per kept check) sits
    # well under the scheduler-noise floor of a single pass, so the
    # differential needs more reps than the speedup table to converge. It
    # runs on the engine: what production serves, and what observing must
    # not swap out.
    observability = measure_observability(
        columnar_db, queries, max(args.reps * 3, 9)
    )
    payload["observability"] = observability
    print(
        f"observability ({observability['store']}, "
        f"{','.join(observability['engines'])}): "
        f"disarmed={observability['disarmed_wall_seconds'] * 1e3:.2f}ms "
        f"recorder={observability['recorder_wall_seconds'] * 1e3:.2f}ms "
        f"({observability['recorder_overhead_pct']:+.1f}%, "
        f"{observability['records']} records) "
        f"armed={observability['armed_wall_seconds'] * 1e3:.2f}ms "
        f"({observability['armed_ratio']:.2f}x)"
    )
    observability_failed = (
        observability["recorder_overhead_pct"] > OBSERVABILITY_GATE_PCT
        or observability["armed_ratio"] > ARMED_GATE_RATIO
    )

    # Only this run's keys are replaced: the file's other sections
    # (bench_server.py's "server") stay.
    baseline = merge_json_atomic(args.output, payload)
    print(f"wrote {args.output}")
    regressions = report_regressions(baseline, payload)
    for line in regressions:
        print(line, file=sys.stderr)
    # The engine's speedup over the oracle is a hard perf contract: under
    # --check, falling below the stored baseline fails the run (other
    # regressions stay report-only — wall-clock noise on shared runners).
    engine_regressed = any(
        line.startswith("REGRESSION: mode") and " variant engine " in line
        for line in regressions
    )

    if args.check and check_failed:
        print(
            f"CHECK FAILED: the engine is slower than the oracle by more "
            f"than {(CHECK_TOLERANCE - 1) * 100:.0f}%",
            file=sys.stderr,
        )
        return 1
    if args.check and observability_failed:
        print(
            f"CHECK FAILED: observing costs too much wall: the flight "
            f"recorder {observability['recorder_overhead_pct']:.1f}% "
            f"(budget {OBSERVABILITY_GATE_PCT:.0f}%), a fully armed bundle "
            f"{observability['armed_ratio']:.2f}x the disarmed run "
            f"(budget {ARMED_GATE_RATIO:.1f}x)",
            file=sys.stderr,
        )
        return 1
    if args.check and engine_gate_failed:
        # The specific CHECK FAILED line was already printed inline.
        return 1
    if args.check and engine_regressed:
        print(
            "CHECK FAILED: the engine's speedup over the oracle regressed "
            "below the stored baseline",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
