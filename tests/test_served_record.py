"""A served query's reply and flight record cost what the cached plan does not
already know — and are what a fresh construction makes, byte for byte.

An engine process answers a request with one reply line and one packed
flight record. What its cached plan determines is computed once per plan:
the statement's normalized text and template signature come from the plan
cache's memo (:meth:`~repro.optimizer.plancache.PlanCache.texts`), and an
unmonitored run's legs summary is its prepared record's
(:meth:`~repro.obs.recorder.QueryObservability.finish`). The differential
test holds both to what the regexes, a live :func:`snapshot_legs` and
:func:`_build_legs` make, across an ``insert`` and two ``analyze`` calls
that move the catalog generation and the priors; the counting test holds a
plan-cache hit to calling none of them.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from tests.conftest import build_three_table_db, table_rows
from tests.test_cyclic_graphs import SQL as CYCLIC
from tests.test_cyclic_graphs import build_cyclic_db
from tests.test_plan_cache import GRID
from tests.test_vector_limits import HASHED, hand_off_db

from repro.catalog.statistics import StatisticsLevel
from repro.core import controller
from repro.dmv import four_table_workload, load_dmv
from repro.executor.pipeline import PipelineExecutor
from repro.obs import recorder, timeseries
from repro.obs import QueryObservability
from repro.obs.recorder import (
    FlightRecord,
    PackedRecord,
    _build_legs,
    event_to_dict,
    feedback_to_dict,
    granularity_of,
)
from repro.obs.timeseries import snapshot_legs
from repro.optimizer import plancache
from repro.optimizer.plancache import PlanCache
from repro.query.sql.normalize import normalize_sql, template_signature
from repro.robustness.limits import ExecutionLimits, SharedCancellationToken
from repro.server.admission import CONFIGS, ServerConfig
from repro.server.server import DatabaseEngine, answer
from repro.storage.columnar import ColumnarIndex

SCALE = 0.02
MODES = ("none", "both")
CONTEXT = {"session": "session-1", "shed": "none", "queued_ms": 0.25}


def served_statements() -> list[str]:
    """The served workload's statements: 12 four-table and 8 six-table ones,
    at an even stride through each grid."""
    four = len(four_table_workload(queries_per_template=10**9))
    chosen = []
    for population, count in ((GRID[:four], 12), (GRID[four:], 8)):
        chosen += [
            population[i * len(population) // count] for i in range(count)
        ]
    return chosen


def dmv_change(db, phase: int) -> None:
    """Phase 1: 300 more cars and table sizes re-counted; phase 2: the
    detailed statistics. Each moves the generation and the priors."""
    if phase == 1:
        cars = table_rows(db.catalog.table("Car"))[:300]
        db.insert(
            "Car", [(100_000 + n, *car[1:]) for n, car in enumerate(cars)]
        )
        db.analyze(level=StatisticsLevel.CARDINALITY)
    else:
        db.analyze(level=StatisticsLevel.DETAILED)


def hashed_db():
    db = hand_off_db("columnar")
    db.plan_cache = PlanCache()  # the fixture's plans every statement afresh
    return db


def restatted(phase: int) -> StatisticsLevel:
    return StatisticsLevel.BASIC if phase == 1 else StatisticsLevel.DETAILED


def hashed_change(db, phase: int) -> None:
    db.insert("C", [(6_000 + n, 1) for n in range(300 * phase)])
    db.analyze(level=restatted(phase))


def cyclic_change(db, phase: int) -> None:
    db.insert("T2", [(n % 20, (7 * n) % 20) for n in range(100 * phase)])
    db.analyze(level=restatted(phase))


def ended_legs(pipeline) -> dict:
    """The legs *pipeline* ended with: a monitored run's own; an unmonitored
    run's (it builds none) as the scalar machine of a twin of its plan,
    prepared from scratch, starts them."""
    if pipeline.config.mode.monitors:
        return pipeline.legs
    twin = dataclasses.replace(pipeline.plan)  # no record, no step memo
    return PipelineExecutor(twin, pipeline.catalog).legs


class Watch:
    """What each execution's observability bundle saw at its end: the
    bundle, and the pipeline's legs snapshotted live and summarized."""

    def __init__(self, monkeypatch) -> None:
        self.seen = []
        finish = QueryObservability.finish

        def watched(bundle, pipeline=None):
            if pipeline is not None:
                live = snapshot_legs(pipeline, ended_legs(pipeline))
                self.seen.append(
                    (bundle, live, _build_legs(pipeline.plan, live))
                )
            finish(bundle, pipeline)

        monkeypatch.setattr(QueryObservability, "finish", watched)


def fresh_reply(request_id, result, mode, reply: dict) -> bytes:
    """The reply line as the engine built it before its record was memoized:
    rows copied to lists, ``json.dumps`` with a cycle check; the clocks and
    the query id are the reply's own."""
    stats = result.stats
    payload = {
        "id": request_id,
        "status": "ok",
        "rows": [list(row) for row in result.rows],
        "row_count": len(result.rows),
        "stats": {
            "work_units": round(stats.total_work, 3),
            "wall_ms": reply["stats"]["wall_ms"],
            "queued_ms": reply["stats"]["queued_ms"],
            "switches": stats.total_switches,
            "degraded": stats.degraded,
            "mode": mode,
            "shed": CONTEXT["shed"],
            "plan_cache": stats.plan_cache,
            "engine": stats.engine,
            "plan_feedback": feedback_to_dict(stats.plan_feedback),
            "query_id": reply["stats"]["query_id"],
        },
    }
    return (
        json.dumps(payload, separators=(",", ":"), default=str) + "\n"
    ).encode("utf-8")


def fresh_record(sql, mode, result, bundle, live_legs, record) -> FlightRecord:
    """The flight record built from scratch: both regexes, the live legs;
    id, timestamp and wall clock are the record's own."""
    stats = result.stats
    return FlightRecord(
        query_id=record.query_id,
        ts=record.ts,
        sql=normalize_sql(sql),
        template=template_signature(sql),
        mode=mode,
        outcome="ok",
        wall_ms=record.wall_ms,
        work_units=stats.total_work,
        rows=len(result.rows),
        plan_order=tuple(result.plan.order),
        plan_cost=result.plan.estimated_cost,
        final_order=result.final_order,
        monitor_granularity=granularity_of(stats.engine),
        engine=stats.engine,
        plan_cache=stats.plan_cache,
        plan_feedback=feedback_to_dict(stats.plan_feedback),
        legs=live_legs,
        events=[event_to_dict(event) for event in stats.events],
        decisions=list(bundle.decisions),
        session=CONTEXT["session"],
        shed=CONTEXT["shed"],
        queued_ms=CONTEXT["queued_ms"],
    )


CASES = {
    "served": (
        lambda: load_dmv(scale=SCALE, extended=True, backend="columnar")[0],
        served_statements,
        dmv_change,
    ),
    "hashed": (hashed_db, lambda: [HASHED], hashed_change),
    "cyclic": (
        lambda: build_cyclic_db(backend="columnar"),
        lambda: [CYCLIC],
        cyclic_change,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_replies_and_records_are_a_fresh_construction(case, monkeypatch):
    build, statements, change = CASES[case]
    db = build()
    config = ServerConfig()
    engine = DatabaseEngine(db, config)
    token = SharedCancellationToken()
    budgets = (
        config.default_max_rows,
        config.max_work_units,
        config.default_timeout_ms / 1000.0,
    )
    results = []
    execute = db.execute

    def keeping(*args, **kwargs):
        results.append(execute(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(db, "execute", keeping)
    watch = Watch(monkeypatch)
    pairs = [(sql, mode) for sql in statements() for mode in MODES]
    legs_by_phase: list[dict] = []
    shared = live = 0
    for phase in range(3):
        if phase:
            change(db, phase)
        legs_by_phase.append({})
        for execution in range(3):
            for number, (sql, mode) in enumerate(pairs):
                request_id = (phase, execution, number)
                header, line = answer(
                    engine, (sql, mode, budgets, request_id, CONTEXT), token
                )
                result = results.pop()
                bundle, live_legs, built_legs = watch.seen.pop()
                assert not results and not watch.seen
                reply = json.loads(line)
                assert header["outcome"] == "ok" and reply["status"] == "ok"
                assert line == fresh_reply(
                    list(request_id), result, mode, reply
                ), (case, request_id, sql)
                record = PackedRecord._make(header["record"]).unpack()
                want = fresh_record(
                    sql, mode, result, bundle, built_legs, record
                )
                assert record.to_dict() == want.to_dict(), (case, request_id)
                # A monitored run is snapshotted as it ends; an unmonitored
                # one takes its prepared record's summary.
                monitored = (
                    mode != "none" and result.stats.plan_feedback is None
                )
                assert (bundle.legs is None) == monitored
                shared += not monitored
                live += monitored
                legs_by_phase[phase][sql, mode] = record.legs
    assert shared and live
    # The changes moved the priors the summaries carry: a summary kept
    # across them would have failed above.
    for before, after in zip(legs_by_phase, legs_by_phase[1:]):
        assert any(before[key] != after[key] for key in before), case


class Calls:
    """Counts calls to the regexes and the live legs snapshot, wherever a
    module imported them."""

    WATCHED = (
        (plancache, "normalize_sql"),
        (plancache, "template_signature"),
        (recorder, "normalize_sql"),
        (recorder, "template_signature"),
        (recorder, "snapshot_legs"),
        (timeseries, "snapshot_legs"),
        (controller, "snapshot_legs"),
    )

    def __init__(self, monkeypatch) -> None:
        self.counts = {}
        for owner, name in self.WATCHED:
            monkeypatch.setattr(
                owner, name, self._counting(getattr(owner, name), name)
            )

    def _counting(self, function, name):
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return function(*args, **kwargs)

        return counted

    def take(self) -> dict:
        counts, self.counts = self.counts, {}
        return counts


def test_a_plan_cache_hit_calls_no_regex_and_takes_no_snapshot(monkeypatch):
    """Through ``DatabaseEngine.execute``: a hit that monitors nothing —
    mode none, or a learned text in mode both — normalizes nothing and
    snapshots nothing; a text's first monitored run snapshots once."""
    db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    engine = DatabaseEngine(db, ServerConfig())
    calls = Calls(monkeypatch)

    def run(sql, mode):
        return engine.execute(sql, CONFIGS[mode], ExecutionLimits(), CONTEXT)

    quiet = 0
    for sql in served_statements():
        run(sql, "none")
        # The miss: each regex once, and the summary built.
        assert calls.take() == {
            "normalize_sql": 1, "template_signature": 1, "snapshot_legs": 1
        }, sql
        for _ in range(2):
            assert run(sql, "none").plan_cache == "hit"
            assert calls.take() == {}, sql
        first = run(sql, "both")
        counts = calls.take()
        if first.switches == 0:  # an applied switch snapshots for its audit
            quiet += 1
            assert counts == {"snapshot_legs": 1}, sql
        learned = run(sql, "both")
        assert learned.plan_feedback is not None and learned.plan_cache == "hit"
        # The lesson's first run builds its plan's summary, unless the
        # lesson is the plan that ran already.
        assert calls.take() in ({}, {"snapshot_legs": 1}), sql
        run(sql, "both")
        assert calls.take() == {}, sql
    assert quiet


def test_kernel_bytes_are_measured_again_only_when_a_memo_changed(
    monkeypatch,
):
    """``counters()`` rides on every reply; it re-measures the kernel-plan
    bytes when an index built a kernel or a row-rank array, not per read."""
    db = build_three_table_db(backend="columnar")
    engine = DatabaseEngine(db, ServerConfig())
    engine.prepare_fork()
    measured = []
    footprint = ColumnarIndex.kernel_footprint

    def counting(index):
        measured.append(index)
        return footprint(index)

    monkeypatch.setattr(ColumnarIndex, "kernel_footprint", counting)
    first = engine.counters()
    reads = len(measured)
    assert reads and engine.counters() == first and len(measured) == reads
    sql = (
        "SELECT o.name, c.make FROM Owner o, Car c "
        "WHERE c.ownerid = o.id AND c.make = 'A'"
    )
    engine.execute(sql, CONFIGS["none"], ExecutionLimits(), CONTEXT)
    after = engine.counters()
    assert len(measured) > reads and after[1] > first[1]
    assert after[1] == sum(map(footprint, engine._columnar_indexes))
