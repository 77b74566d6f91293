"""A plan's prepared record: built once per catalog generation, installed by
every execution.

What an execution derives from its plan and the catalog alone — bound local
tests, projection slots, model parts, the starting probe program, the
cascade's starting kernels and key gathers, the fresh driving walk's arrays
— is built into one record (:func:`repro.executor.pipeline._prepare`) the
first time the plan runs under a catalog generation, and every later
execution installs it. The contract: a repeat execution is the first one,
bit for bit, with or without limits, faults, the invariant oracle or
observability armed; a new generation rebuilds the record and the plan
cache drops every entry the first time it sees one.
"""

from __future__ import annotations

import dataclasses

import numpy
import pytest

from repro import (
    AdaptiveConfig,
    Database,
    ExecutionLimits,
    ReorderMode,
    StatisticsLevel,
)
from repro.dmv import load_dmv
from repro.errors import BudgetExceeded
from repro.executor import pipeline, vector
from repro.optimizer import plancache
from repro.optimizer.plancache import HIT, MISS, PlanCache
from repro.robustness.faults import FaultPlan, FaultSpec
from repro.storage.columnar import ColumnarIndex

from tests.conftest import build_three_table_db
from tests.test_plan_cache import GRID

SCALE = 0.02
NONE = AdaptiveConfig(mode=ReorderMode.NONE)
MODES = [
    ReorderMode.NONE,
    ReorderMode.INNER_ONLY,
    ReorderMode.DRIVING_ONLY,
    ReorderMode.BOTH,
]
# Both grids at an even stride: four- and six-table statements.
STATEMENTS = GRID[::29]


def eager(mode: ReorderMode) -> AdaptiveConfig:
    """*mode*, checking often and switching on any gain: runs that adapt."""
    if not mode.monitors:
        return AdaptiveConfig(mode=mode)
    return AdaptiveConfig(
        mode=mode, check_frequency=2, switch_benefit_threshold=0.0
    )


def facts(result) -> tuple:
    """What two executions of one plan must agree on, bit for bit."""
    return (
        result.rows,
        dataclasses.asdict(result.stats.work),
        result.stats.events,
        result.stats.order_history,
        result.stats.engine,
    )


@pytest.fixture(scope="module")
def dbs():
    return {
        backend: load_dmv(scale=SCALE, extended=True, backend=backend)[0]
        for backend in ("row", "columnar")
    }


def fresh_plan(db: Database, sql: str):
    """A plan of *sql* no execution has prepared (optimized afresh)."""
    plan = db.plan(db.parse(sql))
    assert "_prepared" not in plan.__dict__
    return plan


# ---------------------------------------------------------------------------
# Executions 1, 2 and 3 are one execution
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name.lower())
@pytest.mark.parametrize("backend", ["row", "columnar"])
def test_executions_of_a_handed_in_plan_are_identical(
    dbs, backend, mode, monkeypatch
):
    """Rows in order, every WorkMeter field, events, order history and
    engine: execution 1 builds the record, 2 and 3 install it."""
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 16)
    db = dbs[backend]
    config = eager(mode)
    adapted = 0
    for sql in STATEMENTS:
        plan = fresh_plan(db, sql)
        first = facts(db.execute(plan, config))
        record = plan.__dict__["_prepared"]
        for _ in range(2):
            assert facts(db.execute(plan, config)) == first, sql
        assert plan.__dict__["_prepared"] is record
        adapted += bool(first[2])
        if isinstance(record.cascade, tuple):
            # Every execution walked a copy: the prepared walk has no leg,
            # no meter and no progress of its own.
            walk = record.cascade[1]
            assert walk.leg is None and walk.meter is None
            assert walk.taken == walk.survivors_taken == walk.spans_entered == 0
            assert walk.last_position is None
    assert (adapted > 0) == mode.monitors, adapted


class Calls:
    """Counts the calls to what a prepared record makes unnecessary."""

    WATCHED = (
        (vector, "assemble"),
        (pipeline, "memo_step"),
        (vector._DrivingWalk, "__init__"),
        (plancache, "normalize_sql"),
        (ColumnarIndex, "cascade_groups"),
        (ColumnarIndex, "row_ranks"),
        (pipeline, "_prepare"),
    )

    def __init__(self, monkeypatch) -> None:
        self.counts = {name: 0 for _, name in self.WATCHED}
        for owner, name in self.WATCHED:
            monkeypatch.setattr(owner, name, self._counting(getattr(owner, name), name))

    def _counting(self, function, name):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return function(*args, **kwargs)

        return counted

    def take(self) -> dict:
        counts, self.counts = self.counts, dict.fromkeys(self.counts, 0)
        return counts


def test_a_repeat_execution_only_runs_the_join(monkeypatch):
    """Through the plan cache on the engine: once a text's record exists, an
    execution with no applied event derives nothing — no kernel plan, no
    walk, no key normalization, no record. Whitespace variants of the text
    are the same entry and normalize once each."""
    db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    calls = Calls(monkeypatch)
    for sql in STATEMENTS:
        first = db.execute(sql, NONE)
        built = calls.take()
        assert built["_prepare"] == 1 and built["normalize_sql"] == 1, sql
        assert first.stats.engine == "vector"
        again = db.execute(sql, NONE)
        assert facts(again) == facts(first)
        assert set(calls.take().values()) == {0}, sql
        spaced = "  " + sql.replace(" FROM ", "\n  FROM ").replace(
            " WHERE ", "\nWHERE\t"
        )
        assert facts(db.execute(spaced, NONE)) == facts(first)
        assert calls.take() == {**dict.fromkeys(calls.counts, 0), "normalize_sql": 1}
    assert len(db.plan_cache) == len(STATEMENTS)


# ---------------------------------------------------------------------------
# A new generation: a new record, and an empty cache
# ---------------------------------------------------------------------------
THREE = (
    "SELECT o.name, c.make FROM Owner o, Car c "
    "WHERE c.ownerid = o.id AND c.make = 'A'"
)


@pytest.mark.parametrize("backend", ["row", "columnar"])
def test_an_insert_reaches_the_driving_walk(backend, monkeypatch):
    """The handed-in plan and the text alike see the inserted rows, as the
    row store's oracle does, and the next execution builds one record."""
    db = build_three_table_db(backend=backend)
    oracle = build_three_table_db()
    plan = db.plan(THREE)
    before = db.execute(plan, NONE)
    assert db.execute(THREE, NONE).rows == before.rows
    added = [(9_000 + n, n % 7, "A") for n in range(25)]
    calls = Calls(monkeypatch)
    for database in (db, oracle):
        database.insert("Car", added)
    handed = db.execute(plan, NONE)
    assert calls.take()["_prepare"] == 1
    text = db.execute(THREE, NONE)
    assert calls.take()["_prepare"] == 1  # the text's new plan
    want = oracle.execute(THREE, NONE)
    assert len(want.rows) == len(before.rows) + len(added)
    assert sorted(handed.rows) == sorted(want.rows)
    assert text.rows == want.rows
    assert dataclasses.asdict(text.stats.work) == dataclasses.asdict(
        want.stats.work
    )


@pytest.mark.parametrize(
    "change",
    [
        lambda db: db.create_index("Car", "id"),
        lambda db: db.analyze(level=StatisticsLevel.DETAILED),
        lambda db: db.insert("Demo", [(10_001, 50_000)]),
    ],
    ids=["create_index", "analyze", "insert"],
)
def test_the_first_stale_lookup_drops_every_entry(change, monkeypatch):
    db = build_three_table_db(backend="columnar")
    others = [
        "SELECT o.name FROM Owner o, Demo d WHERE d.ownerid = o.id",
        "SELECT c.make FROM Car c, Demo d WHERE d.ownerid = c.ownerid",
    ]
    stale = db.execute(THREE, NONE).plan
    for sql in others:
        db.execute(sql, NONE)
    assert len(db.plan_cache) == 3
    change(db)
    sizes = []
    optimize = db._optimize

    def replanning(spec, tracer):
        sizes.append(len(db.plan_cache))
        return optimize(spec, tracer)

    monkeypatch.setattr(db, "_optimize", replanning)
    result = db.execute(THREE, NONE)
    assert result.stats.plan_cache == MISS and result.plan is not stale
    assert sizes == [0]
    assert db.plan_cache.stats()["invalidations"] == 3
    assert len(db.plan_cache) == 1
    assert db.execute(THREE, NONE).stats.plan_cache == HIT
    # The handed-in stale plan rebuilds its own record.
    record = stale.__dict__["_prepared"]
    db.execute(stale, NONE)
    assert stale.__dict__["_prepared"] is not record
    assert stale.__dict__["_prepared"].generation == db.catalog.generation()


# ---------------------------------------------------------------------------
# Armed runs on a prepared plan are armed runs on an unprepared one
# ---------------------------------------------------------------------------
def prepared_and_unprepared(db, sql, config):
    """(a plan that ran before, a plan of *sql* no execution prepared)."""
    prepared = fresh_plan(db, sql)
    db.execute(prepared, config)
    return prepared, fresh_plan(db, sql)


ARMED = STATEMENTS[::3]


@pytest.mark.parametrize("backend", ["row", "columnar"])
def test_a_fault_plan_fires_alike(dbs, backend, monkeypatch):
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 16)
    db = dbs[backend]
    faults = FaultPlan(
        specs=tuple(
            FaultSpec(site=site, probability=0.05)
            for site in ("index-lookup", "cursor-advance", "monitor")
        ),
        seed=11,
    )
    config = eager(ReorderMode.BOTH)
    fired = 0
    for sql in ARMED:
        outcomes = []
        for plan in prepared_and_unprepared(db, sql, config):
            injector = faults.build()
            result = db.execute(plan, config, fault_plan=injector)
            calls = {site: injector.calls(site) for site in injector.fired}
            outcomes.append((facts(result), dict(injector.fired), calls))
            fired += injector.total_fired
        assert outcomes[0] == outcomes[1], sql
    assert fired > 0


@pytest.mark.parametrize("backend", ["row", "columnar"])
def test_the_invariant_oracle_sees_alike(dbs, backend):
    db = dbs[backend]
    config = eager(ReorderMode.BOTH)
    for sql in ARMED:
        runs = [
            db.execute(plan, config, oracle=True)
            for plan in prepared_and_unprepared(db, sql, config)
        ]
        assert facts(runs[0]) == facts(runs[1]), sql
        assert runs[0].oracle.diff_against(runs[1].oracle) is None
        assert runs[0].oracle.emits == runs[1].oracle.emits == len(runs[0].rows)


@pytest.mark.parametrize("backend", ["row", "columnar"])
def test_max_rows_stops_alike(dbs, backend):
    db = dbs[backend]
    config = eager(ReorderMode.BOTH)
    stopped = 0
    for sql in ARMED:
        total = len(db.execute(fresh_plan(db, sql), config).rows)
        if total < 2:
            continue
        limits = ExecutionLimits(max_rows=total // 2)
        seen = []
        for plan in prepared_and_unprepared(db, sql, config):
            before = db.catalog.meter.snapshot()
            with pytest.raises(BudgetExceeded) as raised:
                db.execute(plan, config, limits=limits)
            error = raised.value
            # The meter's fields, not ``error.work_units``: a float
            # difference of two running totals.
            work = dataclasses.asdict(db.catalog.meter - before)
            seen.append((error.rows_emitted, work, error.driving_rows))
        assert seen[0] == seen[1] and seen[0][0] == total // 2, sql
        stopped += 1
    assert stopped > 0


def observed(result) -> tuple:
    """The deterministic part of what an armed bundle recorded."""
    spans = [
        (span.name, span.kind, span.attrs)
        for span in result.trace.spans
        if span.name not in ("query", "execute")
    ]
    return facts(result), spans, [sample.as_dict() for sample in result.samples]


@pytest.mark.parametrize("backend", ["row", "columnar"])
@pytest.mark.parametrize("mode", [ReorderMode.NONE, ReorderMode.BOTH])
def test_obs_sees_alike(dbs, backend, mode):
    db = dbs[backend]
    config = eager(mode)
    for sql in ARMED:
        runs = [
            observed(db.execute(plan, config, obs=True))
            for plan in prepared_and_unprepared(db, sql, config)
        ]
        assert runs[0] == runs[1], sql


# ---------------------------------------------------------------------------
# The plan cache's text memo
# ---------------------------------------------------------------------------
def test_whitespace_variants_share_one_entry_and_the_memo_stays_bounded():
    cache = PlanCache(capacity=4)
    planned = []

    def planner(sql):
        planned.append(sql)
        return sql

    variants = ["SELECT 1", "SELECT  1", "SELECT\n1", " SELECT 1\n"]
    outcomes = [cache.get_or_plan(sql, ("g",), planner)[1] for sql in variants]
    assert outcomes == [MISS, HIT, HIT, HIT] and planned == ["SELECT 1"]
    assert len(cache) == 1
    for number in range(10):
        cache.get_or_plan(f"SELECT {number}", ("g",), planner)
        assert len(cache._keys) <= cache.capacity
    assert len(cache) == cache.capacity


# ---------------------------------------------------------------------------
# Kernels a record keeps are counted
# ---------------------------------------------------------------------------
def grid_records():
    """The four-table grid asks an index for more kernels than its
    first-in-first-out memo holds: the records of the cached plans keep
    the evicted ones alive."""
    db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    return db, GRID[:396]


def string_cyclic_records():
    """A three-table cyclic join on string columns: its last leg's residual
    join compares the outer column's codes translated into the leg's, one
    int64 per outer row that only the step memo holds."""
    db = Database(backend="columnar")
    db.create_table("S1", [("a", "string"), ("b", "string")])
    db.create_table("S2", [("a", "string"), ("c", "string")])
    db.create_table("S3", [("b", "string"), ("c", "string")])
    for table in ("S1", "S2", "S3"):
        db.insert(
            table, [(f"k{n % 20}", f"v{n * 7 % 30}") for n in range(300)]
        )
        for column in db.catalog.table(table).schema.columns:
            db.create_index(table, column.name)
    db.analyze()
    return db, [
        "SELECT x.a FROM S1 x, S2 y, S3 z "
        "WHERE x.a = y.a AND x.b = z.b AND y.c = z.c"
    ]


def test_kernel_plan_bytes_count_what_cached_records_hold():
    """What the records of cached plans keep alive beyond every index's
    memos is counted in storage_stats, attributed to one table each."""
    for records in (grid_records, string_cyclic_records):
        check_kernel_plan_bytes(records)


def check_kernel_plan_bytes(records) -> None:
    db, statements = records()
    for sql in statements:
        db.execute(sql, NONE)
    held = {}
    for plan in db.plan_cache.plans():
        for table, array in pipeline.held_arrays(plan, db.catalog):
            assert held.setdefault(id(array), (table, array))[0] == table
            held[id(array)] = (table, array)
    resident = {
        id(array)
        for name in db.catalog.table_names()
        for index in db.catalog.indexes_of(name).values()
        for array in index.kernel_arrays()
    }
    evicted = [array for key, (_, array) in held.items() if key not in resident]
    assert evicted, "no record outlived its index's kernel memo"
    if records is string_cyclic_records:
        cells = [
            outer
            for plan in db.plan_cache.plans()
            for step in plan.__dict__["_prepared"].bindings.memo.values()
            if step.probe is not None
            for _, outer, *_ in step.probe.residuals
        ]
        assert cells and all(
            id(array) in held and array.dtype == numpy.int64 for array in cells
        )
        evicted_bytes = sum(array.nbytes for array in evicted)
        assert evicted_bytes >= sum(array.nbytes for array in cells)
    else:
        # A unique kernel's first-RID array is among what both count.
        firsts = [
            kernel.first_rids
            for plan in db.plan_cache.plans()
            for _, _, kernel, *_ in plan.__dict__["_prepared"].cascade[0]
            if kernel.first_rids is not None
        ]
        assert firsts and all(id(array) in held for array in firsts)
        memo_firsts = [
            kernel.first_rids
            for name in db.catalog.table_names()
            for index in db.catalog.indexes_of(name).values()
            for kernel in index._kernels.values()
            if kernel.first_rids is not None
        ]
        assert memo_firsts and all(id(array) in resident for array in memo_firsts)
    stats = db.storage_stats()
    assert stats["kernel_plan_bytes"] == sum(
        table["kernel_bytes"] for table in stats["per_table"]
    )
    assert stats["kernel_plan_bytes"] >= sum(array.nbytes for array in evicted) + sum(
        index.kernel_footprint()
        for name in db.catalog.table_names()
        for index in db.catalog.indexes_of(name).values()
    )
    # A new generation: no record is current, the memos are gone.
    db.analyze()
    assert all(
        not pipeline.held_arrays(plan, db.catalog) for plan in db.plan_cache.plans()
    )
