"""Differential tests: the columnar backend is observably the row store.

The storage backend is an implementation detail below the executor's
semantics: for every reorder mode and chunk length, the
columnar backend must produce

* identical result rows **in identical order**,
* an identical final :class:`~repro.storage.counters.WorkMeter` (the
  deterministic work-unit accounting the paper's comparisons rest on),
* identical :class:`~repro.core.events.AdaptationEvent` sequences (same
  decisions at the same driving-row positions),

as the row backend running the same queries: the engine — the columnar
cascade — against the row store's scalar machine (directly for static
plans; for monitored ones, whose decisions fall at chunk boundaries,
through the decision replay of ``tests/test_decision_replay.py``: rows in
order, physical work, final order and frozen positions under the engine's
own schedule), and that oracle's machine built by hand against the one
``Database.execute`` runs on the row store (a columnar table keeps no row
tuples, so the scalar machine runs on the row store alone). Columnar
execution — typed columns, predicate masks, kernel-vectorized probes,
and the whole-query cascade — is a pure speed change, never a semantic one.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import AdaptiveConfig, ReorderMode
from repro.core.controller import AdaptationController
from repro.core.events import EventKind
from repro.dmv import load_dmv, six_table_workload
from repro.executor import vector
from repro.executor.pipeline import PipelineExecutor
from repro.query.predicates import PositionalPredicate

from tests.test_decision_replay import assert_replays

SCALE = 0.02

#: Small joins exercise the two- and three-leg shapes (incl. a table-scan
#: driving leg); the six-table templates exercise deep adaptive pipelines.
SMALL_QUERIES = [
    "SELECT o.name, c.make FROM Car c, Owner o "
    "WHERE c.ownerid = o.id AND c.year >= 2005",
    "SELECT o.name, d.salary FROM Demographics d, Owner o, Car c "
    "WHERE d.ownerid = o.id AND c.ownerid = o.id AND d.salary > 50000 "
    "AND c.make = 'Mazda'",
]

#: (id, the engine's chunk length); None = the oracle's machine built by
#: hand against ``Database.execute``'s on the row store, no engine.
CONFIGS = [
    ("scalar", None),
    ("batched", 256),
    ("batched-64", 64),
    ("batched-7", 7),
]


# No plan cache: the tests below run one statement in several modes and
# configurations on these shared databases, and each run means "the
# optimizer's plan", not "where the previous monitored run ended" (plan
# feedback; tests/test_plan_feedback.py holds the backends equal there).
@pytest.fixture(scope="module")
def row_db():
    db, _ = load_dmv(
        scale=SCALE, extended=True, backend="row", plan_cache_size=0
    )
    return db


@pytest.fixture(scope="module")
def columnar_db():
    db, _ = load_dmv(
        scale=SCALE, extended=True, backend="columnar", plan_cache_size=0
    )
    return db


@pytest.fixture(scope="module")
def workload():
    return SMALL_QUERIES + [q.sql for q in six_table_workload(count=3)]


def scalar_machine(db, sql, config) -> tuple[list, PipelineExecutor]:
    """The oracle's machine over *db*'s store: ``(rows, executor)``."""
    controller = AdaptationController(config) if config.mode.monitors else None
    executor = PipelineExecutor(db.plan(sql), db.catalog, config, controller)
    if controller is not None:
        controller.attach(executor)
    return executor.run_to_completion(), executor


@pytest.mark.parametrize(
    "mode",
    [ReorderMode.NONE, ReorderMode.INNER_ONLY, ReorderMode.BOTH],
    ids=lambda m: m.name.lower(),
)
@pytest.mark.parametrize("name,chunk_rows", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_columnar_bit_identical_to_row(
    row_db, columnar_db, workload, mode, name, chunk_rows, monkeypatch
):
    config = AdaptiveConfig(mode=mode)
    if chunk_rows is not None:
        monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", chunk_rows)
    for sql in workload:
        tag = f"{mode.name} {name}: {sql[:60]}"
        if chunk_rows is None:
            # The reference the replays build by hand is the oracle.
            row_rows, row = scalar_machine(row_db, sql, config)
            run = row_db.execute(sql, config)
            assert run.stats.engine == "scalar", tag
            assert run.rows == row_rows, tag
            assert dataclasses.asdict(run.stats.work) == dataclasses.asdict(
                row.work
            ), tag
            assert list(run.stats.events) == row.events, tag
        elif mode.monitors:
            _, engine, oracle = assert_replays(
                row_db, columnar_db, sql, config, tag=tag
            )
            assert engine.engine_used == "vector-adaptive", tag
            assert oracle is not None
        else:
            row = row_db.execute(sql, config)
            col = columnar_db.execute(sql, config)
            assert (row.stats.engine, col.stats.engine) == ("scalar", "vector")
            assert col.rows == row.rows, tag
            assert dataclasses.asdict(col.stats.work) == dataclasses.asdict(
                row.stats.work
            ), tag


def test_columnar_adapts_on_the_workload(
    row_db, columnar_db, workload, monkeypatch
):
    """Guard against vacuous event equality: mode BOTH must actually adapt
    somewhere on this workload — on the oracle's machine and on the engine
    (mid-scan: a finished scan applies nothing, and at this scale a first
    chunk of 256 is most of a scan) — so the comparisons above compare
    non-empty sequences."""
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 7)
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    oracle = engine = 0
    for sql in workload:
        oracle += len(scalar_machine(row_db, sql, config)[1].events)
        engine += len(columnar_db.execute(sql, config).stats.events)
    assert oracle > 0 and engine > 0


def _driving_switches(stats) -> int:
    return sum(
        1 for event in stats.events if event.kind is EventKind.DRIVING_SWITCH
    )


def test_adaptive_vector_engine_engages(columnar_db, workload, monkeypatch):
    """Guard against a vacuous comparison: the columnar database must
    run the vectorized adaptive cascade from start to
    finish — across driving switches too, so the driving modes must
    actually switch (mid-scan, from a small first chunk) somewhere on this
    workload."""
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 7)
    for mode in (
        ReorderMode.INNER_ONLY,
        ReorderMode.DRIVING_ONLY,
        ReorderMode.BOTH,
    ):
        config = AdaptiveConfig(mode=mode)
        results = [columnar_db.execute(sql, config).stats for sql in workload]
        engines = {stats.engine for stats in results}
        if mode.reorders_driving:
            assert sum(map(_driving_switches, results)) >= 1, mode.name
        assert engines == {"vector-adaptive"}, (mode.name, engines)
        assert {stats.vector_gate for stats in results} == {None}


#: Four-table grid statements whose driving leg is switched at scale 0.04.
SWITCH_SCALE = 0.04
SWITCHING_STATEMENTS = (192, 195, 306)


@pytest.fixture(scope="module")
def switching_dbs():
    return [
        load_dmv(
            scale=SWITCH_SCALE,
            extended=True,
            backend=backend,
            plan_cache_size=0,
        )[0]
        for backend in ("row", "columnar")
    ]


@pytest.mark.parametrize(
    "mode",
    [ReorderMode.DRIVING_ONLY, ReorderMode.BOTH],
    ids=lambda m: m.name.lower(),
)
def test_cascade_survives_driving_switches(switching_dbs, mode):
    """A driving switch freezes the old driving leg behind a positional
    predicate and resumes or opens another cursor; the cascade must take
    both in its stride (positional kernel, new driving walk) and stay
    equal to the row store's oracle applying the same switches."""
    from repro.dmv import four_table_workload

    row_db, columnar_db = switching_dbs
    grid = [q.sql for q in four_table_workload(queries_per_template=10**9)]
    config = AdaptiveConfig(mode=mode)
    switches = 0
    for number in SWITCHING_STATEMENTS:
        sql = grid[number]
        _, engine, oracle = assert_replays(row_db, columnar_db, sql, config, tag=sql)
        switches += engine.driving_switches
        assert engine.engine_used == "vector-adaptive", sql
        assert oracle.driving_switches == engine.driving_switches
    assert switches >= len(SWITCHING_STATEMENTS)  # not vacuous
    # Positional kernels are per query: the index memos only ever hold
    # kernels keyed by local predicates.
    catalog = columnar_db.catalog
    for name in catalog.table_names():
        for index in catalog.indexes_of(name).values():
            for predicates_key in index._kernels:
                assert not any(
                    isinstance(predicate, PositionalPredicate)
                    for predicate in predicates_key
                )


def test_switched_query_reports_no_gate_and_retains_no_kernel(switching_dbs):
    """Staying on the cascade across a switch is invisible to the observers:
    the flight record and the EXPLAIN ANALYZE engine line name the engine
    (and no gate: the name is from when one could), and the kernel-plan
    gauge does not count the per-query positional kernels (nothing retains
    them)."""
    from repro.dmv import four_table_workload
    from repro.obs.explain import render_explain_analyze
    from repro.obs.recorder import FlightRecorder

    _, columnar_db = switching_dbs
    grid = [q.sql for q in four_table_workload(queries_per_template=10**9)]
    sql = grid[SWITCHING_STATEMENTS[0]]
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    columnar_db.execute(sql, config)  # the base kernels are built by now
    plan_bytes = columnar_db.storage_stats()["kernel_plan_bytes"]
    assert plan_bytes > 0

    recorder = FlightRecorder(capacity=4)
    bundle = recorder.arm()
    result = columnar_db.execute(sql, config, obs=bundle)
    record = recorder.finish_query(bundle, result, sql=sql, config=config)
    assert result.stats.driving_switches >= 1
    assert record.engine == "vector-adaptive"
    assert "vector_gate" not in record.to_dict()
    assert "engine: vector-adaptive" in render_explain_analyze(result).splitlines()
    assert columnar_db.storage_stats()["kernel_plan_bytes"] == plan_bytes


def test_unmaskable_driving_locals_gate_the_adaptive_cascade():
    """Both cascades read the driving leg through ``_DrivingWalk``, which
    needs every residual local of that leg as a whole-column mask. The
    shapes that once had none (an INT column boxed by a value past int64,
    an ordering against a constant of another type) are refused on both
    stores — the first at load, the second at planning — so the name is
    historical: what remains runs the cascade from the first row, with the
    row backend's rows and work."""
    from repro import Database
    from repro.errors import QueryError, StorageError

    def build(backend):
        db = Database(backend=backend)
        db.create_table("A", [("id", "int"), ("big", "int"), ("s", "string")])
        db.create_table("B", [("aid", "int"), ("v", "int")])
        with pytest.raises(StorageError, match="64-bit"):
            db.insert("A", [(50, 2**70, "x")])
        db.insert("A", [(i, 3 * i, f"s{i % 4}") for i in range(50)])
        db.insert("B", [(i % 50, i) for i in range(200)])
        db.create_index("A", "id")
        db.create_index("B", "aid")
        db.analyze()
        return db

    base = "SELECT a.id, b.v FROM A a, B b WHERE b.aid = a.id AND "
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    dbs = {backend: build(backend) for backend in ("row", "columnar")}
    for db in dbs.values():
        with pytest.raises(QueryError, match="cannot order"):
            db.execute(base + "a.s >= 10", config)
    sql = base + "a.big >= 10 AND a.s <> 's1'"
    col = dbs["columnar"].execute(sql, config)
    row = dbs["row"].execute(sql, config)
    assert col.stats.order_history[0][0] == "a"  # the once-gated leg drives
    assert (col.stats.engine, col.stats.vector_gate) == ("vector-adaptive", None)
    assert sorted(col.rows) == sorted(row.rows) and col.rows
    static = AdaptiveConfig(mode=ReorderMode.NONE)
    col, row = (dbs[b].execute(sql, static) for b in ("columnar", "row"))
    assert col.rows == row.rows
    assert col.stats.work == row.stats.work


def test_kernel_plan_gauge_sums_the_per_table_bytes(columnar_db, workload):
    """A cascade run leaves its kernel plan materialized on the catalog,
    observable through the storage_stats gauge."""
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    columnar_db.execute(workload[-1], config)
    stats = columnar_db.storage_stats()
    assert stats["kernel_plan_bytes"] > 0
    assert stats["kernel_plan_bytes"] == sum(
        entry["kernel_bytes"] for entry in stats["per_table"]
    )
