"""Learn once: a text's first monitored run teaches every later one.

The first monitored execution of SQL text in a mode writes its lesson into
the plan-cache entry: a *feedback plan* (the order its checks proposed at a
finished scan, else the order it ended on, with the estimates it measured;
the unchanged plan when that is the order it started from). Every later
execution of the text in that mode runs the feedback plan as a static plan:
no monitor, no controller, no check (DESIGN.md Sec 4j). What this file
holds:

* over both template grids, every monitored mode, three passes: rows stay
  the oracle's, learned passes are static and never cost much more than the
  optimizer's plan; first executions and every mode-NONE execution are
  what a database without feedback runs, bit for bit;
* who writes (a text's first monitored run in its mode, completed
  undisturbed) and who never does (budget trips, a degraded or
  fault-injected run);
* who reads (later executions of the text in the mode that wrote it) and
  who never does (mode NONE, another monitored mode, ``db.plan``, a spec
  or a plan handed in, a cache that is off);
* what drops it: ANALYZE, ``insert``, ``create_index``, LRU eviction;
* one well-formed feedback plan under 8 threads; the served wire field; the
  observability surfaces; an Example-1-style statement whose best order
  depends on the scan position.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
import threading

import pytest

import repro.core.controller
from repro import (
    AdaptiveConfig,
    Database,
    ExecutionLimits,
    ReorderMode,
    StatisticsLevel,
)
from repro.dmv import load_dmv
from repro.errors import BudgetExceeded, ExecutionError
from repro.executor import vector
from repro.executor.pipeline import _bind_plan
from repro.obs.audit import render_replay
from repro.obs.metrics import MetricsRegistry, record_plan_cache_gauges
from repro.obs.recorder import FlightRecord, FlightRecorder
from repro.obs.schema import validate_flight_record
from repro.optimizer.cost import cost_of_order
from repro.optimizer.plancache import HIT, MISS, OFF, PlanCache
from repro.robustness.faults import FaultPlan, FaultSpec
from repro.robustness.limits import CancellationToken

from tests.test_order_search import _provider_of
from tests.test_plan_cache import ENGINES, GRID, SCALE, serve
from tests.test_server import ServerClient
from tests.test_server_telemetry import validate_stats

NONE = AdaptiveConfig(mode=ReorderMode.NONE)
MONITORED = [mode for mode in ReorderMode if mode.monitors]


def observed(result) -> tuple:
    """What the differential contract compares, bit for bit."""
    return (
        result.rows,
        dataclasses.asdict(result.stats.work),
        result.stats.events,
        result.final_order,
    )


# ---------------------------------------------------------------------------
# Both template grids, every monitored mode, three passes
# ---------------------------------------------------------------------------
# ENGINES: the engine the benchmark runs (columnar, chunk semantics) on all
# 696 statements; the reference oracle (row store, scalar) on every eighth.
@pytest.fixture(scope="module", params=ENGINES)
def grid_dbs(request):
    """``(engine, learning database, its twin without a plan cache, the
    twin's mode-NONE results)``.

    The twin plans every statement afresh and keeps nothing: it runs what
    the commit before plan feedback ran.
    """
    backend, statements = ENGINES[request.param]
    db, _ = load_dmv(scale=SCALE, extended=True, backend=backend)
    twin, _ = load_dmv(
        scale=SCALE, extended=True, backend=backend, plan_cache_size=0
    )
    unlearned_static = [twin.execute(sql, NONE) for sql in statements]
    return request.param, db, twin, unlearned_static


@pytest.mark.parametrize("mode", MONITORED, ids=lambda m: m.name.lower())
def test_three_passes_over_both_grids(grid_dbs, mode):
    assert len(GRID) == 696
    engine, db, twin, unlearned_static = grid_dbs
    _, statements = ENGINES[engine]
    config = AdaptiveConfig(mode=mode)
    # The modes share the databases: ANALYZE (same level, same statistics,
    # same plans) makes every entry, and the feedback in it, stale.
    db.analyze(level=StatisticsLevel.CARDINALITY)
    writes_before = db.plan_cache.stats()["feedback_writes"]

    unlearned_first = [twin.execute(sql, config) for sql in statements]
    oracle_rows = [sorted(result.rows) for result in unlearned_static]
    static_work = [result.stats.total_work for result in unlearned_static]

    def static_pass() -> None:
        for sql, unlearned in zip(statements, unlearned_static):
            result = db.execute(sql, NONE)
            assert observed(result) == observed(unlearned), sql
            assert result.stats.plan_feedback is None
            assert result.plan.order == unlearned.plan.order

    static_pass()  # misses: no feedback exists yet
    passes = []
    for number in range(3):
        results = [db.execute(sql, config) for sql in statements]
        for sql, result, rows in zip(statements, results, oracle_rows):
            assert sorted(result.rows) == rows, (number, sql)
        passes.append(results)
    static_pass()  # hits on entries that now hold feedback

    first, second, third = passes
    changed = 0
    static_engine = "vector" if engine == "columnar-chunk" else "scalar"
    for sql, unlearned, one, two, three, planned in zip(
        statements, unlearned_first, first, second, third, static_work
    ):
        # A first execution is the optimizer's plan, as before.
        assert observed(one) == observed(unlearned), sql
        assert one.stats.plan_cache == HIT and one.stats.plan_feedback is None
        # The run's last word: what its checks proposed where the scan had
        # ended (the engine; the oracle never sees past its cursor), else
        # the order it ended on.
        learned = one.stats.proposed_order or one.final_order
        assert engine == "columnar-chunk" or one.stats.proposed_order is None
        assert two.stats.plan_feedback == (learned, 1), sql
        assert two.plan.order == learned
        if learned == one.plan.order:
            assert two.plan is one.plan
        else:
            changed += 1
        # Every later execution runs the lesson as a static plan, the same
        # way every time, and costs at most a little more than the
        # optimizer's plan.
        assert observed(three) == observed(two), sql
        assert three.plan is two.plan
        assert two.stats.engine == static_engine, sql
        assert two.stats.inner_checks + two.stats.driving_checks == 0
        assert not two.stats.events and two.stats.work.monitor_updates == 0
        assert two.stats.total_work <= 1.10 * planned, sql
    cache = db.plan_cache.stats()
    assert cache["feedback_writes"] - writes_before == len(statements)
    assert cache["feedback_hits"] <= cache["hits"]
    if mode.reorders_inner or mode.reorders_driving:
        assert changed > 0  # or nothing above was about a learned order
    else:
        assert changed == 0
    work = [
        sum(result.stats.total_work for result in results)
        for results in passes
    ]
    assert work[1] <= work[0]


# ---------------------------------------------------------------------------
# A small database whose learned order is only right for half the scan
# ---------------------------------------------------------------------------
def build_flip_db(backend: str = "row", **database) -> Database:
    """Example 1's world, with Car the only leg worth driving from.

    Scanned in make order the Chevrolet owners come first — few Germans,
    everyone below 50,000 — then the Mercedes owners — mostly Germans,
    nobody below 60,000: which of Owner and Demographics filters better
    flips half-way through the driving scan.
    """
    rng = random.Random(5)
    db = Database(backend=backend, **database)
    db.create_table(
        "Owner", [("id", "int"), ("name", "string"), ("country1", "string")]
    )
    db.create_table(
        "Car", [("id", "int"), ("ownerid", "int"), ("make", "string")]
    )
    db.create_table("Demographics", [("ownerid", "int"), ("salary", "int")])
    owners, cars, demographics = [], [], []
    for i in range(3000):
        if i % 5 < 2:
            make = "Chevrolet"
            country = "Germany" if rng.random() < 0.05 else "United States"
            salary = 20_000 + rng.randrange(25_000)
        elif i % 5 < 4:
            make = "Mercedes"
            country = "Germany" if rng.random() < 0.75 else "United States"
            salary = 60_000 + rng.randrange(60_000)
        else:
            make = rng.choice(["Ford", "Toyota", "Honda"])
            country, salary = "United States", 50_000
        owners.append((i, f"n{i}", country))
        cars.append((i, i, make))
        demographics.append((i, salary))
    db.insert("Owner", owners)
    db.insert("Car", cars)
    db.insert("Demographics", demographics)
    for table, column in [
        ("Owner", "id"),
        ("Car", "ownerid"),
        ("Car", "make"),
        ("Demographics", "ownerid"),
    ]:
        db.create_index(table, column)
    db.analyze()
    return db


def flip_sql(salary: int) -> str:
    return (
        "SELECT o.name FROM Owner o, Car c, Demographics d "
        "WHERE c.ownerid = o.id AND o.id = d.ownerid "
        "AND (c.make = 'Chevrolet' OR c.make = 'Mercedes') "
        f"AND o.country1 = 'Germany' AND d.salary < {salary}"
    )


#: In mode BOTH the first execution ends on another driving leg.
SQL = flip_sql(50_000)
BOTH = AdaptiveConfig(mode=ReorderMode.BOTH, history_window=200, warmup_rows=5)


@pytest.fixture
def flip_db():
    return build_flip_db()


def learn(db: Database, sql: str = SQL, config: AdaptiveConfig = BOTH):
    """Execute twice: the run that writes feedback, the run that reads it."""
    first = db.execute(sql, config)
    assert first.final_order != first.plan.order
    second = db.execute(sql, config)
    assert second.stats.plan_feedback == (first.final_order, 1)
    return first, second


@pytest.mark.parametrize(
    "backend", ["row", "columnar"], ids=["row-scalar", "columnar-chunk"]
)
def test_learned_order_right_for_half_the_scan_still_adapts(
    backend, monkeypatch
):
    """The learned order still adapts, handed in; the learned text gives
    that up (the paper's Example 1). The optimizer probes Owner before
    Demographics; the first run ends on the Mercedes phase's order
    (Demographics first) and that is what the entry keeps. Every later run
    of the text takes that order through the Chevrolet phase too,
    statically: no flip, the oracle's rows, nothing written. The learned
    plan handed in still flips to Owner first mid-scan and back, on both
    stores."""
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 64)
    db = build_flip_db(backend)
    sql = flip_sql(90_000)
    config = dataclasses.replace(BOTH, mode=ReorderMode.INNER_ONLY)
    oracle = sorted(db.execute(sql, NONE).rows)
    first = db.execute(sql, config)
    assert first.plan.order == ("c", "o", "d")
    assert first.final_order == ("c", "d", "o")
    for _ in range(2):
        learned = db.execute(sql, config)
        assert learned.stats.plan_feedback == (("c", "d", "o"), 1)
        assert learned.stats.order_history == (("c", "d", "o"),)
        assert learned.stats.inner_checks == 0
        assert learned.rows == db.execute(learned.plan, NONE).rows
        assert sorted(learned.rows) == sorted(first.rows) == oracle
    assert db.plan_cache.stats()["feedback_writes"] == 1
    handed_in = db.execute(learned.plan, config)
    assert handed_in.stats.order_history == (
        ("c", "d", "o"), ("c", "o", "d"), ("c", "d", "o")
    )
    assert sorted(handed_in.rows) == oracle


def test_driving_flips_with_position_keep_oracle_rows(flip_db):
    """The learned text starts from another driving leg and stays there;
    its plan handed in still moves mid-scan. Rows are the oracle's."""
    oracle = sorted(flip_db.execute(SQL, NONE).rows)
    first, second = learn(flip_db)
    assert second.plan.order[0] != first.plan.order[0]
    assert second.stats.total_switches == 0
    assert flip_db.execute(second.plan, BOTH).stats.driving_switches >= 2
    assert sorted(first.rows) == sorted(second.rows) == oracle


@pytest.mark.parametrize("backend", ["row", "columnar"])
def test_a_learned_text_runs_its_lesson_as_a_static_plan(backend):
    """Six-table texts in BOTH: the second execution runs the first one's
    lesson — its proposal, else its final order — as the static plan runs
    it: the store's static machine, no check, no monitor update, rows in
    order and every WorkMeter field those of the plan handed in, mode
    NONE."""
    db, _ = load_dmv(scale=SCALE, extended=True, backend=backend)
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    moved = 0
    for sql in GRID[396::25]:
        first = db.execute(sql, config)
        second = db.execute(sql, config)
        lesson = first.stats.proposed_order or first.final_order
        assert second.stats.plan_feedback == (lesson, 1)
        assert second.stats.engine == (
            "vector" if backend == "columnar" else "scalar"
        )
        assert second.stats.inner_checks + second.stats.driving_checks == 0
        assert second.stats.work.monitor_updates == 0
        static = db.execute(second.plan, NONE)
        assert second.rows == static.rows, sql
        assert dataclasses.asdict(second.stats.work) == dataclasses.asdict(
            static.stats.work
        ), sql
        moved += lesson != first.plan.order
    assert moved >= 3


def test_each_mode_learns_for_itself(flip_db):
    """One slot an entry, read only by the mode that wrote it: a first run
    in another mode is monitored and overwrites it."""
    base = flip_db.plan(SQL)
    first, _ = learn(flip_db)
    inner_only = dataclasses.replace(BOTH, mode=ReorderMode.INNER_ONLY)
    inner = flip_db.execute(SQL, inner_only)
    assert inner.stats.plan_feedback is None and inner.plan is base
    assert inner.stats.work.monitor_updates > 0
    again = flip_db.execute(SQL, BOTH)
    assert again.stats.plan_feedback is None and again.plan is base
    assert again.stats.work.monitor_updates > 0
    assert observed(again) == observed(first)
    assert flip_db.plan_cache.stats()["feedback_writes"] == 3
    # MONITOR_ONLY changes nothing: its lesson is the plan it ran.
    watch = dataclasses.replace(BOTH, mode=ReorderMode.MONITOR_ONLY)
    watched = flip_db.execute(SQL, watch)
    learned = flip_db.execute(SQL, watch)
    assert learned.plan is watched.plan is base
    assert learned.stats.plan_feedback == (base.order, 4)
    assert learned.stats.work.monitor_updates == 0


# ---------------------------------------------------------------------------
# What the entry stores
# ---------------------------------------------------------------------------
def test_feedback_plan_keeps_its_own_probe_program(flip_db):
    """The bindings are shared, the starting probes are not: they follow
    the order and the class selectivities, which are what feedback moves."""
    first, second = learn(flip_db)
    base, learned = first.plan, second.plan
    bindings = base.bindings(flip_db.catalog, None)
    assert learned.bindings(flip_db.catalog, None) is bindings
    base_program = base.probe_program(bindings)
    learned_program = learned.probe_program(bindings)
    assert learned_program is not base_program
    assert list(base_program) == list(base.order[1:])
    assert list(learned_program) == list(learned.order[1:])
    # A mode-NONE run of the text still starts from the base plan's.
    static = flip_db.execute(SQL, NONE)
    assert static.plan is base and base.probe_program(bindings) is base_program
    # Rebinding (here: ANALYZE moves the generation) drops both.
    flip_db.analyze()
    rebound = base.bindings(flip_db.catalog, _bind_plan)
    assert rebound is not bindings and base.probe_program(rebound) is None
    assert learned.probe_program(rebound) is None


def test_feedback_plan_is_the_base_plan_corrected(flip_db):
    first, second = learn(flip_db)
    base, learned = first.plan, second.plan
    assert flip_db.plan(SQL) is base
    assert learned.order == first.final_order
    # The big parts are shared, not copied.
    assert learned.query is base.query
    assert learned.projection is base.projection
    assert learned.join_predicates is base.join_predicates
    assert learned.__dict__["_bindings"] is base.__dict__["_bindings"]
    assert set(learned.legs) == set(base.legs)
    for alias, leg in learned.legs.items():
        planned = base.leg(alias)
        assert leg.driving is planned.driving
        assert leg.local_predicates is planned.local_predicates
        assert leg.estimates.base_cardinality == (
            planned.estimates.base_cardinality
        )
    # Measured, not the optimizer's uniformity guesses ...
    assert learned.class_selectivities.keys() == base.class_selectivities.keys()
    assert any(
        learned.leg(alias).estimates != base.leg(alias).estimates
        for alias in base.legs
    )
    # ... and costed under them: Eq (1) of the learned order from its start.
    assert math.isfinite(learned.estimated_cost)
    assert learned.estimated_cost == cost_of_order(
        learned.order, _provider_of(flip_db, learned)
    )
    assert f"{learned.estimated_cost:.1f}" in learned.explain()
    # Nothing an execution mutates: the entry's plan is still that object.
    assert flip_db.execute(SQL, BOTH).plan is learned


def test_write_back_is_refused_for_a_stale_or_evicted_entry():
    cache = PlanCache(capacity=1)
    entry, outcome, feedback = cache.lookup("a", ("g1",), lambda sql: "plan a")
    assert (outcome, feedback) == (MISS, None)
    # The catalog moved on while the statement ran.
    both, inner = ReorderMode.BOTH, ReorderMode.INNER_ONLY
    assert not cache.write_feedback(entry, ("g2",), "learned a", both)
    assert cache.write_feedback(entry, ("g1",), "learned a", inner)
    assert cache.write_feedback(entry, ("g1",), "learned a, again", both)
    assert entry.feedback == ("learned a, again", 2, both)
    # get_or_plan never hands feedback out; lookup only to its mode.
    assert cache.get_or_plan("a", ("g1",), None) == ("plan a", HIT)
    assert cache.lookup("a", ("g1",), None)[2] is None
    assert cache.lookup("a", ("g1",), None, inner)[2] is None
    assert cache.lookup("a", ("g1",), None, both)[2] == entry.feedback
    cache.lookup("b", ("g1",), lambda sql: "plan b")  # evicts a
    assert not cache.write_feedback(entry, ("g1",), "too late", both)
    stats = cache.stats()
    assert (stats["feedback_writes"], stats["feedback_hits"]) == (2, 1)
    # A cache that is off keeps nothing to write to.
    off = PlanCache(capacity=0)
    entry, outcome, _ = off.lookup("a", ("g1",), lambda sql: "plan", both)
    assert outcome == OFF
    assert not off.write_feedback(entry, ("g1",), "learned", both)
    assert off.stats()["feedback_writes"] == 0


# ---------------------------------------------------------------------------
# Who writes
# ---------------------------------------------------------------------------
def cancelled() -> ExecutionLimits:
    token = CancellationToken()
    token.cancel("the client went away")
    return ExecutionLimits(cancellation=token)


@pytest.mark.parametrize(
    "limits",
    [
        lambda: ExecutionLimits(max_rows=1),
        lambda: ExecutionLimits(max_work_units=100.0),
        lambda: ExecutionLimits(timeout_seconds=1e-9),
        cancelled,
    ],
    ids=["rows", "work", "deadline", "cancel"],
)
def test_budget_exceeded_writes_nothing(flip_db, limits):
    with pytest.raises(BudgetExceeded):
        flip_db.execute(SQL, BOTH, limits=limits())
    assert flip_db.plan_cache.stats()["feedback_writes"] == 0
    assert flip_db.execute(SQL, BOTH).stats.plan_feedback is None


def test_degraded_run_writes_nothing(flip_db, monkeypatch):
    """The adaptive layer fails after its first applied switch: the run
    completes on the order it had reached, which nobody should trust."""
    decide = repro.core.controller.decide_driving_switch
    applied = []

    def failing_after_a_switch(*args, **kwargs):
        if applied:
            raise ExecutionError("cost model blew up")
        order = decide(*args, **kwargs)
        if order is not None:
            applied.append(order)
        return order

    monkeypatch.setattr(
        repro.core.controller, "decide_driving_switch", failing_after_a_switch
    )
    result = flip_db.execute(SQL, BOTH)
    assert result.stats.degraded and result.final_order != result.plan.order
    assert flip_db.plan_cache.stats()["feedback_writes"] == 0
    monkeypatch.undo()
    assert flip_db.execute(SQL, BOTH).stats.plan_feedback is None


def test_fault_injected_run_writes_nothing(flip_db):
    """A retried transient fault: the run completes, not even degraded."""
    plan = FaultPlan(
        (FaultSpec(site="index-lookup", kind="transient", nth_call=3),), seed=7
    )
    result = flip_db.execute(SQL, BOTH, fault_plan=plan)
    assert not result.stats.degraded
    assert result.final_order != result.plan.order
    assert flip_db.plan_cache.stats()["feedback_writes"] == 0
    # It reads, though: chaos runs start where production runs do.
    learn(flip_db)
    assert flip_db.execute(SQL, BOTH, fault_plan=plan).stats.plan_feedback


def test_static_and_plan_paths_never_see_feedback(flip_db):
    first, second = learn(flip_db)
    base = first.plan
    hits = flip_db.plan_cache.stats()["feedback_hits"]

    static = flip_db.execute(SQL, NONE)
    assert static.plan is base and static.stats.plan_feedback is None
    assert static.stats.plan_cache == HIT
    assert static.final_order == base.order
    assert flip_db.plan(SQL) is base
    assert flip_db.explain(SQL) == base.explain()
    for handed_in in (base, flip_db.parse(SQL)):
        result = flip_db.execute(handed_in, BOTH)
        assert result.stats.plan_cache is None
        assert result.stats.plan_feedback is None
        assert result.plan.order == base.order
        assert observed(result) == observed(first)
    # Another monitored mode does not read it either: its run is a first.
    inner = flip_db.execute(
        SQL, dataclasses.replace(BOTH, mode=ReorderMode.INNER_ONLY)
    )
    assert inner.plan is base and inner.stats.plan_feedback is None
    assert flip_db.plan_cache.stats()["feedback_hits"] == hits


def test_capacity_zero_never_learns():
    db = build_flip_db(plan_cache_size=0)
    runs = [db.execute(SQL, BOTH) for _ in range(3)]
    assert {run.stats.plan_cache for run in runs} == {OFF}
    assert {run.stats.plan_feedback for run in runs} == {None}
    assert observed(runs[2]) == observed(runs[0])
    stats = db.plan_cache.stats()
    assert (stats["feedback_writes"], stats["feedback_hits"]) == (0, 0)


# ---------------------------------------------------------------------------
# What drops it
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "change",
    [
        lambda db: db.analyze(),
        lambda db: db.insert("Owner", [(99_999, "late", "Germany")]),
        lambda db: db.create_index("Owner", "country1"),
    ],
    ids=["analyze", "insert", "create_index"],
)
def test_catalog_changes_drop_feedback(flip_db, change):
    learn(flip_db)
    change(flip_db)
    result = flip_db.execute(SQL, BOTH)
    assert result.stats.plan_cache == MISS
    assert result.stats.plan_feedback is None
    assert flip_db.plan_cache.stats()["invalidations"] == 1


def test_change_during_the_run_refuses_the_write_back(flip_db, monkeypatch):
    """ANALYZE lands between the lookup and the end of the run: what the
    run measured belongs to a generation the entry is no longer good for."""
    corrected_plan = repro.db.RuntimeModelBuilder.corrected_plan
    built = []
    monkeypatch.setattr(
        repro.db.RuntimeModelBuilder,
        "corrected_plan",
        lambda self, order: built.append(1) or corrected_plan(self, order),
    )
    generation = flip_db.catalog.generation
    calls = []

    def moving_generation():
        calls.append(1)
        if len(calls) == 2:  # the write-back's read; the lookup's was first
            flip_db.analyze()
        return generation()

    monkeypatch.setattr(flip_db.catalog, "generation", moving_generation)
    result = flip_db.execute(SQL, BOTH)
    assert result.final_order != result.plan.order
    assert not built  # not even built
    assert flip_db.plan_cache.stats()["feedback_writes"] == 0


def test_lru_eviction_drops_feedback():
    db = build_flip_db(plan_cache_size=1)
    learn(db)
    db.execute(flip_sql(90_000), NONE)  # another statement takes the slot
    assert db.plan_cache.stats()["evictions"] == 1
    result = db.execute(SQL, BOTH)
    assert result.stats.plan_cache == MISS
    assert result.stats.plan_feedback is None


# ---------------------------------------------------------------------------
# Threads
# ---------------------------------------------------------------------------
def test_eight_threads_leave_one_well_formed_feedback_plan(monkeypatch):
    """More threads than cores, switching as often as the interpreter can,
    all executing one statement: every run returns the oracle's rows, the
    counters lose no update, and the entry ends up holding one plan that is
    a permutation of the base plan and executes correctly."""
    db = build_flip_db("columnar")
    meter = db.enable_concurrent_metering()
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 64)
    config = BOTH
    oracle = sorted(db.execute(SQL, NONE).rows)
    base = db.plan(SQL)
    threads, runs = 8, 5
    outcomes, errors = [], []

    def worker():
        try:
            for _ in range(runs):
                with meter.scoped():
                    result = db.execute(SQL, config)
                outcomes.append(
                    (sorted(result.rows) == oracle, result.stats.plan_feedback)
                )
        except BaseException as error:  # reported below, not swallowed
            errors.append(error)

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert not errors, errors
    assert len(outcomes) == threads * runs
    assert all(correct for correct, _ in outcomes)

    stats = db.plan_cache.stats()
    entry, outcome, feedback = db.plan_cache.lookup(
        SQL, db.catalog.generation(), None, config.mode
    )
    assert outcome == HIT and entry.plan is base and feedback is not None
    assert 1 <= feedback.writes == stats["feedback_writes"] <= threads * runs
    started_learned = sum(1 for _, seen in outcomes if seen is not None)
    assert started_learned == stats["feedback_hits"] <= stats["hits"]
    for _, seen in outcomes:
        if seen is not None:
            order, writes = seen
            assert sorted(order) == sorted(base.order)
            assert 1 <= writes <= feedback.writes
    learned = feedback.plan
    assert sorted(learned.order) == sorted(base.order)
    assert set(learned.legs) == set(base.legs)
    assert learned.__dict__["_bindings"] is base.__dict__["_bindings"]
    assert math.isfinite(learned.estimated_cost)
    result = db.execute(SQL, config)
    assert result.plan is learned and sorted(result.rows) == oracle


# ---------------------------------------------------------------------------
# Served
# ---------------------------------------------------------------------------
def test_served_requests_report_feedback_and_analyze_clears_it(flip_db):
    async def scenario(server):
        client = await ServerClient.connect(server.port)

        async def query(request_id, mode):
            await client.send(op="query", id=request_id, sql=SQL, mode=mode)
            return await client.recv()

        replies = [
            await query(1, "both"),
            await query(2, "none"),
            await query(3, "both"),
        ]
        await client.send(op="stats", id=4)
        stats = (await client.recv())["stats"]
        await client.send(op="telemetry", id=5, format="prometheus")
        exposition = (await client.recv())["exposition"]
        flip_db.analyze()
        replies.append(await query(6, "both"))
        await client.close()
        return replies, stats, exposition

    replies, stats, exposition = serve(flip_db, scenario)
    assert [reply["status"] for reply in replies] == ["ok"] * 4
    first, static, learned, after_analyze = (r["stats"] for r in replies)
    assert first["plan_feedback"] is None and first["plan_cache"] == MISS
    assert static["plan_feedback"] is None and static["plan_cache"] == HIT
    assert learned["plan_cache"] == HIT  # the outcome strings are unchanged
    assert learned["plan_feedback"]["writes"] == 1
    assert sorted(learned["plan_feedback"]["order"]) == ["c", "d", "o"]
    assert after_analyze["plan_cache"] == MISS
    assert after_analyze["plan_feedback"] is None
    assert len({reply["row_count"] for reply in replies}) == 1

    assert validate_stats.validate(stats)
    assert stats["plan_cache"]["feedback_writes"] == 1
    assert stats["plan_cache"]["feedback_hits"] == 1
    assert 'plan_cache_events{label="feedback_hits"} 1' in exposition
    assert 'plan_cache_events{label="feedback_writes"} 1' in exposition
    for broken, message in (
        ({"feedback_hits": stats["plan_cache"]["hits"] + 1}, "feedback_hits"),
        ({"capacity": 0, "size": 0, "hits": 0, "feedback_hits": 0}, "capacity 0"),
    ):
        document = {**stats, "plan_cache": {**stats["plan_cache"], **broken}}
        with pytest.raises(validate_stats.ValidationError, match=message):
            validate_stats.validate(document)


# ---------------------------------------------------------------------------
# Visible
# ---------------------------------------------------------------------------
def test_feedback_is_visible_where_the_plan_cache_is(flip_db):
    recorder = FlightRecorder(capacity=4)
    records = []
    for _ in range(3):
        bundle = recorder.arm()
        result = flip_db.execute(SQL, BOTH, obs=bundle)
        records.append(
            recorder.finish_query(bundle, result, sql=SQL, config=BOTH)
        )
    # Every run after the first runs the lesson, and says so wherever it
    # says what it started from, under the mode it was asked for.
    unlearned, learned, again = records
    assert unlearned.plan_feedback is None
    assert learned.plan_feedback == {
        "order": list(learned.plan_order), "writes": 1
    }
    assert again.plan_feedback == learned.plan_feedback
    assert learned.plan_order == unlearned.final_order
    assert {record.mode for record in records} == {"both"}
    assert (learned.events, learned.decisions) == ([], [])
    for record in records:
        document = record.to_dict()
        assert validate_flight_record(document) == []
        assert FlightRecord.from_dict(document).to_dict() == document
    assert "plan feedback:" not in render_replay(unlearned)
    assert (
        "plan feedback: started from the learned order below "
        "(1 write-back(s) to the entry)"
    ) in render_replay(learned)
    # A record claiming feedback without a hit, or a malformed one.
    document = learned.to_dict()
    assert validate_flight_record({**document, "plan_cache": MISS})
    assert validate_flight_record({**document, "plan_feedback": {"order": []}})
    # Records written when a learned entry could be settled still validate.
    old = {**document["plan_feedback"], "settled": True}
    assert validate_flight_record({**document, "plan_feedback": old}) == []

    report = flip_db.explain_analyze(SQL, BOTH)
    assert (
        f"plan feedback: started from {' -> '.join(learned.plan_order)} "
        "(learned; 1 write-back(s) to this plan-cache entry)"
    ) in report.splitlines()
    static = flip_db.explain_analyze(SQL, NONE)
    assert (
        "plan feedback: none (started from the optimizer's order)"
        in static.splitlines()
    )

    traced = flip_db.execute(SQL, BOTH, obs=True)
    (span,) = [s for s in traced.trace.spans if s.name == "plan-cache"]
    assert span.attrs["outcome"] == HIT and span.attrs["feedback"] is True
    (query,) = [s for s in traced.trace.spans if s.name == "query"]
    assert query.attrs["mode"] == "both"

    registry = MetricsRegistry()
    record_plan_cache_gauges(registry, flip_db.plan_cache.stats())
    text = registry.render_prometheus()
    assert 'plan_cache_events{label="feedback_writes"} 1' in text
    assert 'plan_cache_events{label="feedback_hits"} 4' in text
