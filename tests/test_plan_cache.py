"""The Database-level plan cache: a repeated statement is planned once.

Three layers:

* :class:`~repro.optimizer.plancache.PlanCache` on its own (LRU, capacity
  0, single-flight under threads, generation checks);
* ``Database.execute(sql)`` / ``plan(sql)`` through it: what shares an
  entry, what invalidates one (``insert``, ``create_index``,
  ``create_table``, ``analyze``), in the library and through the server;
* the differential contract: the cached execution of a statement is
  observably the first one — rows in order, WorkMeter, adaptation events,
  final order — over both template grids and modes NONE / BOTH.
"""

from __future__ import annotations

import asyncio
import dataclasses
import sys
import threading
import time

import pytest

from repro import AdaptiveConfig, Database, ReorderMode, StatisticsLevel
from repro.dmv import four_table_workload, load_dmv, six_table_workload
from repro.errors import QueryError
from repro.executor import vector
from repro.obs.schema import TraceValidator
from repro.optimizer.plancache import HIT, MISS, OFF, WAIT, PlanCache
from repro.server.admission import ServerConfig
from repro.server.server import QueryServer

from tests.conftest import build_three_table_db
from tests.test_server import ServerClient

SQL = (
    "SELECT o.name FROM Owner o, Car c, Demo d "
    "WHERE o.id = c.ownerid AND o.id = d.ownerid AND o.country = 'DE'"
)


# ---------------------------------------------------------------------------
# PlanCache
# ---------------------------------------------------------------------------
class TestPlanCache:
    def test_hit_miss_and_generation_invalidation(self):
        cache = PlanCache(capacity=4)
        calls = []

        def planner(sql):
            calls.append(sql)
            return ("plan", sql)

        plan, outcome = cache.get_or_plan("SELECT  1", ("g1",), planner)
        assert outcome == MISS and plan == ("plan", "SELECT  1")
        # Whitespace-normalized key: same statement, different spacing.
        plan2, outcome2 = cache.get_or_plan("SELECT 1", ("g1",), planner)
        assert outcome2 == HIT and plan2 == plan and len(calls) == 1
        # Catalog generation changed: entry invalidated, replanned.
        _, outcome3 = cache.get_or_plan("SELECT 1", ("g2",), planner)
        assert outcome3 == MISS and len(calls) == 2
        assert cache.stats()["invalidations"] == 1

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        planner = lambda sql: sql
        cache.get_or_plan("a", ("g",), planner)
        cache.get_or_plan("b", ("g",), planner)
        cache.get_or_plan("a", ("g",), planner)  # refresh a
        cache.get_or_plan("c", ("g",), planner)  # evicts b
        assert cache.get_or_plan("a", ("g",), planner)[1] == HIT
        assert cache.get_or_plan("b", ("g",), planner)[1] == MISS
        assert cache.stats()["evictions"] >= 1

    def test_cyclic_working_set_larger_than_capacity_never_hits(self):
        """LRU's worst case, and why the default capacity exceeds the
        template grid: a cycle over capacity + 1 statements evicts each
        one just before it is needed again."""
        cache = PlanCache(capacity=4)
        statements = [f"q{i}" for i in range(5)]
        outcomes = [
            cache.get_or_plan(sql, ("g",), lambda sql: sql)[1]
            for _ in range(3)
            for sql in statements
        ]
        assert outcomes == [MISS] * 15
        stats = cache.stats()
        assert stats["size"] == 4 and stats["evictions"] == 11
        # One statement fewer and the same cycle is all hits after a pass.
        cache = PlanCache(capacity=4)
        outcomes = [
            cache.get_or_plan(sql, ("g",), lambda sql: sql)[1]
            for _ in range(3)
            for sql in statements[:4]
        ]
        assert outcomes == [MISS] * 4 + [HIT] * 8

    def test_zero_capacity_plans_every_time(self):
        cache = PlanCache(capacity=0)
        calls = []
        planner = lambda sql: calls.append(sql) or sql
        assert cache.get_or_plan("a", ("g",), planner)[1] == OFF
        assert cache.get_or_plan("a", ("g",), planner)[1] == OFF
        assert len(calls) == 2 and len(cache) == 0
        assert cache.stats()["misses"] == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=-1)

    def test_single_flight_one_planner_call_for_concurrent_misses(self):
        """8 threads (more than this host has cores) miss on one key at
        once, with the interpreter switching threads as often as it can:
        the planner runs once and nobody loses an update to the counters."""
        cache = PlanCache(capacity=8)
        release = threading.Event()
        calls = []

        def slow_planner(sql):
            calls.append(sql)
            assert release.wait(5.0)
            return ("plan", sql)

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    cache.get_or_plan("q", ("g",), slow_planner)
                )
            )
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            # Every thread is either the leader or queued behind it.
            deadline = time.time() + 5.0
            while time.time() < deadline:
                flight = cache._in_flight.get("q")
                if calls and flight is not None:
                    break
                time.sleep(0.005)
            time.sleep(0.05)
            release.set()
            for t in threads:
                t.join(timeout=5.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1, "planner must run once for the stampede"
        assert len(results) == 8
        assert all(plan == ("plan", "q") for plan, _ in results)
        outcomes = [outcome for _, outcome in results]
        assert outcomes.count(MISS) == 1
        # Threads that arrived after the leader published hit instead.
        assert outcomes.count(WAIT) + outcomes.count(HIT) == 7
        stats = cache.stats()
        assert (
            stats["misses"] + stats["single_flight_waits"] + stats["hits"] == 8
        )

    def test_failed_leader_promotes_a_waiter(self):
        cache = PlanCache(capacity=8)
        attempts = []
        barrier = threading.Barrier(2, timeout=5.0)

        def flaky_planner(sql):
            attempts.append(sql)
            if len(attempts) == 1:
                barrier.wait()  # ensure the waiter queued behind us
                raise QueryError("transient planner failure")
            return "good plan"

        results, errors = [], []

        def leader():
            try:
                results.append(cache.get_or_plan("q", ("g",), flaky_planner))
            except QueryError as error:
                errors.append(error)

        def waiter():
            barrier.wait()
            results.append(cache.get_or_plan("q", ("g",), flaky_planner))

        threads = [threading.Thread(target=leader), threading.Thread(target=waiter)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads)
        assert len(errors) == 1, "the failing leader sees its own error"
        assert results == [("good plan", MISS)], "the waiter retried as leader"

    def test_waiter_replans_when_generation_differs_from_leader(self):
        """A waiter admitted under a newer catalog generation must not
        reuse the in-flight leader's plan — it replans as a new leader."""
        cache = PlanCache(capacity=8)
        release = threading.Event()
        calls = []

        def old_planner(sql):
            calls.append("g1")
            assert release.wait(5.0)
            return "g1 plan"

        def new_planner(sql):
            calls.append("g2")
            return "g2 plan"

        results = {}

        def leader():
            results["leader"] = cache.get_or_plan("q", ("g1",), old_planner)

        def waiter():
            # Queue behind the g1 leader, but under generation g2.
            deadline = time.time() + 5.0
            while not calls and time.time() < deadline:
                time.sleep(0.005)
            results["waiter"] = cache.get_or_plan("q", ("g2",), new_planner)

        threads = [threading.Thread(target=leader), threading.Thread(target=waiter)]
        for t in threads:
            t.start()
        time.sleep(0.05)  # let the waiter block on the leader's flight
        release.set()
        for t in threads:
            t.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads)
        assert results["leader"] == ("g1 plan", MISS)
        assert results["waiter"] == ("g2 plan", MISS), (
            "waiter must replan under its own generation, not reuse g1"
        )


# ---------------------------------------------------------------------------
# Database.execute / plan through the cache
# ---------------------------------------------------------------------------
def plan_facts(plan) -> tuple:
    """What a plan decides, for comparing a cached plan with a fresh one."""
    return (
        plan.order,
        plan.estimated_cost,
        {alias: (leg.driving, leg.estimates) for alias, leg in plan.legs.items()},
        dict(plan.class_selectivities),
        plan.projection,
    )


class TestDatabaseCache:
    def test_second_execution_hits_with_identical_rows(self):
        db = build_three_table_db()
        first = db.execute(SQL)
        second = db.execute(SQL)
        assert (first.stats.plan_cache, second.stats.plan_cache) == (MISS, HIT)
        assert second.plan is first.plan
        assert second.rows == first.rows
        assert second.stats.work == first.stats.work
        assert db.plan(SQL) is first.plan, "plan(sql) reads the same cache"
        assert db.plan_cache.stats()["hits"] == 2

    def test_spec_and_plan_inputs_bypass_the_cache(self):
        db = build_three_table_db()
        spec = db.parse(SQL)
        assert db.plan(spec) is not db.plan(spec)
        assert db.execute(spec).stats.plan_cache is None
        assert db.execute(db.plan(spec)).stats.plan_cache is None
        assert db.plan_cache.stats()["misses"] == 0 and len(db.plan_cache) == 0

    def test_whitespace_variants_share_an_entry_literal_variants_do_not(self):
        db = build_three_table_db()
        db.execute(SQL)
        spaced = "  " + SQL.replace(" WHERE ", "\n  WHERE\t").replace(", ", ",\n ")
        assert spaced != SQL
        assert db.execute(spaced).stats.plan_cache == HIT
        other_literal = SQL.replace("'DE'", "'US'")
        result = db.execute(other_literal)
        assert result.stats.plan_cache == MISS
        assert len(db.plan_cache) == 2
        # Whitespace inside a literal is data, not layout.
        assert db.execute(SQL.replace("'DE'", "'D E'")).stats.plan_cache == MISS

    def test_capacity_zero_is_off(self):
        db = Database(plan_cache_size=0)
        db.create_table("T", [("id", "int")])
        db.insert("T", [(1,), (2,)])
        db.analyze()
        for _ in range(2):
            result = db.execute("SELECT t.id FROM T t")
            assert result.stats.plan_cache == OFF and len(result.rows) == 2
        assert len(db.plan_cache) == 0

    @pytest.mark.parametrize(
        "change",
        [
            lambda db: db.insert("Demo", [(10_001, 50_000)]),
            lambda db: db.create_index("Car", "id"),
            lambda db: db.create_table("Extra", [("id", "int")]),
            lambda db: db.analyze(level=StatisticsLevel.DETAILED),
            lambda db: db.analyze("Owner"),
        ],
        ids=["insert", "create_index", "create_table", "analyze", "analyze-one"],
    )
    def test_catalog_changes_invalidate(self, change):
        db = build_three_table_db(analyze=StatisticsLevel.CARDINALITY)
        stale = db.plan(SQL)
        assert db.execute(SQL).stats.plan_cache == HIT
        before = db.plan_cache.stats()["invalidations"]
        change(db)
        result = db.execute(SQL)
        assert result.stats.plan_cache == MISS
        assert db.plan_cache.stats()["invalidations"] == before + 1
        assert result.plan is not stale
        assert plan_facts(result.plan) == plan_facts(db.plan(db.parse(SQL)))
        assert db.execute(SQL).stats.plan_cache == HIT

    def test_repeated_create_index_is_not_a_change(self):
        db = build_three_table_db()
        db.execute(SQL)
        db.create_index("Owner", "id")  # already there
        assert db.execute(SQL).stats.plan_cache == HIT

    def test_analyze_changes_the_plan_that_is_served(self):
        """The regression: CARDINALITY-era estimates must not outlive an
        ANALYZE at a richer level."""
        db = build_three_table_db(analyze=StatisticsLevel.CARDINALITY)
        coarse = db.plan(SQL)
        db.analyze(level=StatisticsLevel.DETAILED)
        fine = db.plan(SQL)
        assert plan_facts(fine) == plan_facts(db.plan(db.parse(SQL)))
        assert plan_facts(fine) != plan_facts(coarse)

    def test_failed_statement_is_not_cached(self):
        db = build_three_table_db()
        for _ in range(2):
            with pytest.raises(Exception):
                db.execute("SELECT m.x FROM Missing m")
        assert len(db.plan_cache) == 0
        assert db.plan_cache.stats()["misses"] == 2

    def test_statements_of_one_join_shape_share_a_join_graph(self):
        db = build_three_table_db()
        same_shape = db.parse(SQL.replace("'DE'", "'US'"))
        other_shape = db.parse(
            "SELECT o.name FROM Owner o, Car c WHERE o.id = c.ownerid"
        )
        graph = db.parse(SQL).join_graph()
        assert same_shape.join_graph() is graph
        assert other_shape.join_graph() is not graph
        assert db.plan(SQL).query.join_graph() is graph

    def test_concurrent_executions_share_one_plan(self):
        db = build_three_table_db(owners=200)
        db.enable_concurrent_metering()
        expected = db.execute(SQL, AdaptiveConfig(mode=ReorderMode.BOTH))
        results, errors = [], []

        def run():
            try:
                with db.catalog.meter.scoped():
                    for _ in range(5):
                        results.append(
                            db.execute(SQL, AdaptiveConfig(mode=ReorderMode.BOTH))
                        )
            except BaseException as error:  # surfaced below
                errors.append(error)

        threads = [threading.Thread(target=run) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads) and not errors
        assert len(results) == 40
        for result in results:
            assert result.plan is expected.plan
            assert result.rows == expected.rows
            assert result.stats.work == expected.stats.work
            assert result.stats.events == expected.stats.events


class TestObservability:
    def test_hit_records_one_plan_cache_span_and_no_parse_or_optimize(self):
        db = build_three_table_db()
        miss = db.execute(SQL, obs=True)
        hit = db.execute(SQL, obs=True)
        names = [span.name for span in miss.trace.spans]
        assert names[:4] == ["query", "plan-cache", "parse", "optimize"]
        lookup = miss.trace.spans[1]
        assert lookup.attrs["outcome"] == MISS
        assert [s.parent_id for s in miss.trace.spans[2:4]] == [lookup.span_id] * 2
        names = [span.name for span in hit.trace.spans]
        assert names[:3] == ["query", "plan-cache", "execute"]
        assert "parse" not in names and "optimize" not in names
        assert hit.trace.spans[1].attrs["outcome"] == HIT
        validator = TraceValidator()
        for span in hit.trace.spans:
            assert validator.feed(span.to_dict()) == []
        bad = hit.trace.spans[1].to_dict()
        bad["attrs"]["outcome"] = "maybe"
        assert TraceValidator().feed(bad)

    def test_explain_analyze_prints_the_outcome(self):
        db = build_three_table_db()
        assert "plan cache: miss" in db.explain_analyze(SQL)
        assert "plan cache: hit" in db.explain_analyze(SQL)
        assert "plan cache: not consulted" in db.explain_analyze(db.plan(SQL))

    def test_flight_record_carries_the_outcome(self):
        from repro.obs.recorder import FlightRecord, FlightRecorder
        from repro.obs.schema import validate_flight_record

        db = build_three_table_db()
        recorder = FlightRecorder()
        config = AdaptiveConfig(mode=ReorderMode.BOTH)
        outcomes = []
        for _ in range(2):
            bundle = recorder.arm()
            result = db.execute(SQL, config, obs=bundle)
            record = recorder.finish_query(bundle, result, sql=SQL, config=config)
            assert validate_flight_record(record.to_dict()) == []
            assert FlightRecord.from_dict(record.to_dict()).plan_cache == (
                record.plan_cache
            )
            outcomes.append(record.plan_cache)
        assert outcomes == [MISS, HIT]
        bad = dict(record.to_dict(), plan_cache="maybe")
        assert validate_flight_record(bad)

    def test_metrics_expose_the_database_cache(self):
        from repro.obs.metrics import MetricsRegistry, record_plan_cache_gauges

        db = build_three_table_db()
        db.execute(SQL)
        db.execute(SQL)
        registry = MetricsRegistry()
        record_plan_cache_gauges(registry, db.plan_cache.stats())
        events = registry.gauge("plan_cache_events")
        assert (events.value("hits"), events.value("misses")) == (1.0, 1.0)
        assert registry.gauge("plan_cache_entries").value() == 1.0
        text = registry.render_prometheus()
        assert 'plan_cache_events{label="hits"} 1' in text


# ---------------------------------------------------------------------------
# Served
# ---------------------------------------------------------------------------
def serve(db, scenario, **config):
    async def main():
        server = QueryServer(
            db, ServerConfig(port=0, max_concurrency=2, max_queue_depth=16, **config)
        )
        await server.start()
        try:
            return await asyncio.wait_for(scenario(server), timeout=30.0)
        finally:
            await server.shutdown(grace=1.0)

    return asyncio.run(main())


class TestServed:
    def test_server_serves_from_the_database_cache(self):
        db = build_three_table_db()

        async def scenario(server):
            assert not hasattr(server.engine, "plan_cache")
            client = await ServerClient.connect(server.port)
            replies = []
            for request_id in range(3):
                await client.send(op="query", id=request_id, sql=SQL)
                replies.append(await client.recv())
            await client.send(op="stats", id=9)
            stats = (await client.recv())["stats"]
            await client.send(op="telemetry", id=10, format="prometheus")
            exposition = (await client.recv())["exposition"]
            await client.close()
            return replies, stats, exposition

        replies, stats, exposition = serve(db, scenario)
        assert [r["stats"]["plan_cache"] for r in replies] == [MISS, HIT, HIT]
        # The engine processes' caches are forks of the database's: the
        # serving process itself planned nothing, and the stats op adds
        # what the engines counted to what it had (size and capacity are
        # the engines' own, summed over the two; so is ``settled``: the
        # default mode monitors, and the statement's first run there ended
        # where it started).
        own = db.plan_cache.stats()
        assert own["hits"] == own["misses"] == own["size"] == 0
        assert stats["plan_cache"] == {
            **own, "size": 1, "capacity": 2 * own["capacity"],
            "hits": 2, "misses": 1, "settled": 1,
        }
        assert 'plan_cache_events{label="hits"} 2' in exposition
        # What an engine cached after its fork stays in that engine; what
        # the library cached before the fork, every engine starts with.
        assert db.execute(SQL).stats.plan_cache == MISS
        replies, stats, _ = serve(db, scenario)
        assert [r["stats"]["plan_cache"] for r in replies] == [HIT, HIT, HIT]
        assert stats["plan_cache"]["hits"] == 3
        assert stats["plan_cache"]["misses"] == 1

    def test_analyze_between_served_queries_replans(self):
        db = build_three_table_db(analyze=StatisticsLevel.CARDINALITY)

        async def scenario(server):
            client = await ServerClient.connect(server.port)
            outcomes = []
            for request_id in range(2):
                await client.send(op="query", id=request_id, sql=SQL)
                outcomes.append((await client.recv())["stats"]["plan_cache"])
            stale = db.plan(SQL)
            invalidations = db.plan_cache.stats()["invalidations"]
            db.analyze(level=StatisticsLevel.DETAILED)
            await client.send(op="query", id=2, sql=SQL)
            reply = await client.recv()
            outcomes.append(reply["stats"]["plan_cache"])
            await client.send(op="stats", id=3)
            stats = (await client.recv())["stats"]
            await client.close()
            return outcomes, stale, invalidations, reply, stats

        outcomes, stale, invalidations, reply, stats = serve(db, scenario)
        # The catalog moved under the engine: it was forked anew, with the
        # stale entry, and dropped it on the lookup.
        assert outcomes == [MISS, HIT, MISS]
        assert stats["plan_cache"]["invalidations"] == invalidations + 1
        assert stats["server"]["engine_restarts_total"] == 1
        served = db.plan(SQL)
        assert served is not stale
        assert plan_facts(served) == plan_facts(db.plan(db.parse(SQL)))
        assert reply["row_count"] == len(db.execute(SQL).rows)

    def test_capacity_zero_database_reports_off(self):
        db = Database(plan_cache_size=0)
        db.create_table("T", [("id", "int")])
        db.insert("T", [(1,)])
        db.analyze()

        async def scenario(server):
            client = await ServerClient.connect(server.port)
            await client.send(op="query", id=1, sql="SELECT t.id FROM T t")
            reply = await client.recv()
            await client.close()
            return reply

        assert serve(db, scenario)["stats"]["plan_cache"] == OFF


# ---------------------------------------------------------------------------
# Differential: the cached execution is the first execution
# ---------------------------------------------------------------------------
SCALE = 0.02
GRID = [
    query.sql
    for query in (
        four_table_workload(queries_per_template=10**9)
        + six_table_workload(count=10**9)
    )
]
ENGINES = {
    # The engine the benchmark runs, on every statement; the reference
    # oracle (6x slower a statement) on every eighth.
    "columnar-chunk": ("columnar", GRID),
    "row-scalar": ("row", GRID[::8]),
}


@pytest.mark.parametrize("engine", ENGINES)
def test_cached_execution_equals_first_execution_over_both_grids(engine):
    assert len(GRID) == 696
    backend, statements = ENGINES[engine]
    db, _ = load_dmv(scale=SCALE, extended=True, backend=backend)
    # Plans every statement afresh and keeps nothing: each of its
    # executions is what a statement's first one runs.
    twin, _ = load_dmv(
        scale=SCALE, extended=True, backend=backend, plan_cache_size=0
    )
    for mode in (ReorderMode.NONE, ReorderMode.BOTH):
        config = AdaptiveConfig(mode=mode)
        for sql in statements:
            first = db.execute(sql, config)
            assert first.stats.plan_cache == (
                HIT if mode.monitors else MISS
            )
            plan = db.plan(sql)
            assert plan is first.plan
            # The cached plan against one planned for the occasion, both
            # in the state of a text nobody has run in this mode (a second
            # execution of the text would start from what the first left
            # in the entry, tests/test_plan_feedback.py; the plan handed in
            # has no entry and asks nothing at a finished scan).
            again = [twin.execute(sql, config)]
            assert again[0].stats.plan_cache == OFF
            if not mode.monitors:
                again.append(db.execute(plan, config))
            for second in again:
                assert second.rows == first.rows, sql
                assert second.stats.work == first.stats.work, sql
                assert second.stats.events == first.stats.events, sql
                assert second.final_order == first.final_order, sql
                assert second.stats.order_history == first.stats.order_history
                assert second.stats.engine == first.stats.engine
    stats = db.plan_cache.stats()
    # Mode NONE planned each statement; mode BOTH found them all cached.
    count = len(statements)
    assert stats["misses"] == count and stats["hits"] == 3 * count
    assert stats["evictions"] == 0 and stats["size"] == count


def test_eight_threads_publish_and_share_one_probe_program(monkeypatch):
    """A cached plan nobody has executed, eight threads at once, the
    interpreter switching as often as it can: whichever thread compiles the
    starting probes, every execution matches a serial run on a twin
    database (which tests/test_decision_replay.py holds to the row oracle)
    and the plan ends up with one program."""
    db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    oracle_db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    db.enable_concurrent_metering()
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 64)
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    statements = GRID[-6:]
    oracle = {
        sql: oracle_db.execute(oracle_db.plan(sql), config) for sql in statements
    }
    plans = {sql: db.plan(sql) for sql in statements}
    barrier = threading.Barrier(8, timeout=30.0)
    outcomes, errors = [], []

    def run():
        try:
            barrier.wait()
            with db.catalog.meter.scoped():
                for _ in range(3):
                    for sql in statements:
                        outcomes.append((sql, db.execute(plans[sql], config)))
        except BaseException as error:  # surfaced below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert len(outcomes) == 8 * 3 * len(statements)
    for sql, result in outcomes:
        want = oracle[sql]
        assert result.rows == want.rows
        assert result.stats.work == want.stats.work
        assert result.stats.events == want.stats.events
        assert result.stats.engine == "vector-adaptive"
    for plan in plans.values():
        program = plan.probe_program(plan.bindings(db.catalog, None))
        assert list(program) == list(plan.order[1:])


def test_work_meter_fields_match_between_miss_and_hit():
    """Field by field, not only the total: planning charges nothing."""
    db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    sql = GRID[-1]
    miss = db.execute(sql, config)
    # The same statistics under a new generation: the entry goes, with all
    # it knew. Planned again and not executed, the text's next run is its
    # first once more, this time on a hit.
    db.analyze(level=StatisticsLevel.CARDINALITY)
    plan = db.plan(sql)
    hit = db.execute(sql, config)
    assert (miss.stats.plan_cache, hit.stats.plan_cache) == (MISS, HIT)
    assert hit.plan is plan and plan.order == miss.plan.order
    assert db.plan_cache.stats()["hits"] == 1
    assert dataclasses.asdict(hit.stats.work) == dataclasses.asdict(miss.stats.work)
