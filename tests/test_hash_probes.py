"""Tests for the pipelined hash-probe extension (Sec 6).

An inner leg with an available join predicate but no index on any available
join column is probed through an in-memory hash table: that is what an
unindexed join column means, on both stores. No option chooses it.
"""

import dataclasses

from repro import AdaptiveConfig, Database, ReorderMode
from repro.executor.hashprobe import HashProbeTable
from repro.executor.pipeline import PipelineExecutor
from repro.query.query import QuerySpec

from tests.conftest import build_three_table_db, reference_join
from tests.test_vector_limits import HASHED, hand_off_db


def build_unindexed_join_db(owners=200, seed=17):
    """Demo has NO index on its join column: it is hash-probed."""
    import random

    rng = random.Random(seed)
    db = Database()
    db.create_table("Owner", [("id", "int"), ("name", "string"), ("country", "string")])
    db.create_table("Demo", [("ownerid", "int"), ("salary", "int")])
    db.insert(
        "Owner",
        [(i, f"n{i}", rng.choice(["DE", "US"])) for i in range(owners)],
    )
    db.insert("Demo", [(i, 20_000 + rng.randrange(80_000)) for i in range(owners)])
    db.create_index("Owner", "id")
    db.create_index("Owner", "country")
    # Deliberately no index on Demo.ownerid.
    db.analyze()
    return db


SQL = (
    "SELECT o.name, d.salary FROM Owner o, Demo d "
    "WHERE o.id = d.ownerid AND o.country = 'DE' AND d.salary < 70000"
)


def expected_rows(db, sql):
    plan = db.plan(sql)
    expanded = QuerySpec(
        tables=plan.query.tables,
        local_predicates=plan.query.local_predicates,
        join_predicates=plan.query.join_predicates,
        projection=plan.projection,
    )
    return sorted(reference_join(db, expanded))


class TestHashProbeTable:
    def make_table(self):
        db = build_unindexed_join_db()
        return db.catalog.table("Demo"), db.catalog.meter

    def test_build_filters_locals(self):
        from repro.query.predicates import Comparison, Op

        table, meter = self.make_table()
        predicate = Comparison("salary", Op.LT, 40_000)
        hash_table = HashProbeTable(
            table, "ownerid", [(predicate, predicate.bind(table.schema))], meter
        )
        low_salary = sum(1 for row in table.raw_rows() if row[1] < 40_000)
        assert len(hash_table) == low_salary

    def test_probe_matches(self):
        table, meter = self.make_table()
        hash_table = HashProbeTable(table, "ownerid", [], meter)
        matches = hash_table.probe(5, meter)
        assert [row for _, row in matches] == [table.peek(5)]

    def test_probe_none_key(self):
        table, meter = self.make_table()
        hash_table = HashProbeTable(table, "ownerid", [], meter)
        assert hash_table.probe(None, meter) == []

    def test_build_charges_work(self):
        table, meter = self.make_table()
        before = meter.snapshot()
        HashProbeTable(table, "ownerid", [], meter)
        delta = meter - before
        assert delta.hash_build_entries == len(table)
        assert delta.row_fetches == len(table)

    def test_build_records_table_wide_local_counts(self):
        from repro.query.predicates import Comparison, Op

        table, meter = self.make_table()
        predicate = Comparison("salary", Op.LT, 40_000)
        counts = [[0, 0]]
        HashProbeTable(
            table,
            "ownerid",
            [(predicate, predicate.bind(table.schema))],
            meter,
            local_counts=counts,
        )
        assert counts[0][0] == len(table)
        assert 0 < counts[0][1] < len(table)


#: Demo's join column unindexed: wherever Demo is an inner leg, it is
#: hash-probed (every predicate that reaches it is on ``ownerid``).
DEMO_UNINDEXED = (("Demo", "ownerid"),)


class TestCorrectness:
    def test_matches_reference_without_join_index(self):
        db = build_unindexed_join_db()
        result = db.execute(SQL, AdaptiveConfig(mode=ReorderMode.BOTH))
        assert sorted(result.rows) == expected_rows(db, SQL)
        assert result.stats.work.hash_probes > 0

    def test_matches_reference_with_indexes(self):
        """Car and Owner probed through their indexes, Demo hashed."""
        db = build_three_table_db(unindexed=DEMO_UNINDEXED)
        sql = (
            "SELECT o.name FROM Owner o, Car c, Demo d "
            "WHERE c.ownerid = o.id AND o.id = d.ownerid "
            "AND c.make = 'Rare' AND d.salary < 60000"
        )
        result = db.execute(sql, AdaptiveConfig(mode=ReorderMode.BOTH))
        assert sorted(result.rows) == expected_rows(db, sql)
        assert result.stats.work.hash_probes > 0

    def test_positional_predicates_respected_under_chaos(self):
        """Driving switches + hash probes never duplicate or lose rows."""
        from tests.test_adaptive_correctness import ScriptedController

        db = build_three_table_db(owners=30, seed=3, unindexed=DEMO_UNINDEXED)
        sql = (
            "SELECT o.name, c.make, d.salary FROM Owner o, Car c, Demo d "
            "WHERE c.ownerid = o.id AND o.id = d.ownerid AND d.salary < 70000"
        )
        expected = expected_rows(db, sql)
        plan = db.plan(sql)
        config = AdaptiveConfig(mode=ReorderMode.BOTH)
        hashed = 0
        for seed in range(5):
            controller = ScriptedController(seed, 0.3, 0.5)
            executor = PipelineExecutor(plan, db.catalog, config, controller)
            controller.attach(executor)
            assert sorted(executor.run_to_completion()) == expected, seed
            hashed += executor.work.hash_probes
        assert hashed > 0

    def test_unindexed_join_is_hash_probed_alike_on_both_stores(self):
        """The oracle and the engine (the cascade, probing the columnar
        build of the same buckets) run the same hash probe: same rows in the
        same order, the same WorkMeter, field by field."""
        static = AdaptiveConfig(mode=ReorderMode.NONE)
        row = hand_off_db("row").execute(HASHED, static)
        columnar = hand_off_db("columnar").execute(HASHED, static)
        assert (row.stats.engine, columnar.stats.engine) == ("scalar", "vector")
        assert columnar.rows == row.rows and row.rows
        assert dataclasses.asdict(columnar.stats.work) == dataclasses.asdict(
            row.stats.work
        )
        assert row.stats.work.hash_build_entries > 0


class TestEfficiency:
    def _run_with_demo_inner(self, db):
        """Force Owner to drive so the unindexed Demo leg is probed."""
        plan = db.plan(SQL).with_order(("o", "d"))
        executor = PipelineExecutor(
            plan, db.catalog, AdaptiveConfig(mode=ReorderMode.NONE)
        )
        rows = executor.run_to_completion()
        return rows, executor

    def test_build_reused_across_probes(self):
        db = build_unindexed_join_db(owners=300)
        _, executor = self._run_with_demo_inner(db)
        # Exactly one build: the charged entries equal the number of rows
        # passing the leg's local predicate (salary < 70000), once.
        qualifying = sum(
            1 for row in db.catalog.table("Demo").raw_rows() if row[1] < 70_000
        )
        assert executor.work.hash_build_entries == qualifying
        assert executor.work.hash_probes > 1

    def test_indexed_joins_never_hash(self, three_table_db):
        result = three_table_db.execute(SQL, AdaptiveConfig(mode=ReorderMode.NONE))
        assert result.stats.work.hash_probes == 0
        assert result.stats.work.hash_build_entries == 0
