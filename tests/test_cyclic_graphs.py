"""Cyclic join graphs: predicate availability changes with the order.

Sec 4.3.4 / Fig 6: in a cyclic query, which join predicates an inner leg
can apply depends on its position, so join cardinalities must be adjusted
when the order changes. These tests build the paper's three-table cycle
(JP1: T1-T2, JP2: T1-T3, JP3: T2-T3 on *distinct* column pairs, so the
equivalence classes do not collapse the cycle) and verify correctness and
availability behaviour.
"""

import random

import pytest

from repro import AdaptiveConfig, Database, ReorderMode
from repro.query.sql.parser import parse_sql

from tests.conftest import reference_join


def build_cyclic_db(rows=120, seed=9, backend="row"):
    rng = random.Random(seed)
    db = Database(backend=backend)
    db.create_table("T1", [("k", "int"), ("j", "int"), ("pay", "string")])
    db.create_table("T2", [("k", "int"), ("m", "int")])
    db.create_table("T3", [("j", "int"), ("m", "int")])
    db.insert(
        "T1",
        [(rng.randrange(20), rng.randrange(20), f"p{i}") for i in range(rows)],
    )
    db.insert("T2", [(rng.randrange(20), rng.randrange(20)) for _ in range(rows)])
    db.insert("T3", [(rng.randrange(20), rng.randrange(20)) for _ in range(rows)])
    for table, column in [
        ("T1", "k"), ("T1", "j"), ("T2", "k"), ("T2", "m"),
        ("T3", "j"), ("T3", "m"),
    ]:
        db.create_index(table, column)
    db.analyze()
    return db


SQL = (
    "SELECT a.pay FROM T1 a, T2 b, T3 c "
    "WHERE a.k = b.k AND a.j = c.j AND b.m = c.m"
)


class TestCyclicGraphStructure:
    def test_graph_is_cyclic(self):
        spec = parse_sql(SQL)
        graph = spec.join_graph()
        assert graph.is_cyclic()
        # Three distinct equivalence classes (no transitive collapse).
        assert len(graph.classes) == 3

    def test_availability_changes_with_position(self):
        graph = parse_sql(SQL).join_graph()
        # c after {a}: only the a.j=c.j class is available.
        assert len(graph.available_predicates("c", ["a"])) == 1
        # c after {a, b}: both its classes are available (Fig 6's point).
        assert len(graph.available_predicates("c", ["a", "b"])) == 2


class TestCyclicCorrectness:
    @pytest.fixture(scope="class")
    def db(self):
        return build_cyclic_db()

    def expected(self, db):
        plan = db.plan(SQL)
        from repro.query.query import QuerySpec

        expanded = QuerySpec(
            tables=plan.query.tables,
            local_predicates=plan.query.local_predicates,
            join_predicates=plan.query.join_predicates,
            projection=plan.projection,
        )
        return sorted(reference_join(db, expanded))

    def test_static_matches_reference(self, db):
        result = db.execute(SQL, AdaptiveConfig(mode=ReorderMode.NONE))
        assert sorted(result.rows) == self.expected(db)

    def test_all_orders_agree(self, db):
        plan = db.plan(SQL)
        expected = self.expected(db)
        for order in plan.query.join_graph().connected_orders():
            result = db.execute(
                plan.with_order(order), AdaptiveConfig(mode=ReorderMode.NONE)
            )
            assert sorted(result.rows) == expected, order

    def test_adaptive_matches_reference(self, db):
        config = AdaptiveConfig(
            mode=ReorderMode.BOTH,
            check_frequency=1,
            warmup_rows=1,
            switch_benefit_threshold=0.0,
            history_window=10,
        )
        result = db.execute(SQL, config)
        assert sorted(result.rows) == self.expected(db)

    def test_second_class_predicate_checked_residually(self, db):
        """The cycle-closing predicate filters when both sides are bound.

        Joining all three legs with only two of the three predicates would
        produce strictly more rows; the executor must apply the third
        (residual) predicate whichever order runs.
        """
        plan = db.plan(SQL)
        full = db.execute(plan, AdaptiveConfig(mode=ReorderMode.NONE))
        two_predicate_sql = (
            "SELECT a.pay FROM T1 a, T2 b, T3 c "
            "WHERE a.k = b.k AND a.j = c.j"
        )
        loose = db.execute(
            two_predicate_sql, AdaptiveConfig(mode=ReorderMode.NONE)
        )
        assert len(full.rows) < len(loose.rows)
