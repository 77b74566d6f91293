"""Tests for the public Database facade."""

import pytest

from repro import (
    AdaptiveConfig,
    Database,
    QueryResult,
    ReorderMode,
    SchemaError,
    StatisticsLevel,
)


def make_db() -> Database:
    db = Database()
    db.create_table("T", [("id", "int"), ("name", "string"), ("score", "float")])
    db.create_index("T", "id")
    db.insert("T", [(1, "a", 1.5), (2, "b", 2.5)])
    db.analyze()
    return db


class TestSchemaApi:
    def test_tuple_column_specs(self):
        db = make_db()
        schema = db.catalog.table("T").schema
        assert schema.column_names() == ("id", "name", "score")

    def test_unknown_type_name(self):
        db = Database()
        with pytest.raises(SchemaError, match="unknown column type"):
            db.create_table("T", [("id", "uuid")])

    def test_type_aliases(self):
        db = Database()
        db.create_table(
            "T", [("a", "integer"), ("b", "text"), ("c", "double"), ("d", "str")]
        )
        assert len(db.catalog.table("T").schema) == 4


class TestQueryApi:
    def test_execute_sql_string(self):
        result = make_db().execute("SELECT T.name FROM T WHERE T.id = 1")
        assert result.rows == [("a",)]

    def test_execute_parsed_spec(self):
        db = make_db()
        spec = db.parse("SELECT T.name FROM T")
        assert len(db.execute(spec).rows) == 2

    def test_execute_prebuilt_plan(self):
        db = make_db()
        plan = db.plan("SELECT T.name FROM T")
        assert len(db.execute(plan).rows) == 2

    def test_explain_returns_text(self):
        text = make_db().explain("SELECT T.name FROM T")
        assert "PipelinePlan" in text

    def test_default_config_is_adaptive_both(self):
        result = make_db().execute("SELECT T.name FROM T")
        assert isinstance(result, QueryResult)

    def test_analyze_levels(self):
        db = make_db()
        db.analyze(level=StatisticsLevel.DETAILED)
        stats = db.catalog.stats("T")
        assert stats.column("name").has_frequent_values


class TestExecutionStats:
    def test_stats_fields(self):
        result = make_db().execute(
            "SELECT T.name FROM T", AdaptiveConfig(mode=ReorderMode.NONE)
        )
        stats = result.stats
        assert stats.total_work > 0
        assert stats.execution_work > 0
        assert stats.adaptation_work == 0.0
        assert stats.wall_seconds > 0
        assert not stats.order_changed
        assert stats.order_history[0] == result.final_order

    def test_work_isolated_per_query(self):
        db = make_db()
        # The same plan twice (as text, the second would run its lesson).
        plan = db.plan("SELECT T.name FROM T")
        first = db.execute(plan)
        second = db.execute(plan)
        # Each result carries only its own work, not cumulative totals.
        assert first.stats.total_work == pytest.approx(second.stats.total_work)

    def test_len_of_result(self):
        assert len(make_db().execute("SELECT T.name FROM T")) == 2
