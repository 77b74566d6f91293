"""Unit tests for frozen scan positions (Sec 4.2 duplicate prevention)."""

from repro.core.positions import PositionRegistry
from repro.storage.cursor import IndexScanCursor, KeyRange, TableScanCursor
from repro.storage.index import SortedIndex
from repro.storage.schema import Column, TableSchema
from repro.storage.table import HeapTable
from repro.storage.types import ColumnType


def make_table(values):
    schema = TableSchema(
        "t", [Column("k", ColumnType.INT), Column("v", ColumnType.STRING)]
    )
    table = HeapTable(schema)
    table.insert_many([(value, f"v{i}") for i, value in enumerate(values)])
    return table


class TestFreeze:
    def test_freeze_mid_scan(self):
        table = make_table([1, 2, 3])
        cursor = TableScanCursor(table)
        next(cursor)
        registry = PositionRegistry()
        registry.freeze("t", cursor)
        predicate = registry.predicate_for("t")
        assert not predicate.test(0, (1, "v0"))
        assert predicate.test(1, (2, "v1"))

    def test_freeze_before_first_row_means_no_restriction(self):
        table = make_table([1])
        registry = PositionRegistry()
        registry.freeze("t", TableScanCursor(table))
        assert registry.predicate_for("t") is None
        assert registry.frozen_scan("t") is not None

    def test_unknown_alias(self):
        registry = PositionRegistry()
        assert registry.predicate_for("zz") is None
        assert registry.resume_cursor("zz") is None
        assert registry.frozen_scan("zz") is None

    def test_switch_count(self):
        table = make_table([1, 2])
        registry = PositionRegistry()
        cursor = TableScanCursor(table)
        next(cursor)
        registry.freeze("t", cursor)
        registry.freeze("t", cursor)
        assert registry.switch_count == 2


class TestResume:
    def test_resume_cursor_identity(self):
        table = make_table([1, 2, 3])
        cursor = TableScanCursor(table)
        next(cursor)
        registry = PositionRegistry()
        registry.freeze("t", cursor)
        assert registry.resume_cursor("t") is cursor
        # Resuming continues exactly after the frozen position.
        assert [rid for rid, _ in registry.resume_cursor("t")] == [1, 2]


class TestIndexOrderFreeze:
    def test_composite_positional_predicate(self):
        table = make_table([5, 5, 7, 3])
        index = SortedIndex("ix", table, "k")
        cursor = IndexScanCursor(index, [KeyRange(low=3, high=7)])
        next(cursor)  # (3, 3)
        next(cursor)  # (5, 0)
        registry = PositionRegistry()
        registry.freeze("t", cursor)
        predicate = registry.predicate_for("t")
        # key > 5 OR (key = 5 AND rid > 0)
        assert not predicate.test(3, (3, "v3"))
        assert not predicate.test(0, (5, "v0"))
        assert predicate.test(1, (5, "v1"))
        assert predicate.test(2, (7, "v2"))
