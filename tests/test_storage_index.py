"""Unit tests for repro.storage.index."""

import pytest

from repro.errors import StorageError
from repro.storage.index import SortedIndex, _RID_HIGH
from repro.storage.schema import Column, TableSchema
from repro.storage.table import HeapTable
from repro.storage.types import ColumnType


def make_indexed_table(values):
    schema = TableSchema(
        "t", [Column("k", ColumnType.INT), Column("v", ColumnType.STRING)]
    )
    table = HeapTable(schema)
    table.insert_many([(value, f"v{i}") for i, value in enumerate(values)])
    return table, SortedIndex("ix", table, "k")


class TestBuild:
    def test_entries_sorted_by_key_then_rid(self):
        _, index = make_indexed_table([3, 1, 3, 2])
        entries = list(index.scan_range())
        assert entries == [(1, 1), (2, 3), (3, 0), (3, 2)]

    def test_none_keys_not_indexed(self):
        _, index = make_indexed_table([1, None, 2])
        assert len(index) == 2

    def test_refresh_after_insert(self):
        table, index = make_indexed_table([1, 2])
        table.insert([0, "new"])
        index.refresh()
        assert [rid for _, rid in index.scan_range()] == [2, 0, 1]

    def test_stale_index_raises(self):
        table, index = make_indexed_table([1])
        table.insert([2, "x"])
        with pytest.raises(StorageError, match="stale"):
            index.lookup_rids(1)

    def test_refresh_noop_when_fresh(self):
        _, index = make_indexed_table([1])
        index.refresh()  # must not raise
        assert len(index) == 1


class TestLookup:
    def test_lookup_hits(self):
        _, index = make_indexed_table([5, 7, 5])
        assert index.lookup_rids(5) == [0, 2]

    def test_lookup_miss(self):
        _, index = make_indexed_table([5])
        assert index.lookup_rids(9) == []

    def test_lookup_none_is_empty(self):
        _, index = make_indexed_table([5, None])
        assert index.lookup_rids(None) == []

    def test_lookup_charges_descend_and_entries(self):
        table, index = make_indexed_table([5, 5, 5])
        before = table.meter.snapshot()
        index.lookup_rids(5)
        delta = table.meter - before
        assert delta.index_descends == 1
        assert delta.index_entries == 3


class TestScanRange:
    def test_inclusive_bounds(self):
        _, index = make_indexed_table([1, 2, 3, 4])
        keys = [k for k, _ in index.scan_range(low=2, high=3)]
        assert keys == [2, 3]

    def test_exclusive_bounds(self):
        _, index = make_indexed_table([1, 2, 3, 4])
        keys = [
            k
            for k, _ in index.scan_range(
                low=1, high=4, low_inclusive=False, high_inclusive=False
            )
        ]
        assert keys == [2, 3]

    def test_unbounded(self):
        _, index = make_indexed_table([2, 1])
        assert [k for k, _ in index.scan_range()] == [1, 2]

    def test_start_after_skips(self):
        _, index = make_indexed_table([1, 2, 2, 3])
        entries = list(index.scan_range(start_after=(2, 1)))
        assert entries == [(2, 2), (3, 3)]

    def test_start_after_before_everything(self):
        _, index = make_indexed_table([1, 2])
        entries = list(index.scan_range(start_after=(0, 10**9)))
        assert [k for k, _ in entries] == [1, 2]

    def test_scan_charges_per_entry(self):
        table, index = make_indexed_table([1, 2, 3])
        before = table.meter.snapshot()
        list(index.scan_range(low=1, high=2))
        delta = table.meter - before
        assert delta.index_entries == 2


class TestCounts:
    def test_count_range(self):
        _, index = make_indexed_table([1, 2, 2, 3])
        assert index.count_range(2, 2) == 2
        assert index.count_range(low=2) == 3
        assert index.count_range() == 4

    def test_count_range_after(self):
        _, index = make_indexed_table([1, 2, 2, 3])
        assert index.count_range_after((2, 1)) == 2
        assert index.count_range_after(None) == 4
        assert index.count_range_after((3, 3)) == 0

    def test_count_range_after_respects_bounds(self):
        _, index = make_indexed_table([1, 2, 2, 3])
        assert index.count_range_after((1, 0), low=2, high=2) == 2
        assert index.count_range_after((2, 1), low=2, high=2) == 1

    def test_counts_do_not_charge(self):
        table, index = make_indexed_table([1, 2])
        before = table.meter.snapshot()
        index.count_range(1, 2)
        index.count_range_after((1, 0))
        assert (table.meter - before).index_entries == 0

    def test_distinct_key_count(self):
        _, index = make_indexed_table([1, 2, 2, 3, 3, 3])
        assert index.distinct_key_count() == 3


class TestStringKeys:
    def test_string_ordering(self):
        schema = TableSchema(
            "s", [Column("k", ColumnType.STRING), Column("v", ColumnType.INT)]
        )
        table = HeapTable(schema)
        table.insert_many([("Mercedes", 1), ("Chevrolet", 2), ("Ford", 3)])
        index = SortedIndex("ix", table, "k")
        keys = [k for k, _ in index.scan_range()]
        assert keys == ["Chevrolet", "Ford", "Mercedes"]


def make_string_indexed_table(values):
    schema = TableSchema(
        "s", [Column("k", ColumnType.STRING), Column("v", ColumnType.INT)]
    )
    table = HeapTable(schema)
    table.insert_many([(value, i) for i, value in enumerate(values)])
    return table, SortedIndex("ix", table, "k")


class TestAfterAnySentinel:
    """The upper RID bound must order after *any* RID type.

    A ``float("inf")`` sentinel only orders against numbers: with equal
    keys, ``(key, inf) > (key, rid)`` raises ``TypeError`` deep inside
    ``bisect`` the moment RIDs are not numeric. The dedicated sentinel
    compares greater than everything except itself.
    """

    def test_orders_after_every_type(self):
        for rid in (0, 10**9, -3, 1.5, "rid-7", ("page", 3), None):
            assert _RID_HIGH > rid
            assert _RID_HIGH >= rid
            assert not _RID_HIGH < rid
            assert not _RID_HIGH <= rid
            assert rid < _RID_HIGH  # reflected comparison, as bisect uses it
            assert _RID_HIGH != rid

    def test_identity_semantics(self):
        assert _RID_HIGH == _RID_HIGH
        assert _RID_HIGH <= _RID_HIGH
        assert _RID_HIGH >= _RID_HIGH
        assert not _RID_HIGH > _RID_HIGH
        assert hash(_RID_HIGH) == hash(_RID_HIGH)

    def test_bisect_with_adversarial_rid_types(self):
        """Regression: bound tuples must stay totally ordered for any RID."""
        _, index = make_indexed_table([1, 1, 2])
        # Simulate an index whose RIDs are strings and tuples (composite
        # positions) — the shapes the float sentinel chokes on.
        index._entries = [
            (1, ("page", 0)),
            (1, ("page", 4)),
            (2, "row-a"),
            (2, "row-b"),
        ]
        assert index._range_bounds(1, 1, True, True) == (0, 2)
        assert index._range_bounds(2, 2, True, True) == (2, 4)
        assert index._range_bounds(1, 2, False, True) == (2, 4)

    def test_duplicate_string_keys_boundary_lookup(self):
        _, index = make_string_indexed_table(["b", "a", "b", "c", "b"])
        assert index.lookup_rids("b") == [0, 2, 4]
        assert index.lookup_rids("a") == [1]
        assert index.lookup_rids("zz") == []
