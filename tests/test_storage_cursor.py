"""Unit and property tests for repro.storage.cursor."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.cursor import (
    IndexScanCursor,
    KeyRange,
    ScanOrder,
    TableScanCursor,
    normalize_ranges,
)
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


class TestKeyRange:
    def test_equal(self):
        r = KeyRange.equal(5)
        assert r.low == r.high
        assert r.low_inclusive and r.high_inclusive
        assert (r.low, r.high) == (5, 5)

    def test_normalize_sorts_by_low(self):
        ranges = [KeyRange.equal(5), KeyRange.equal(2), KeyRange(low=None, high=1)]
        normalized = normalize_ranges(ranges)
        assert normalized[0].low is None
        assert normalized[1].low == 2
        assert normalized[2].low == 5


class TestTableScanCursor:
    def test_full_scan(self):
        table = make_table([10, 20, 30])
        cursor = TableScanCursor(table)
        assert [rid for rid, _ in cursor] == [0, 1, 2]
        assert cursor.exhausted

    def test_last_position_tracks(self):
        table = make_table([10, 20])
        cursor = TableScanCursor(table)
        next(cursor)
        assert cursor.last_position == (0,)

    def test_empty_table(self):
        cursor = TableScanCursor(make_table([]))
        assert list(cursor) == []


class TestIndexScanCursor:
    def make_cursor(self, values, ranges=None):
        table = make_table(values)
        index = SortedIndex("ix", table, "k")
        return IndexScanCursor(index, ranges)

    def test_key_order(self):
        cursor = self.make_cursor([3, 1, 2])
        rows = [row[0] for _, row in cursor]
        assert rows == [1, 2, 3]

    def test_equality_range(self):
        cursor = self.make_cursor([1, 2, 2, 3], [KeyRange.equal(2)])
        assert [rid for rid, _ in cursor] == [1, 2]

    def test_multi_range_in_list_order(self):
        # IN-list: ranges are walked in sorted order so positions ascend.
        cursor = self.make_cursor(
            [5, 1, 5, 3], [KeyRange.equal(5), KeyRange.equal(1)]
        )
        keys = [row[0] for _, row in cursor]
        assert keys == [1, 5, 5]

    def test_resume_from_position(self):
        # Frozen by not pulling, resumed by pulling again.
        cursor = self.make_cursor([1, 2, 2, 3], [KeyRange(low=1, high=3)])
        next(cursor)
        next(cursor)
        assert cursor.last_position == (2, 1)
        assert [(row[0], rid) for rid, row in cursor] == [(2, 2), (3, 3)]

    def test_resume_skips_finished_ranges(self):
        cursor = self.make_cursor(
            [1, 5], [KeyRange.equal(1), KeyRange.equal(5)]
        )
        next(cursor)
        assert cursor.last_position == (1, 0)
        assert [row[0] for _, row in cursor] == [5]


class TestScanOrder:
    def test_rid_order(self):
        table = make_table([7])
        order = ScanOrder(table)
        assert order.position_of(3, (7, "x")) == (3,)
        assert not order.is_index_order

    def test_index_order(self):
        table = make_table([7])
        index = SortedIndex("ix", table, "k")
        order = ScanOrder(table, index)
        assert order.position_of(3, (7, "x")) == (7, 3)
        assert order.is_index_order

    def test_describe(self):
        table = make_table([1])
        assert "RID order" in ScanOrder(table).describe()


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=9), max_size=25),
    low=st.integers(min_value=0, max_value=9),
    span=st.integers(min_value=0, max_value=9),
)
def test_positions_strictly_increase(values, low, span):
    """Property: an index-scan cursor's position is strictly increasing."""
    table = make_table(values)
    index = SortedIndex("ix", table, "k")
    cursor = IndexScanCursor(index, [KeyRange(low=low, high=low + span)])
    previous = None
    for rid, row in cursor:
        position = cursor.order.position_of(rid, row)
        if previous is not None:
            assert position > previous
        previous = position


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=9), max_size=25),
    cut=st.integers(min_value=0, max_value=24),
)
def test_resume_is_exact_suffix(values, cut):
    """Property: stopping and resuming a scan loses and repeats nothing."""
    table = make_table(values)
    index = SortedIndex("ix", table, "k")
    full = [(rid, row) for rid, row in IndexScanCursor(index)]
    cursor = IndexScanCursor(index)
    consumed = []
    for _ in range(min(cut, len(full))):
        consumed.append(next(cursor))
    # The engine resumes a frozen scan by pulling from the same cursor.
    assert consumed + list(cursor) == full
