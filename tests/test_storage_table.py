"""Unit tests for repro.storage.table."""

import pytest

from repro.errors import StorageError
from repro.storage.schema import Column, TableSchema
from repro.storage.table import HeapTable
from repro.storage.types import ColumnType


def make_table() -> HeapTable:
    schema = TableSchema(
        "t", [Column("id", ColumnType.INT), Column("v", ColumnType.STRING)]
    )
    return HeapTable(schema)


class TestInsert:
    def test_rids_are_sequential(self):
        table = make_table()
        assert table.insert([1, "a"]) == 0
        assert table.insert([2, "b"]) == 1

    def test_insert_many_counts(self):
        table = make_table()
        assert table.insert_many([(i, "x") for i in range(5)]) == 5
        assert len(table) == 5

    def test_cardinality(self):
        table = make_table()
        table.insert([1, "a"])
        assert table.cardinality == 1

    def test_invalid_row_rejected(self):
        table = make_table()
        with pytest.raises(StorageError):
            table.insert(["not-int", "a"])


class TestFetch:
    def test_fetch_returns_row(self):
        table = make_table()
        table.insert([1, "a"])
        assert table.fetch(0) == (1, "a")

    def test_fetch_charges_work(self):
        table = make_table()
        table.insert([1, "a"])
        before = table.meter.row_fetches
        table.fetch(0)
        assert table.meter.row_fetches == before + 1

    def test_peek_does_not_charge(self):
        table = make_table()
        table.insert([1, "a"])
        before = table.meter.row_fetches
        table.peek(0)
        assert table.meter.row_fetches == before

    @pytest.mark.parametrize("rid", [-1, 1, 100])
    def test_bad_rid(self, rid):
        table = make_table()
        table.insert([1, "a"])
        with pytest.raises(StorageError, match="out of range"):
            table.fetch(rid)


class TestScan:
    def test_scan_order_is_rid_order(self):
        table = make_table()
        table.insert_many([(i, "x") for i in range(4)])
        assert [rid for rid, _ in table.scan()] == [0, 1, 2, 3]

    def test_scan_charges_per_row(self):
        table = make_table()
        table.insert_many([(i, "x") for i in range(4)])
        before = table.meter.row_fetches
        list(table.scan())
        assert table.meter.row_fetches == before + 4

    def test_column_values(self):
        table = make_table()
        table.insert_many([(1, "a"), (2, "b")])
        assert table.column_values("v") == ["a", "b"]
        assert table.column_values("id") == [1, 2]


class TestColumnarTableHasNoRowView:
    """A columnar table keeps typed columns only: a row-wise read of it
    raises, and its cells are read through the columns."""

    def make(self):
        from repro.storage.columnar import ColumnarTable

        table = ColumnarTable(make_table().schema)
        table.insert_many([(1, "a"), (2, "b")])
        return table

    @pytest.mark.parametrize(
        "read",
        [
            lambda table: table.fetch(0),
            lambda table: table.peek(0),
            lambda table: list(table.scan()),
            lambda table: list(table.raw_rows()),
            lambda table: table.raw_rows()[0],
        ],
        ids=["fetch", "peek", "scan", "raw_rows", "raw_rows-index"],
    )
    def test_a_row_wise_read_raises(self, read):
        table = self.make()
        before = table.meter.row_fetches
        with pytest.raises(StorageError, match="columnar"):
            read(table)
        assert table.meter.row_fetches == before

    def test_its_cells_are_read_through_the_columns(self):
        table = self.make()
        assert len(table) == 2
        assert table.column_values("v") == ["a", "b"]
        assert table.cells(0, [1, 0]) == [2, 1]
