"""A batch insert validates the whole batch, then appends it, on both stores.

``insert`` is a one-row batch, so both entry points raise the message the
row-at-a-time check (:meth:`TableSchema.validate_row`) raises first, and a
batch that fails leaves the table, its version, its indexes, the catalog's
generation and every query's result as they were.
"""

from __future__ import annotations

import enum

import pytest

from repro import Database
from repro.errors import StorageError
from repro.storage.columnar import ColumnarTable
from repro.storage.schema import Column, TableSchema
from repro.storage.table import HeapTable
from repro.storage.types import ColumnType

STORES = {"row": HeapTable, "columnar": ColumnarTable}

SCHEMA = TableSchema(
    "t",
    [
        Column("i", ColumnType.INT, nullable=False),
        Column("f", ColumnType.FLOAT),
        Column("s", ColumnType.STRING),
    ],
)
GOOD = (1, 2.5, "a")

#: One bad row per error kind.
BAD = {
    "width": (1, 2.5),
    "not-null": (None, 2.5, "a"),
    "bool": (True, 2.5, "a"),
    "int-range": (2**63, 2.5, "a"),
    "int-range-low": (-(2**63) - 1, 2.5, "a"),
    "wrong-type-int": ("1", 2.5, "a"),
    "wrong-type-float": (1, "2.5", "a"),
    "wrong-type-str": (1, 2.5, 3),
    "bool-in-float": (1, False, "a"),
}


def rows_of(table) -> list[tuple]:
    return list(zip(*(table.column_values(c.name) for c in SCHEMA.columns)))


def stored_rows(table) -> list[tuple]:
    """The stored cells with their types (an int and a float compare equal)."""
    return [tuple((type(v), v) for v in row) for row in rows_of(table)]


@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("kind", sorted(BAD))
def test_insert_and_insert_many_raise_the_same_message(store, kind):
    with pytest.raises(StorageError) as expected:
        SCHEMA.validate_row(BAD[kind])
    one = STORES[store](SCHEMA)
    with pytest.raises(StorageError) as single:
        one.insert(BAD[kind])
    many = STORES[store](SCHEMA)
    with pytest.raises(StorageError) as batch:
        many.insert_many([GOOD, GOOD, BAD[kind], GOOD])
    assert str(single.value) == str(batch.value) == str(expected.value)
    for table in (one, many):
        assert (len(table), table.version, rows_of(table)) == (0, 0, [])


@pytest.mark.parametrize("store", sorted(STORES))
def test_the_first_bad_row_names_the_error(store):
    """Column ``i`` fails its scan (a bool in the last row), but an earlier
    row holds a wrong string cell: the row-major first error is raised."""
    table = STORES[store](SCHEMA)
    with pytest.raises(StorageError, match="expected str, got int"):
        table.insert_many([GOOD, BAD["wrong-type-str"], BAD["bool"]])
    assert len(table) == 0


@pytest.mark.parametrize("store", sorted(STORES))
def test_ints_widen_to_float_alike(store):
    one = STORES[store](SCHEMA)
    for row in [(1, 2, "a"), (2, None, None), (3, 4.5, "b")]:
        one.insert(row)
    many = STORES[store](SCHEMA)
    assert many.insert_many([(1, 2, "a"), (2, None, None), (3, 4.5, "b")]) == 3
    expected = [
        ((int, 1), (float, 2.0), (str, "a")),
        ((int, 2), (type(None), None), (type(None), None)),
        ((int, 3), (float, 4.5), (str, "b")),
    ]
    assert stored_rows(one) == stored_rows(many) == expected
    assert one.version == many.version == 3


class Size(enum.IntEnum):
    SMALL = 7


@pytest.mark.parametrize("store", sorted(STORES))
def test_a_value_the_scan_cannot_vouch_for_is_decided_row_by_row(store):
    """An int subclass is not ``int`` to the column scan; the row walk
    accepts it, as the row-at-a-time check always did."""
    one = STORES[store](SCHEMA)
    one.insert((Size.SMALL, 1.0, "a"))
    many = STORES[store](SCHEMA)
    many.insert_many([GOOD, (Size.SMALL, 1.0, "a")])
    assert rows_of(one) == [(7, 1.0, "a")]
    assert rows_of(many) == [GOOD, (7, 1.0, "a")]


@pytest.mark.parametrize("store", sorted(STORES))
def test_strings_take_codes_in_order_of_first_appearance(store):
    table = STORES[store](SCHEMA)
    table.insert_many([(1, None, "b"), (2, None, None), (3, None, "a")])
    table.insert_many([(4, None, "c"), (5, None, "a"), (6, None, "b")])
    assert table.column_values("s") == ["b", None, "a", "c", "a", "b"]
    if store == "columnar":
        column = table.column_store(2)
        assert column.decode == ["b", "a", "c"]
        assert column.encode == {"b": 0, "a": 1, "c": 2}
        assert list(column.codes) == [0, -1, 1, 2, 1, 0]
        assert bytes(table.column_store(1).nulls) == b"\x01" * 6


@pytest.mark.parametrize("backend", ["row", "columnar"])
def test_a_failed_batch_changes_nothing(backend):
    db = Database(backend=backend)
    db.create_table("A", [Column("id", ColumnType.INT), Column("v", ColumnType.INT)])
    db.create_index("A", "v")
    db.insert("A", [(i, i) for i in range(5)])
    sql = "SELECT a.id FROM A a WHERE a.v >= 0"
    catalog = db.catalog
    table, index = catalog.table("A"), catalog.index_on("A", "v")

    def state():
        return (
            len(table), table.version, catalog.generation(), len(index),
            index._built_upto, sorted(db.execute(sql).rows),
        )

    before = state()
    assert before[-1] == [(i,) for i in range(5)]
    with pytest.raises(StorageError, match="expected int, got str"):
        db.insert("A", [(5, 5), (6, 6), (7, "bad")])
    assert state() == before
    db.insert("A", [(5, 5), (6, 6), (7, 7)])
    assert sorted(db.execute(sql).rows) == [(i,) for i in range(8)]
    assert index.lookup_rids(6) == [6]
