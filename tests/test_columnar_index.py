"""The columnar index is its arrays, and reads like the row store's list.

:class:`~repro.storage.columnar.ColumnarIndex` keeps the (key, RID) order
as numpy arrays only (entry RIDs, distinct keys, CSR bounds); the row
store's :class:`~repro.storage.index.SortedIndex` keeps a sorted list of
``(key, rid)`` tuples and is the oracle. Built over the same rows — int,
float and string keys with NULLs, duplicates, ``-0.0`` / ``0.0``, an empty
column, rows appended after the build — the two must agree on every read
the engine and the scalar machine make: lengths, each entry (by ``repr``:
a key comes back as the row store holds it), range bounds for bounds of any
number type, positions after a (key, rid) pair, charged lookups, resumed
range scans, and a driving scan read by the row store's cursor and by the
engine's walk over the columnar index: rows, charges, ``last_position``
and remaining fraction.

NaN keys are left out: the row store's tuple sort has no order for them.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranks import remaining_scan_fraction
from repro.dmv import load_dmv
from repro.executor.vector import _DrivingWalk
from repro.storage.columnar import ColumnarIndex, ColumnarTable
from repro.storage.cursor import IndexScanCursor, KeyRange, ScanOrder, scan_ranges
from repro.storage.index import SortedIndex
from repro.storage.schema import Column, TableSchema
from repro.storage.table import HeapTable
from repro.storage.types import ColumnType

from tests.conftest import table_rows

TYPES = {"int": ColumnType.INT, "float": ColumnType.FLOAT, "string": ColumnType.STRING}

#: Keys per column type, NULL included; a bound is also drawn from BOUNDS.
KEYS = {
    "int": st.one_of(
        st.none(), st.integers(-6, 6), st.sampled_from([2**62, -(2**62)])
    ),
    "float": st.one_of(
        st.none(),
        st.sampled_from([-2.5, -0.0, 0.0, 1.0, 1.5, 3.0, 2.0**60]),
        st.integers(-4, 4).map(lambda v: v / 2),
    ),
    "string": st.one_of(
        st.none(), st.sampled_from(["", "a", "ab", "b", "B", "é", "zz"])
    ),
}
#: Bounds besides the keys: absent ones, int bounds on a float column and
#: float bounds on an int column, ints past int64 and past float precision.
BOUNDS = {
    "int": st.sampled_from([2.5, -0.5, 3.0, -0.0, 2**63, -(2**70), 2**62 + 0.5]),
    "float": st.sampled_from([2, -1, 0, 7, 2**53 + 1, 2**60 + 1, 2**80]),
    "string": st.sampled_from(["aa", "c", "A", "éé", "zzz"]),
}


def twins(kind: str, values: list, appended: list):
    """The row store's index and the columnar one over the same rows, with
    *appended* rows inserted and folded in after the build."""
    indexes = []
    for make_table, make_index in (
        (HeapTable, SortedIndex),
        (ColumnarTable, ColumnarIndex),
    ):
        columns = [Column("k", TYPES[kind]), Column("v", ColumnType.INT)]
        schema = TableSchema("t", columns)
        table = make_table(schema)
        table.insert_many([(key, n) for n, key in enumerate(values)])
        index = make_index("ix", table, "k")
        table.insert_many([(key, -n) for n, key in enumerate(appended)])
        index.refresh()
        indexes.append(index)
    return indexes


def same(left, right) -> None:
    """Equal values of the same types: a float key is not an int one and
    ``-0.0`` is not ``0.0``."""
    assert repr(left) == repr(right)


def charged(index, call):
    """*call*'s result and the WorkMeter fields it charged."""
    before = index.meter.snapshot()
    result = call()
    delta = index.meter - before
    return result, (delta.index_descends, delta.index_entries, delta.row_fetches)


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(sorted(KEYS)))
    values = draw(st.lists(KEYS[kind], max_size=40))
    appended = draw(st.lists(KEYS[kind], max_size=6))
    bound = st.one_of(KEYS[kind], BOUNDS[kind])
    bounds = draw(
        st.lists(
            st.tuples(bound, bound, st.booleans(), st.booleans()), max_size=8
        )
    )
    probes = draw(st.lists(st.tuples(bound, st.integers(-1, 50)), max_size=8))
    steps = draw(st.lists(st.integers(1, 7), min_size=1, max_size=12))
    return kind, values, appended, bounds, probes, steps


def key_ranges(kind: str, bound_pairs) -> list[KeyRange]:
    """Disjoint key ranges from the non-NULL bounds drawn (the cursor
    requires disjoint ranges), and the unbounded range."""
    points = sorted({low for low, *_ in bound_pairs if low is not None})
    ranges = [KeyRange()]
    if len(points) >= 2:
        ranges = [KeyRange(points[0], points[1], True, False)]
        if len(points) >= 3:
            ranges.append(KeyRange(points[2], None, False, True))
    return ranges


@settings(max_examples=250, deadline=None, derandomize=True)
@given(cases())
def test_columnar_index_reads_like_the_row_store(case):
    check_twins(*case)


@pytest.mark.parametrize(
    "kind, values, bound",
    [
        # Ints a float64 cannot hold, against float keys at 2**60.
        ("float", [1.0, 2.0**60, None, 2.0**60, 3.0], 2**60 + 1),
        ("float", [1.0, 2.0**60, 2.0**60 + 2**8], 2**60 - 1),
        ("float", [2.0**53, 2.0**53 + 2], 2**53 + 1),
        # Floats between int keys, and an int past int64.
        ("int", [2**62, 2**62 + 1, -3, 0], float(2**62)),
        ("int", [2**62, 2**62 + 1, -3, 0], 2**63),
        ("int", [-3, 0, 0, 2], -0.0),
    ],
)
def test_bounds_past_float_precision(kind, values, bound):
    """Mixed-type bounds compare exactly, as Python compares the tuples."""
    pairs = [(bound, bound, True, True), (bound, bound, False, False)]
    check_twins(kind, values, [], pairs, [(bound, 1)], [1])


def check_twins(kind, values, appended, bounds, probes, steps):
    row, col = twins(kind, values, appended)
    assert len(col) == len(row)
    assert col.distinct_key_count() == row.distinct_key_count()
    entries = [row._entry(p) for p in range(len(row))]
    for position, entry in enumerate(entries):
        same(col._entry(position), entry)
    assert col._rids(0, len(col)) == [rid for _, rid in entries]

    for low, high, low_inclusive, high_inclusive in [
        (None, None, True, True),
        *bounds,
    ]:
        for args in (
            (low, high, low_inclusive, high_inclusive),
            (None, high, True, high_inclusive),
            (low, None, low_inclusive, True),
        ):
            assert col._range_bounds(*args) == row._range_bounds(*args), args
            assert col.count_range(*args) == row.count_range(*args)
            for after in entries[:: max(1, len(entries) // 5)] + [None]:
                assert col.count_range_after(after, *args) == (
                    row.count_range_after(after, *args)
                )
                scanned = [
                    charged(index, lambda: list(index.scan_range(*args, after)))
                    for index in (row, col)
                ]
                same(scanned[1], scanned[0])

    pairs = entries + [(key, rid) for key, rid in probes if key is not None]
    for pair in pairs:
        assert col._bisect_after(pair) == row._bisect_after(pair), pair
    for key, _ in probes + [(e[0], 0) for e in entries[:5]]:
        got = charged(col, lambda: col.lookup_rids(key))
        assert got == charged(row, lambda: row.lookup_rids(key)), key

    # Driving scans: the row store's cursor pulled a row at a time, and the
    # engine's walk over the columnar index (no row tuples to fetch: its
    # rows are read off the columns) taken an entry at a time, then in
    # slices. After every take both have read the same rows and charged
    # the same work, and the walk answers what a freeze and the cost model
    # ask of a scan — its last position, its remaining fraction — as the
    # cursor does.
    ranges = key_ranges(kind, bounds)
    rows = table_rows(col.table)
    walk = _DrivingWalk(ScanOrder(col.table, col), scan_ranges(ranges), [])
    for sizes in ([1] * (len(col) + 1), steps):
        cursor = IndexScanCursor(row, ranges)
        taker = walk.restarted(col.meter)
        for size in sizes:
            pulled, want = charged(
                row,
                lambda: [pair for pair in (next(cursor, None) for _ in range(size)) if pair],
            )

            def take():
                rids = taker.take(size).tolist()
                if len(rids) < size:  # the cursor ran off the scan's end
                    taker.finish()
                return [(rid, rows[rid]) for rid in rids]

            taken, got = charged(col, take)
            same(taken, pulled)
            assert got == want
            same(taker.last_position, cursor.last_position)
            assert remaining_scan_fraction(taker) == remaining_scan_fraction(cursor)
            if len(pulled) < size:
                break


def test_empty_and_all_null_columns():
    for kind in TYPES:
        for values in ([], [None, None]):
            row, col = twins(kind, values, [])
            assert len(col) == len(row) == 0
            assert col.distinct_key_count() == 0
            assert col._range_bounds(None, None, True, True) == (0, 0)
            assert col.lookup_rids("a" if kind == "string" else 1) == []
            assert list(IndexScanCursor(col)) == []


def test_no_python_container_outgrows_the_distinct_string_keys():
    """After a DMV load no columnar index holds a Python list, dict or
    tuple longer than a string column's sorted distinct keys: no entry
    list, no rank dict, no per-key list."""
    db, _ = load_dmv(scale=0.02, backend="columnar")
    checked = 0
    for name in db.catalog.table_names():
        for index in db.catalog.indexes_of(name).values():
            assert isinstance(index, ColumnarIndex)
            assert not hasattr(index, "_entries")
            limit = len(index._str_keys or ())
            slots = {
                slot
                for cls in type(index).__mro__
                for slot in getattr(cls, "__slots__", ())
            }
            for slot in slots:
                held = getattr(index, slot, None)
                if isinstance(held, (list, dict, tuple, set)):
                    assert len(held) <= limit, (index.name, slot, len(held))
            assert len(index) > limit  # the entries are not among them
            checked += 1
    assert checked >= 5


def test_storage_stats_report_the_index_bytes():
    """``index_bytes`` is what the indexes hold, per table and in total: the
    arrays (and a string column's key list) on the columnar store, the
    entry list with its tuples, keys and RIDs on the row store."""
    from repro.obs.metrics import MetricsRegistry, record_storage_gauges
    from repro.storage.columnar import unique_nbytes

    reported = {}
    for backend in ("row", "columnar"):
        db, _ = load_dmv(scale=0.02, backend=backend)
        stats = db.storage_stats()
        per_table = stats["per_table"]
        assert stats["index_bytes"] == sum(t["index_bytes"] for t in per_table)
        for entry in per_table:
            indexes = db.catalog.indexes_of(entry["table"]).values()
            assert entry["index_bytes"] == sum(i.nbytes() for i in indexes)
            for index in indexes:
                if backend == "columnar":
                    strings = index._str_keys
                    lists = 0 if strings is None else sys.getsizeof(strings)
                    arrays = unique_nbytes(index.index_arrays())
                    assert index.nbytes() == arrays + lists
                else:  # a tuple and a RID an entry, at least
                    assert index.nbytes() > 80 * len(index)
        registry = MetricsRegistry()
        record_storage_gauges(registry, stats)
        assert registry.gauge("storage_index_bytes").value() == stats["index_bytes"]
        reported[backend] = stats["index_bytes"]
    assert 0 < 4 * reported["columnar"] < reported["row"]
