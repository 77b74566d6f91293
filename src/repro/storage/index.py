"""Ordered secondary indexes.

A :class:`SortedIndex` maintains (key, rid) entries sorted by key, then RID —
the same order a B-tree on a single column exposes. The executor uses it for

* equality probes during indexed nested-loop joins,
* range scans that drive a pipeline (the "index scan" access path), and
* the driving-leg positional order (key, rid) the paper exploits for
  duplicate prevention when switching driving tables (Sec 4.2).

``None`` keys are not indexed, matching SQL semantics where ``NULL`` never
satisfies an equality or range predicate.

Work accounting: each probe charges one ``INDEX_DESCEND`` plus one
``INDEX_ENTRY`` per entry touched, so plans that probe fewer entries are
deterministically cheaper.
"""

from __future__ import annotations

import bisect
import sys
from operator import itemgetter
from typing import Any, Iterator

from repro.errors import StorageError
from repro.storage.counters import WorkMeter
from repro.storage.table import HeapTable

class _AfterAny:
    """Sentinel that orders strictly after every RID, whatever its type.

    ``float("inf")`` only orders against numbers; if RIDs ever become
    non-numeric (composite positions, string row ids in tests), a float
    sentinel inside a ``(key, rid)`` comparison raises ``TypeError`` deep
    inside ``bisect``. This sentinel compares greater than *anything*
    except itself, so bound tuples stay totally ordered for any RID type.
    """

    __slots__ = ()

    def __lt__(self, other: Any) -> bool:
        return False

    def __le__(self, other: Any) -> bool:
        return other is self

    def __gt__(self, other: Any) -> bool:
        return other is not self

    def __ge__(self, other: Any) -> bool:
        return True

    def __eq__(self, other: Any) -> bool:
        return other is self

    def __hash__(self) -> int:
        return object.__hash__(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<after-any-rid>"


class _BeforeAny:
    """Mirror of :class:`_AfterAny`: orders strictly before every RID."""

    __slots__ = ()

    def __lt__(self, other: Any) -> bool:
        return other is not self

    def __le__(self, other: Any) -> bool:
        return True

    def __gt__(self, other: Any) -> bool:
        return False

    def __ge__(self, other: Any) -> bool:
        return other is self

    def __eq__(self, other: Any) -> bool:
        return other is self

    def __hash__(self) -> int:
        return object.__hash__(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<before-any-rid>"


# Bound sentinels: (key, _RID_LOW) sorts before and (key, _RID_HIGH) after
# every real (key, rid) entry, for any RID type (see _AfterAny).
_RID_LOW = _BeforeAny()
_RID_HIGH = _AfterAny()

Entry = tuple[Any, Any]  # (key, rid)


class SortedIndex:
    """A single-column ordered index over a :class:`HeapTable`."""

    __slots__ = ("name", "table", "column", "_column_pos", "_entries", "_built_upto")

    def __init__(self, name: str, table: HeapTable, column: str) -> None:
        self.name = name
        self.table = table
        self.column = column
        self._column_pos = table.schema.position_of(column)
        self._built_upto = 0  # number of heap rows reflected in the index
        self.rebuild()

    @property
    def meter(self) -> WorkMeter:
        return self.table.meter

    def __len__(self) -> int:
        return len(self._entries)

    def rebuild(self) -> None:
        """(Re)build the index from the current heap contents."""
        self._entries = []
        self._built_upto = 0
        self.refresh()

    def refresh(self) -> None:
        """Fold rows appended since the last build into the index: their
        entries are appended and the list is sorted once (an insertion per
        row would move the list's tail per row). ``(key, rid)`` is a total
        order, so the result is the list those insertions would build."""
        heap_size = len(self.table)
        if self._built_upto == heap_size:
            return
        start = self._built_upto
        keys = map(
            itemgetter(self._column_pos), self.table.raw_rows()[start:heap_size]
        )
        self._entries.extend(
            (key, rid) for rid, key in enumerate(keys, start) if key is not None
        )
        self._entries.sort()
        self._built_upto = heap_size

    def _check_fresh(self) -> None:
        if self._built_upto != len(self.table):
            raise StorageError(
                f"index {self.name!r} is stale: call refresh() after inserts"
            )

    # ------------------------------------------------------------------
    # Entry positions: what cursors, range scans and positional
    # predicates read. The row store answers from its entry list; the
    # columnar store (ColumnarIndex) from its arrays.
    # ------------------------------------------------------------------
    def _entry(self, position: int) -> Entry:
        """The (key, rid) entry at *position* of the (key, rid) order."""
        return self._entries[position]

    def _bisect_after(self, entry: Entry) -> int:
        """How many entries sort at or before the (key, rid) *entry*."""
        return bisect.bisect_right(self._entries, entry)

    def _rids(self, lo: int, hi: int) -> list[int]:
        """The RIDs of the entries at positions ``[lo, hi)``."""
        return [rid for _, rid in self._entries[lo:hi]]

    def _range_bounds(
        self,
        low: Any,
        high: Any,
        low_inclusive: bool,
        high_inclusive: bool,
    ) -> tuple[int, int]:
        """Entry-list [lo, hi) bounds of a key range (``None`` = unbounded)."""
        entries = self._entries
        if low is None:
            lo = 0
        elif low_inclusive:
            lo = bisect.bisect_left(entries, (low, _RID_LOW))
        else:
            lo = bisect.bisect_right(entries, (low, _RID_HIGH))
        if high is None:
            hi = len(entries)
        elif high_inclusive:
            hi = bisect.bisect_right(entries, (high, _RID_HIGH))
        else:
            hi = bisect.bisect_left(entries, (high, _RID_LOW))
        return lo, hi

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def lookup_rids(self, key: Any) -> list[int]:
        """Return RIDs whose indexed column equals *key*, charging work."""
        faults = self.table.faults
        if faults is not None:
            # Consulted before any charge or state change, so a transient
            # fault leaves the lookup safely retryable.
            faults.fire("index-lookup")
        self._check_fresh()
        self.meter.charge_index_descend()
        if key is None:
            return []
        lo, hi = self._range_bounds(key, key, True, True)
        self.meter.charge_index_entries(max(hi - lo, 1))
        return self._rids(lo, hi)

    def scan_range(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        start_after: Entry | None = None,
    ) -> Iterator[Entry]:
        """Yield (key, rid) entries with ``low <= key <= high`` in order.

        *start_after*, when given, skips every entry at or before that
        (key, rid) position — this is how a resumed driving-leg scan and the
        positional predicates avoid re-reading processed rows.

        Bounds of ``None`` mean unbounded on that side.
        """
        self._check_fresh()
        self.meter.charge_index_descend()
        lo, hi = self._range_bounds(low, high, low_inclusive, high_inclusive)
        if start_after is not None:
            lo = max(lo, self._bisect_after(start_after))
        for position in range(lo, hi):
            self.meter.charge_index_entries(1)
            yield self._entry(position)

    def count_range(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> int:
        """Entry count in a key range, without charging work (statistics)."""
        lo, hi = self._range_bounds(low, high, low_inclusive, high_inclusive)
        return max(hi - lo, 0)

    def count_range_after(
        self,
        after: Entry | None,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> int:
        """Entries in a key range strictly after position *after* (uncharged).

        This is the index-metadata read the adaptation controller uses to
        estimate the *remaining* work of a partially consumed driving scan —
        the equivalent of a B-tree's key-range cardinality estimate.
        """
        lo, hi = self._range_bounds(low, high, low_inclusive, high_inclusive)
        if after is not None:
            lo = max(lo, self._bisect_after(after))
        return max(hi - lo, 0)

    def distinct_key_count(self) -> int:
        """Number of distinct keys (statistics; uncharged)."""
        count = 0
        previous = object()
        for key, _ in self._entries:
            if key != previous:
                count += 1
                previous = key
        return count

    def nbytes(self) -> int:
        """Approximate resident bytes of the entry list: the list, its
        ``(key, rid)`` tuples, their keys and RIDs. A key is the same
        object as its row's cell, so it is counted twice across the table
        and its index, like every shared object in
        :func:`~repro.storage.columnar.heap_memory_footprint`."""
        getsizeof = sys.getsizeof
        total = getsizeof(self._entries)
        for entry in self._entries:
            total += getsizeof(entry) + getsizeof(entry[0]) + getsizeof(entry[1])
        return total
