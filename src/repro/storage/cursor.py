"""Resumable scan cursors and the scan orders they expose.

The driving leg of a pipeline is read through a cursor. The paper's
duplicate-prevention scheme (Sec 4.2) relies on two properties that these
cursors guarantee:

* every cursor reads its table in a *stable total order* — RID order for
  table scans, (key, RID) order for index scans — and exposes its current
  position in that order;
* a cursor can be *frozen* (simply stop pulling from it) and later resumed,
  or a fresh cursor can be started strictly after a frozen position.

:class:`ScanOrder` reifies the total order itself so that positional
predicates can be evaluated against arbitrary rows of the same table fetched
through *other* access paths (e.g. the old driving table probed through a
join-column index once it becomes an inner leg).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.storage.index import SortedIndex
from repro.storage.table import HeapTable, Row

Position = tuple[Any, ...]


@dataclass(frozen=True, slots=True)
class KeyRange:
    """A contiguous key range ``low..high`` on an indexed column.

    ``None`` bounds are unbounded. An equality predicate is the range
    ``[v, v]``. IN-lists become several disjoint single-value ranges.
    """

    low: Any = None
    high: Any = None
    low_inclusive: bool = True
    high_inclusive: bool = True

    @classmethod
    def equal(cls, value: Any) -> "KeyRange":
        return cls(low=value, high=value)

    def is_equality(self) -> bool:
        return (
            self.low is not None
            and self.low == self.high
            and self.low_inclusive
            and self.high_inclusive
        )

    def sort_key(self) -> tuple[int, Any]:
        # Unbounded-low ranges come first; bounded ranges sort by low bound.
        if self.low is None:
            return (0, 0)
        return (1, self.low)


def normalize_ranges(ranges: list[KeyRange]) -> list[KeyRange]:
    """Sort ranges by low bound; callers must supply disjoint ranges.

    The cursor walks ranges in this order, which keeps the global (key, rid)
    position monotonically increasing — the property positional predicates
    depend on.
    """
    return sorted(ranges, key=lambda r: r.sort_key())


class ScanOrder:
    """The total order in which a driving scan visits its table."""

    __slots__ = ("table", "index", "_key_pos")

    def __init__(self, table: HeapTable, index: SortedIndex | None = None) -> None:
        self.table = table
        self.index = index
        self._key_pos = (
            table.schema.position_of(index.column) if index is not None else None
        )

    @property
    def is_index_order(self) -> bool:
        return self.index is not None

    def position_of(self, rid: int, row: Row) -> Position:
        """The position of (rid, row) in this scan order."""
        if self._key_pos is None:
            return (rid,)
        return (row[self._key_pos], rid)

    def describe(self) -> str:
        if self.index is None:
            return f"RID order of {self.table.name}"
        return f"({self.index.column}, RID) order of {self.table.name}"


class TableScanCursor:
    """Full-table scan in RID order; freeze it by not pulling, resume by pulling."""

    __slots__ = (
        "table",
        "order",
        "_next_rid",
        "last_position",
        "exhausted",
    )

    def __init__(self, table: HeapTable) -> None:
        self.table = table
        self.order = ScanOrder(table)
        self._next_rid = 0
        self.last_position: Position | None = None
        self.exhausted = False

    def __iter__(self) -> Iterator[tuple[int, Row]]:
        return self

    def __next__(self) -> tuple[int, Row]:
        faults = self.table.faults
        if faults is not None:
            # Before any cursor state changes: a transient fault here is
            # retryable by simply calling __next__ again.
            faults.fire("cursor-advance")
        if self._next_rid >= len(self.table):
            self.exhausted = True
            raise StopIteration
        rid = self._next_rid
        self._next_rid += 1
        row = self.table.fetch(rid)
        self.last_position = (rid,)
        return rid, row

    def remaining_rids(self) -> range:
        """The RIDs this cursor has yet to visit (uncharged lookahead)."""
        return range(self._next_rid, len(self.table))

    def skip(self, count: int) -> None:
        """Account the next *count* (>= 1) rows as visited by a bulk reader.

        The reader charges the fetches itself; afterwards the cursor is
        exactly where *count* ``__next__`` calls would have left it, so it
        can be frozen, resumed, or advanced row by row again.
        """
        self._next_rid += count
        self.last_position = (self._next_rid - 1,)


class IndexScanCursor:
    """Index-range scan in (key, RID) order over one or more key ranges.

    Ranges are walked in sorted order, so ``last_position`` is monotonically
    non-decreasing across the whole scan even for IN-list predicates.
    """

    __slots__ = (
        "index",
        "order",
        "ranges",
        "last_position",
        "exhausted",
        "_range_no",
        "_pos",
        "_hi",
        "_pending",
        "_whole_spans",
        "_spans_built_upto",
    )

    def __init__(
        self,
        index: SortedIndex,
        ranges: list[KeyRange] | None = None,
    ) -> None:
        self.index = index
        self.order = ScanOrder(index.table, index)
        self.ranges = normalize_ranges(ranges) if ranges else [KeyRange()]
        self.last_position: Position | None = None
        self.exhausted = False
        # The walk's whole state: the range being read (an index into
        # ``ranges``; -1 before the first) and the entry-list positions
        # ``[_pos, _hi)`` left in it. Explicit rather than held in a
        # generator frame so a bulk reader can take a slice of the walk and
        # put the cursor back exactly (``remaining_spans`` / ``skip_to``).
        self._range_no = -1
        self._pos = 0
        self._hi = 0
        self._pending: tuple[Any, int] | None = None
        # Entry-list bounds of each whole key range: index metadata, found
        # when the walk first enters a range (or is asked) and kept while
        # the index build stands.
        self._whole_spans: list[tuple[int, int] | None] = [None] * len(self.ranges)
        self._spans_built_upto = index._built_upto

    def _whole_span(self, range_no: int) -> tuple[int, int]:
        index = self.index
        if self._spans_built_upto != index._built_upto:
            self._whole_spans = [None] * len(self.ranges)
            self._spans_built_upto = index._built_upto
        span = self._whole_spans[range_no]
        if span is None:
            key_range = self.ranges[range_no]
            span = self._whole_spans[range_no] = index._range_bounds(
                key_range.low,
                key_range.high,
                key_range.low_inclusive,
                key_range.high_inclusive,
            )
        return span

    def range_spans(self) -> list[tuple[int, int]]:
        """Entry-list ``[lo, hi)`` bounds of each key range, whole ranges.

        Uncharged index metadata: what the controller's remaining-fraction
        estimate counts at every check, shared with the walk itself.
        """
        return [self._whole_span(no) for no in range(len(self.ranges))]

    def scan_offset(self) -> int:
        """Entry-list offset the walk stands at (uncharged).

        Every range entry before it has been yielded, every one from it on
        is still to come: 0 before the first advance, later the walk's own
        position (less a peeked entry) — possibly past a gap between two
        ranges, where no range entry lies.
        """
        return self._pos - (self._pending is not None)

    def _next_entry(self) -> tuple[Any, int]:
        index = self.index
        while self._pos >= self._hi:
            if self._range_no + 1 >= len(self.ranges):
                raise StopIteration
            self._range_no += 1
            # Entering a range costs one descend, even an empty one.
            index._check_fresh()
            index.meter.charge_index_descend()
            self._pos, self._hi = self._whole_span(self._range_no)
        index.meter.charge_index_entries(1)
        entry = index._entries[self._pos]
        self._pos += 1
        return entry

    def __iter__(self) -> Iterator[tuple[int, Row]]:
        return self

    def __next__(self) -> tuple[int, Row]:
        faults = self.index.table.faults
        if faults is not None:
            # Fired before any cursor state is touched, so the advance can
            # be retried.
            faults.fire("cursor-advance")
        if self._pending is not None:
            key, rid = self._pending
            self._pending = None
        else:
            try:
                key, rid = self._next_entry()
            except StopIteration:
                self.exhausted = True
                raise
        row = self.index.table.fetch(rid)
        self.last_position = (key, rid)
        return rid, row

    def remaining_spans(self) -> list[tuple[int, int, int]]:
        """What is left of the walk, as entry-list spans (uncharged lookahead).

        One ``(range_no, lo, hi)`` per range the cursor will still read from
        or enter, in walk order: the cursor yields the entries at positions
        ``[lo, hi)``. A first span whose ``range_no`` is the range already
        being read owes no descend; every other span costs one when entered,
        empty or not.
        """
        spans: list[tuple[int, int, int]] = []
        for range_no in range(max(self._range_no, 0), len(self.ranges)):
            if range_no == self._range_no:
                if self._pos >= self._hi:
                    continue  # read to its end already
                lo, hi = self._pos, self._hi
            else:
                lo, hi = self._whole_span(range_no)
                hi = max(lo, hi)
            spans.append((range_no, lo, hi))
        return spans

    def skip_to(self, range_no: int, pos: int, hi: int) -> None:
        """Account the entries up to *pos* as visited by a bulk reader.

        *pos* is the entry-list position after the last one read, inside
        range *range_no* whose span ends at *hi* (values taken from
        :meth:`remaining_spans`). The reader charges descends, entry touches
        and fetches itself; afterwards the cursor is exactly where the same
        number of ``__next__`` calls would have left it.
        """
        self._range_no = range_no
        self._pos = pos
        self._hi = hi
        self.last_position = self.index._entries[pos - 1]

    def scans_multiple_keys(self) -> bool:
        """True unless the scan covers a single key value.

        For a single-value scan (one equality range) the key order is
        degenerate — Sec 4.2: "If there is only one value to scan (e.g.,
        for equality predicates), we can ignore this order" — so waiting
        for a key boundary would mean waiting for the end of the scan.
        """
        if len(self.ranges) != 1:
            return True
        return not self.ranges[0].is_equality()

    def at_key_boundary(self) -> bool:
        """True when the next entry (if any) has a different key.

        Used by the "postpone switch until the current key group drains"
        variant of driving-leg switching (Sec 4.2), which then needs only a
        simple ``key > v`` positional predicate.
        """
        if self.last_position is None:
            return True
        if self._pending is None:
            try:
                self._pending = self._next_entry()
            except StopIteration:
                self.exhausted = True
                return True
        return self._pending[0] != self.last_position[0]
