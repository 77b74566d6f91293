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

The engine's scan is a walk over the index's arrays
(:class:`repro.executor.vector._DrivingWalk`) answering ``order``,
``last_position``, ``range_spans()`` and ``scan_offset()`` as a cursor does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

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

    def sort_key(self) -> tuple[int, Any]:
        # Unbounded-low ranges come first; bounded ranges sort by low bound.
        if self.low is None:
            return (0, 0)
        return (1, self.low)


def normalize_ranges(ranges: Sequence[KeyRange]) -> list[KeyRange]:
    """Sort ranges by low bound; callers must supply disjoint ranges.

    The cursor walks ranges in this order, which keeps the global (key, rid)
    position monotonically increasing — the property positional predicates
    depend on.
    """
    if len(ranges) < 2:
        return list(ranges)
    return sorted(ranges, key=lambda r: r.sort_key())


def scan_ranges(ranges: Sequence[KeyRange] | None) -> list[KeyRange]:
    """The key ranges an index scan over *ranges* walks, in walk order:
    the whole index when there are none."""
    return normalize_ranges(ranges) if ranges else [KeyRange()]


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

    def range_spans(self) -> list[tuple[int, int]]:
        """The scan as one RID span ``[0, rows)`` (uncharged metadata)."""
        return [(0, len(self.table))]

    def scan_offset(self) -> int:
        """The next RID to visit: every one before it has been read."""
        return self._next_rid


class IndexScanCursor:
    """Index-range scan in (key, RID) order over one or more key ranges.

    Ranges are walked in sorted order, so ``last_position`` is monotonically
    non-decreasing across the whole scan even for IN-list predicates.
    """

    __slots__ = (
        "index",
        "order",
        "ranges",
        "exhausted",
        "_last_at",
        "_range_no",
        "_pos",
        "_hi",
        "_whole_spans",
        "_spans_built_upto",
    )

    def __init__(
        self,
        index: SortedIndex,
        ranges: Sequence[KeyRange] | None = None,
    ) -> None:
        self.index = index
        self.order = ScanOrder(index.table, index)
        self.ranges = scan_ranges(ranges)
        self.exhausted = False
        self._last_at = -1  # entry-list position of the last entry read
        # The walk's whole state: the range being read (an index into
        # ``ranges``; -1 before the first) and the entry-list positions
        # ``[_pos, _hi)`` left in it.
        self._range_no = -1
        self._pos = 0
        self._hi = 0
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
        """Entry-list ``[lo, hi)`` bounds of each whole key range: uncharged
        index metadata, what the remaining-fraction estimate counts."""
        return [self._whole_span(no) for no in range(len(self.ranges))]

    def scan_offset(self) -> int:
        """Entry-list offset the walk stands at (uncharged): every range
        entry before it has been yielded, every one from it on is still to
        come (it may lie in a gap between two ranges)."""
        return self._pos

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
        entry = index._entry(self._pos)
        self._last_at = self._pos
        self._pos += 1
        return entry

    @property
    def last_position(self) -> Position | None:
        """The (key, rid) position of the last entry read (None before the
        first): read off the index when asked."""
        at = self._last_at
        return None if at < 0 else self.index._entry(at)

    def __iter__(self) -> Iterator[tuple[int, Row]]:
        return self

    def __next__(self) -> tuple[int, Row]:
        faults = self.index.table.faults
        if faults is not None:
            # Fired before any cursor state is touched, so the advance can
            # be retried.
            faults.fire("cursor-advance")
        try:
            _, rid = self._next_entry()
        except StopIteration:
            self.exhausted = True
            raise
        return rid, self.index.table.fetch(rid)
