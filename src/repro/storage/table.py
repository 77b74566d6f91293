"""Heap tables: append-only, RID-addressed row storage.

A :class:`HeapTable` stores rows as tuples in insertion order. The row id
(RID) of a row is its position in the heap and never changes; this mirrors
the RID order a real system exposes for table scans and that the paper's
driving-leg positional predicates rely on (Sec 4.2).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import StorageError
from repro.storage.counters import WorkMeter
from repro.storage.schema import TableSchema

Row = tuple[Any, ...]


class HeapTable:
    """An in-memory heap of rows for one table."""

    __slots__ = ("schema", "_rows", "meter", "faults", "version")

    #: Storage-backend tag; subclasses (columnar) override.
    backend_name = "row"

    def __init__(self, schema: TableSchema, meter: WorkMeter | None = None) -> None:
        self.schema = schema
        self._rows: list[Row] = []
        self.meter = meter if meter is not None else WorkMeter()
        # Fault-injection hook (repro.robustness.faults.FaultInjector) shared
        # by every table of a catalog during a chaos run; None in production.
        # Indexes and cursors consult it through their table reference.
        self.faults = None
        # Monotonic mutation counter; memoizing layers (per-key probe
        # groups, index kernels) compare it to detect staleness.
        self.version = 0

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def cardinality(self) -> int:
        return len(self._rows)

    def insert(self, values: Sequence[Any]) -> int:
        """Append a row, returning its RID: a one-row batch."""
        self.insert_many((values,))
        return len(self) - 1

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append a batch of rows; returns the number inserted.

        The whole batch is validated before any row is stored
        (:meth:`TableSchema.validate_batch`), so a batch that fails leaves
        the table, its version and its indexes as they were.
        """
        batch = self.schema.validate_batch(rows)
        self._rows.extend(batch)
        self.version += len(batch)
        return len(batch)

    def fetch(self, rid: int) -> Row:
        """Fetch a row by RID, charging one row fetch."""
        if rid < 0 or rid >= len(self._rows):
            raise StorageError(
                f"table {self.name!r}: RID {rid} out of range [0, {len(self._rows)})"
            )
        self.meter.charge_row_fetch()
        return self._rows[rid]

    def peek(self, rid: int) -> Row:
        """Fetch a row by RID without charging work (for stats/tests)."""
        if rid < 0 or rid >= len(self._rows):
            raise StorageError(
                f"table {self.name!r}: RID {rid} out of range [0, {len(self._rows)})"
            )
        return self._rows[rid]

    def scan(self) -> Iterator[tuple[int, Row]]:
        """Yield (rid, row) pairs in RID order, charging per-row fetches."""
        for rid, row in enumerate(self._rows):
            self.meter.charge_row_fetch()
            yield rid, row

    def raw_rows(self) -> Sequence[Row]:
        """Uncharged access to all rows (statistics collection, tests)."""
        return self._rows

    def column_values(self, column: str) -> list[Any]:
        """Uncharged projection of one column (statistics collection)."""
        return list(map(itemgetter(self.schema.position_of(column)), self._rows))
