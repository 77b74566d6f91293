"""The :class:`StorageBackend` interface: named (table, index) pairings.

A backend is a pair of constructors — one for tables, one for indexes —
plus a name the rest of the stack threads through catalog → database →
DMV generator → CLI/server. The ``row`` backend is the reference oracle
(`HeapTable`/`SortedIndex`, plain row tuples, bisect probes); ``columnar``
stores typed columns and probes flat rank arrays, but honours the exact
same RID semantics and work-charge points, so results, AdaptationEvents,
WorkMeter totals, and flight-recorder output are bit-identical across
backends — only wall-clock differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ReproError
from repro.storage import columnar
from repro.storage.counters import WorkMeter
from repro.storage.index import SortedIndex
from repro.storage.schema import TableSchema
from repro.storage.table import HeapTable


@dataclass(frozen=True)
class StorageBackend:
    """Constructors for one storage layout."""

    name: str
    table_factory: Callable[[TableSchema, WorkMeter], HeapTable]
    index_factory: Callable[[str, HeapTable, str], SortedIndex]

    def make_table(self, schema: TableSchema, meter: WorkMeter) -> HeapTable:
        return self.table_factory(schema, meter)

    def make_index(self, name: str, table: HeapTable, column: str) -> SortedIndex:
        return self.index_factory(name, table, column)


ROW_BACKEND = StorageBackend(
    name="row", table_factory=HeapTable, index_factory=SortedIndex
)
COLUMNAR_BACKEND = StorageBackend(
    name="columnar",
    table_factory=columnar.ColumnarTable,
    index_factory=columnar.ColumnarIndex,
)

BACKENDS: dict[str, StorageBackend] = {
    ROW_BACKEND.name: ROW_BACKEND,
    COLUMNAR_BACKEND.name: COLUMNAR_BACKEND,
}

#: Order and names surfaced by the CLI's ``--backend`` choices.
BACKEND_NAMES = tuple(BACKENDS)


def get_backend(name: str | StorageBackend) -> StorageBackend:
    """Resolve a backend by name (idempotent on backend instances)."""
    backend = name if isinstance(name, StorageBackend) else BACKENDS.get(name)
    if backend is None:
        raise ReproError(
            f"unknown storage backend {name!r}; expected one of {sorted(BACKENDS)}"
        )
    if backend is COLUMNAR_BACKEND and not columnar.HAVE_NUMPY:
        raise ReproError("the columnar backend requires numpy; use backend 'row'")
    return backend
