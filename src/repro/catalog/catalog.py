"""The catalog: tables, indexes, and statistics under one roof.

All tables registered in one :class:`Catalog` share a single
:class:`~repro.storage.counters.WorkMeter`, so a query's total work is read
from one place regardless of how many tables it touched.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.catalog.statistics import (
    StatisticsLevel,
    TableStats,
    collect_table_stats,
)
from repro.errors import CatalogError
from repro.storage.backend import StorageBackend, get_backend
from repro.storage.counters import WorkMeter
from repro.storage.index import SortedIndex
from repro.storage.schema import Column, TableSchema
from repro.storage.table import HeapTable


class Catalog:
    """Registry of tables, their indexes, and their statistics."""

    def __init__(
        self,
        meter: WorkMeter | None = None,
        backend: str | StorageBackend = "row",
    ) -> None:
        self.meter = meter if meter is not None else WorkMeter()
        self.backend = get_backend(backend)
        self._tables: dict[str, HeapTable] = {}
        self._indexes: dict[str, dict[str, SortedIndex]] = {}
        self._stats: dict[str, TableStats] = {}
        # Bumped by every definition change (new table, new index) and by
        # every ANALYZE; with the tables' data versions they make up
        # :meth:`generation`.
        self._ddl_epoch = 0
        self._stats_epoch = 0
        # Active fault injector (chaos testing), shared with every table.
        self.faults = None

    # -- definition ------------------------------------------------------
    def create_table(self, name: str, columns: Sequence[Column]) -> HeapTable:
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = self.backend.make_table(TableSchema(name, columns), self.meter)
        self._tables[name] = table
        self._indexes[name] = {}
        self._ddl_epoch += 1
        return table

    def create_index(self, table_name: str, column: str) -> SortedIndex:
        """Create (or return the existing) single-column index."""
        table = self.table(table_name)
        per_table = self._indexes[table_name]
        if column in per_table:
            return per_table[column]
        index = self.backend.make_index(
            f"ix_{table_name}_{column}", table, column
        )
        per_table[column] = index
        self._ddl_epoch += 1
        return index

    # -- lookup ----------------------------------------------------------
    def table(self, name: str) -> HeapTable:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def indexes_of(self, table_name: str) -> dict[str, SortedIndex]:
        self.table(table_name)
        return dict(self._indexes[table_name])

    def index_on(self, table_name: str, column: str) -> SortedIndex | None:
        self.table(table_name)
        return self._indexes[table_name].get(column)

    # -- data + statistics -------------------------------------------------
    def insert_many(self, table_name: str, rows: Iterable[Sequence]) -> int:
        """Bulk-insert rows and refresh the table's indexes."""
        table = self.table(table_name)
        count = table.insert_many(rows)
        for index in self._indexes[table_name].values():
            index.refresh()
        return count

    def analyze(
        self,
        table_name: str | None = None,
        level: StatisticsLevel = StatisticsLevel.BASIC,
    ) -> None:
        """Collect statistics for one table (or all tables) at *level*."""
        names = [table_name] if table_name is not None else list(self._tables)
        for name in names:
            self._stats[name] = collect_table_stats(self.table(name), level)
        self._stats_epoch += 1

    def stats(self, table_name: str) -> TableStats | None:
        """Statistics for *table_name*, or ``None`` if never analyzed."""
        self.table(table_name)
        return self._stats.get(table_name)

    def generation(self) -> tuple:
        """A cheap fingerprint of everything a compiled plan depends on.

        ``(definition epoch, statistics epoch, per-table data versions)``:
        it moves on ``create_table`` / ``create_index`` (a plan's access
        paths), on ``insert`` (cardinalities, index contents) and on
        ``analyze`` (the estimates the join order was chosen from). The
        plan cache drops what it holds, and the server re-forks an engine
        process, when it differs from the one they were built under.
        """
        return (
            self._ddl_epoch,
            self._stats_epoch,
            tuple(table.version for table in self._tables.values()),
        )

    # -- fault injection (chaos testing) ----------------------------------
    def install_faults(self, injector) -> None:
        """Arm *injector* on the catalog and every registered table.

        Storage operations (index lookups, cursor advances, hash probes)
        and the adaptation controller consult the injector at their trigger
        points; passing ``None`` disarms. Callers should disarm in a
        ``finally`` so one chaotic execution cannot leak into the next.
        """
        self.faults = injector
        for table in self._tables.values():
            table.faults = injector

    def clear_faults(self) -> None:
        self.install_faults(None)
