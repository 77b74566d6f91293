"""Table schemas: ordered column definitions with fast name lookup."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Sequence

from repro.errors import SchemaError, StorageError
from repro.storage.types import ColumnType


@dataclass(frozen=True)
class Column:
    """A single column definition."""

    name: str
    type: ColumnType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name: {self.name!r}")


@dataclass(frozen=True)
class TableSchema:
    """An ordered set of columns for one table.

    Rows of the table are tuples whose slots correspond positionally to
    ``columns``. Column lookup by name is O(1) via a cached index map.
    """

    name: str
    columns: tuple[Column, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        if not name or not name.isidentifier():
            raise SchemaError(f"invalid table name: {name!r}")
        cols = tuple(columns)
        if not cols:
            raise SchemaError(f"table {name!r} must have at least one column")
        index: dict[str, int] = {}
        for position, column in enumerate(cols):
            if column.name in index:
                raise SchemaError(
                    f"table {name!r}: duplicate column {column.name!r}"
                )
            index[column.name] = position
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.columns)

    def column_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def has_column(self, name: str) -> bool:
        return name in self._index

    def position_of(self, name: str) -> int:
        """Return the tuple slot of column *name*, raising on unknown names."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}"
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.position_of(name)]

    def validate_row(self, values: Iterable[Any]) -> tuple[Any, ...]:
        """Validate and coerce an insertable row, returning the stored tuple."""
        row = tuple(values)
        if len(row) != len(self.columns):
            raise StorageError(
                f"table {self.name!r}: expected {len(self.columns)} values, "
                f"got {len(row)}"
            )
        coerced = []
        for column, value in zip(self.columns, row):
            if value is None and not column.nullable:
                raise StorageError(
                    f"table {self.name!r}: column {column.name!r} is NOT NULL"
                )
            coerced.append(column.type.validate(value, column.name))
        return tuple(coerced)

    def validate_batch(
        self, values: Iterable[Sequence[Any]]
    ) -> list[tuple[Any, ...]]:
        """Validate and coerce a batch of insertable rows, returning the
        stored tuples; the one validation path of every insert.

        Each row's width is checked, then each column is scanned once
        (:meth:`ColumnType.scan`), one column's list alive at a time. When
        every column passes, the rows are stored as given. Otherwise the
        batch is walked row by row with :meth:`validate_row`, which raises
        the error (and message) a row-at-a-time load raises first, or
        returns the rows it coerced (an int widened in a FLOAT column).
        Nothing is stored here, so a batch that fails changes no table.
        """
        rows = list(map(tuple, values))
        if rows and set(map(len, rows)) != {len(self.columns)}:
            return list(map(self.validate_row, rows))
        for slot, column in enumerate(self.columns):
            cells = list(map(itemgetter(slot), rows))
            if not column.type.scan(cells, column.nullable):
                return list(map(self.validate_row, rows))
        return rows
