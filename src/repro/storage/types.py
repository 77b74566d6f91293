"""Column types supported by the storage engine.

The engine stores rows as plain Python tuples; a :class:`ColumnType` names
the logical type of each slot and provides validation/coercion used on
insert. Only the types needed by the DMV workload (and by SQL literals) are
supported: integers, floats, and strings. ``NULL`` is represented by
``None`` and is permitted in any column unless the column is declared
``nullable=False``.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import StorageError


class ColumnType(enum.Enum):
    """Logical column types."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"

    def validate(self, value: Any, column_name: str = "?") -> Any:
        """Coerce *value* to this type, raising :class:`StorageError` on mismatch.

        Integers are accepted for FLOAT columns (widening); bools are
        rejected everywhere because they silently masquerade as ints. An INT
        is a signed 64-bit integer on every store, as in SQL's BIGINT.
        """
        if value is None:
            return None
        if isinstance(value, bool):
            raise StorageError(
                f"column {column_name!r}: bool is not a supported value type"
            )
        if self is ColumnType.INT:
            if isinstance(value, int):
                if not -(2**63) <= value < 2**63:
                    raise StorageError(
                        f"column {column_name!r}: {value} is outside the "
                        "64-bit integer range"
                    )
                return value
            raise StorageError(
                f"column {column_name!r}: expected int, got {type(value).__name__}"
            )
        if self is ColumnType.FLOAT:
            if isinstance(value, (int, float)):
                return float(value)
            raise StorageError(
                f"column {column_name!r}: expected float, got {type(value).__name__}"
            )
        # STRING
        if isinstance(value, str):
            return value
        raise StorageError(
            f"column {column_name!r}: expected str, got {type(value).__name__}"
        )


def infer_type(value: Any) -> ColumnType:
    """Infer the :class:`ColumnType` of a Python literal (for SQL constants)."""
    if isinstance(value, bool):
        raise StorageError("bool is not a supported value type")
    if isinstance(value, int):
        return ColumnType.INT
    if isinstance(value, float):
        return ColumnType.FLOAT
    if isinstance(value, str):
        return ColumnType.STRING
    raise StorageError(f"unsupported value type: {type(value).__name__}")
