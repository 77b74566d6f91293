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

#: An INT is a signed 64-bit integer: ``INT_LOW <= value < INT_END``.
INT_LOW, INT_END = -(2**63), 2**63
_NONE = type(None)


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
                if not INT_LOW <= value < INT_END:
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

    def scan(self, values: list, nullable: bool = True) -> bool:
        """Whether every value of a batch's column is stored as given.

        One pass over *values* at C speed: the set of their exact types, an
        INT column's range by its ``min`` / ``max``, and ``None`` where
        *nullable* is False. True means :meth:`validate` accepts each value
        and returns it unchanged. False means some value may be refused, or
        widened (an int in a FLOAT column), or is of a subclass the type
        set does not vouch for (``bool`` among them): the caller then walks
        the batch row by row with :meth:`validate`, which decides.
        """
        kinds = set(map(type, values))
        nulls = _NONE in kinds
        if nulls:
            if not nullable:
                return False
            kinds.discard(_NONE)
        if not kinds <= _STORED_AS_GIVEN[self]:
            return False
        if self is ColumnType.INT and kinds:
            if nulls:
                values = [value for value in values if value is not None]
            return INT_LOW <= min(values) and max(values) < INT_END
        return True


#: The exact Python types :meth:`ColumnType.validate` stores unchanged.
_STORED_AS_GIVEN = {
    ColumnType.INT: frozenset({int}),
    ColumnType.FLOAT: frozenset({float}),
    ColumnType.STRING: frozenset({str}),
}


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
