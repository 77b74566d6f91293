"""Local predicate trees normalized for whole-column evaluation.

:func:`vector_spec` turns a predicate tree into a backend-agnostic
description (``("cmp", slot, op, value)`` etc.) that the columnar backend
turns into boolean masks over whole columns (``mask_for_spec``) — what the
cascade evaluates instead of a row test. ``None`` means "not vectorizable".
Planning refuses such a predicate on every store (:func:`check_predicate`), as
it refuses an ordering whose constant the column cannot be ordered against,
so every predicate that reaches an executor has a mask.

Only *exact* predicate classes are normalized (``type(p) is Comparison``,
not ``isinstance``): a subclass may override ``bind`` with different
semantics, and a mask must never win an argument with it.
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.query.predicates import (
    Between,
    Comparison,
    Disjunction,
    InList,
    IsNull,
    LocalPredicate,
)
from repro.storage.schema import TableSchema
from repro.storage.types import ColumnType

#: The comparison operators a mask evaluates (by ``Op.name``).
_VECTOR_OPS = frozenset({"EQ", "NE", "LT", "LE", "GT", "GE"})


def vector_spec(
    predicate: LocalPredicate, schema: TableSchema
) -> tuple | None:
    """Normalize *predicate* for columnar (whole-column) evaluation.

    Returns one of::

        ("cmp", slot, op_name, value)
        ("between", slot, low, high)
        ("in", slot, values_tuple)
        ("isnull", slot, negated)
        ("or", (child_spec, ...))

    or ``None`` when any node is an unsupported shape. The spec carries
    tuple-slot positions (not column names) so the columnar backend can
    evaluate it without re-consulting the schema.
    """
    kind = type(predicate)
    try:
        if kind is Comparison:
            if predicate.op.name not in _VECTOR_OPS:
                return None
            return (
                "cmp",
                schema.position_of(predicate.column),
                predicate.op.name,
                predicate.value,
            )
        if kind is Between:
            return (
                "between",
                schema.position_of(predicate.column),
                predicate.low,
                predicate.high,
            )
        if kind is InList:
            return (
                "in",
                schema.position_of(predicate.column),
                tuple(predicate.values),
            )
        if kind is IsNull:
            return (
                "isnull",
                schema.position_of(predicate.column),
                predicate.negated,
            )
        if kind is Disjunction:
            children = []
            for term in predicate.terms:
                child = vector_spec(term, schema)
                if child is None:
                    return None
                children.append(child)
            return ("or", tuple(children))
    except AttributeError:
        return None
    return None


def check_predicate(predicate: LocalPredicate, schema: TableSchema) -> None:
    """Raise :class:`QueryError` for a predicate no store evaluates: a form
    :func:`vector_spec` refuses, or an ordering / ``BETWEEN`` whose constant
    the column cannot be ordered against (numbers against numbers — bool
    included, as the interpreter compares it — strings against strings)."""
    pending = [vector_spec(predicate, schema)]
    while pending:
        spec = pending.pop()
        if spec is None:
            raise QueryError(f"unsupported local predicate: {predicate}")
        if spec[0] == "or":
            pending += spec[1]
        elif spec[0] == "between" or spec[0] == "cmp" and spec[2] not in ("EQ", "NE"):
            column = schema.columns[spec[1]]
            wanted = str if column.type is ColumnType.STRING else (int, float)
            for value in spec[2:] if spec[0] == "between" else spec[3:]:
                if not isinstance(value, wanted):
                    raise QueryError(
                        f"{predicate}: cannot order {column.type.value} column "
                        f"{column.name!r} against {value!r}"
                    )
