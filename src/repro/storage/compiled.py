"""Local predicate trees normalized for whole-column evaluation.

:func:`vector_spec` turns a predicate tree into a backend-agnostic
description (``("cmp", slot, op, value)`` etc.) that the columnar backend
turns into boolean masks over whole columns (``mask_for_spec``) — what the
cascade evaluates instead of a row test. ``None`` means "not vectorizable":
the leg then gates the cascade and the scalar machine runs the
interpreter's ``predicate.bind`` tests.

Only *exact* predicate classes are normalized (``type(p) is Comparison``,
not ``isinstance``): a subclass may override ``bind`` with different
semantics, and a mask must never win an argument with it.
"""

from __future__ import annotations

from repro.query.predicates import (
    Between,
    Comparison,
    Disjunction,
    InList,
    IsNull,
    LocalPredicate,
)
from repro.storage.schema import TableSchema

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
