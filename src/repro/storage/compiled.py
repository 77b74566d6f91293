"""An expression→closure mini-compiler for local predicate trees.

``LocalPredicate.bind`` already produces per-predicate closures, but each
one pays a Python frame per predicate *node*: a disjunction of three
comparisons costs four calls per row. This module compiles a whole
predicate tree into **one** specialized closure by generating source text
for the exact test expression and ``eval``-ing it once per plan — the
classic expression-compilation technique, scoped to the handful of shapes
``repro.query.predicates`` can produce.

Two compilation targets share the same tree walk:

* :func:`compile_row_test` — a ``row -> bool`` closure semantically
  identical to ``predicate.bind(schema)`` (same NULL handling, same
  short-circuit order, same ``TypeError`` on incomparable constants).
  Returns ``None`` for unsupported shapes; callers fall back to the
  interpreter (``bind``), so an unknown predicate subclass is never
  mis-compiled.
* :func:`vector_spec` — a normalized, backend-agnostic description of the
  tree (``("cmp", slot, op, value)`` etc.) that the columnar backend turns
  into whole-column boolean masks. Again ``None`` means "not vectorizable,
  use the row interpreter".

Only *exact* predicate classes are compiled (``type(p) is Comparison``,
not ``isinstance``): a subclass may override ``bind`` with different
semantics, and the compiler must never win an argument with it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable

from repro.query.predicates import (
    Between,
    Comparison,
    Disjunction,
    InList,
    IsNull,
    LocalPredicate,
)
from repro.storage.schema import TableSchema
from repro.storage.table import Row

RowTest = Callable[[Row], bool]

#: Op.name -> Python comparison operator source text.
_OP_SYMBOLS = {
    "EQ": "==",
    "NE": "!=",
    "LT": "<",
    "LE": "<=",
    "GT": ">",
    "GE": ">=",
}


class _Unsupported(Exception):
    """Internal: the tree contains a shape the compiler does not handle."""


def _emit(predicate: LocalPredicate, schema: TableSchema, consts: list) -> str:
    """Return a Python boolean expression over ``row`` for *predicate*.

    Constants are appended to *consts* and referenced as ``_k<i>`` so the
    generated source never needs ``repr`` round-trips (values keep object
    identity — important for float bit-exactness and large ints).
    """
    kind = type(predicate)
    if kind is Comparison:
        symbol = _OP_SYMBOLS.get(predicate.op.name)
        if symbol is None:
            raise _Unsupported(predicate.op)
        pos = schema.position_of(predicate.column)
        name = f"_k{len(consts)}"
        consts.append(predicate.value)
        cell = f"_c{len(consts)}"
        return (
            f"(({cell} := row[{pos}]) is not None and {cell} {symbol} {name})"
        )
    if kind is Between:
        pos = schema.position_of(predicate.column)
        low = f"_k{len(consts)}"
        consts.append(predicate.low)
        high = f"_k{len(consts)}"
        consts.append(predicate.high)
        cell = f"_c{len(consts)}"
        return (
            f"(({cell} := row[{pos}]) is not None"
            f" and {low} <= {cell} <= {high})"
        )
    if kind is InList:
        pos = schema.position_of(predicate.column)
        name = f"_k{len(consts)}"
        # bind() membership-tests against a set; keep the identical
        # container semantics (NULL cells are *not* guarded — None can be
        # a member).
        consts.append(set(predicate.values))
        return f"(row[{pos}] in {name})"
    if kind is IsNull:
        pos = schema.position_of(predicate.column)
        if predicate.negated:
            return f"(row[{pos}] is not None)"
        return f"(row[{pos}] is None)"
    if kind is Disjunction:
        terms = [_emit(term, schema, consts) for term in predicate.terms]
        return "(" + " or ".join(terms) + ")"
    raise _Unsupported(type(predicate).__name__)


@lru_cache(maxsize=256)
def _code_for(source: str):
    """The code object of one generated lambda, compiled once per text.

    The text names constants only as ``_k<i>`` — their values live in each
    closure's own namespace — so a workload has a few dozen distinct texts
    however many predicates it compiles, and sharing the code object
    shares nothing between closures.
    """
    return compile(source, "<compiled-predicate>", "eval")


def compile_row_test(
    predicate: LocalPredicate, schema: TableSchema
) -> RowTest | None:
    """Compile *predicate* into one specialized ``row -> bool`` closure.

    Returns ``None`` when the tree contains an unsupported shape; the
    caller must then fall back to ``predicate.bind(schema)``. The compiled
    closure is observably identical to the interpreter: NULL never
    satisfies a comparison or BETWEEN, IN-lists test raw set membership,
    disjunctions short-circuit left to right, and incomparable constant
    types raise the same ``TypeError`` at the same evaluation point.
    """
    consts: list = []
    try:
        expression = _emit(predicate, schema, consts)
    except _Unsupported:
        return None
    namespace: dict[str, Any] = {
        f"_k{i}": value for i, value in enumerate(consts)
    }
    namespace["__builtins__"] = {}
    source = f"lambda row: {expression}"
    test = eval(_code_for(source), namespace)
    test.source = source  # debugging / property-test introspection
    return test


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
            if predicate.op.name not in _OP_SYMBOLS:
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
