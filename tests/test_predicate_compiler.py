"""Property tests: whole-column predicate masks vs the interpreter.

``vector_spec`` + ``ColumnarTable.mask_for_spec`` must reproduce the
interpreter's (``bind``) verdict for whole columns on every tree shape
``vector_spec`` claims to support, and ``vector_spec`` must *refuse*
(return None) anything else. Checked on randomized predicate trees over
randomized data: the seeds are fixed, so failures replay
deterministically.
"""

from __future__ import annotations

import random

import pytest

from repro.db import Database
from repro.storage.columnar import _np as HAVE_NUMPY
from repro.query.predicates import (
    Between,
    Comparison,
    Disjunction,
    InList,
    IsNull,
    LocalPredicate,
    Op,
)
from repro.storage.compiled import vector_spec
from repro.storage.schema import Column, TableSchema
from repro.storage.types import ColumnType

SCHEMA = TableSchema(
    "t",
    (
        Column("a", ColumnType.INT),
        Column("b", ColumnType.FLOAT),
        Column("s", ColumnType.STRING),
    ),
)

COMPARE_OPS = (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE)
STRINGS = ("alpha", "beta", "gamma", "delta", "")


def random_value(rng: random.Random, column: str):
    if column == "s":
        return rng.choice(STRINGS)
    if column == "b":
        return round(rng.uniform(-50.0, 50.0), 3)
    return rng.randint(-20, 20)


def random_leaf(rng: random.Random) -> LocalPredicate:
    column = rng.choice(("a", "b", "s"))
    shape = rng.randrange(4)
    if shape == 0:
        return Comparison(column, rng.choice(COMPARE_OPS), random_value(rng, column))
    if shape == 1:
        low, high = sorted(
            (random_value(rng, column), random_value(rng, column))
        )
        return Between(column, low, high)
    if shape == 2:
        count = rng.randint(1, 4)
        values = [random_value(rng, column) for _ in range(count)]
        if rng.random() < 0.3:
            values.append(None)  # NULL can be an IN-list member
        return InList(column, values)
    return IsNull(column, negated=rng.random() < 0.5)


def random_tree(rng: random.Random) -> LocalPredicate:
    if rng.random() < 0.4:
        terms = [random_leaf(rng) for _ in range(rng.randint(2, 4))]
        return Disjunction(terms)
    return random_leaf(rng)


def random_row(rng: random.Random) -> tuple:
    a = None if rng.random() < 0.15 else rng.randint(-20, 20)
    b = None if rng.random() < 0.15 else round(rng.uniform(-50.0, 50.0), 3)
    s = None if rng.random() < 0.15 else rng.choice(STRINGS)
    return (a, b, s)


def test_vector_spec_refuses_unknown_shapes():
    class Custom(Comparison):
        """A subclass may override bind(); a mask must not guess."""

    predicate = Custom("a", Op.EQ, 1)
    assert vector_spec(predicate, SCHEMA) is None
    inside = Disjunction([predicate, Comparison("a", Op.EQ, 2)])
    assert vector_spec(inside, SCHEMA) is None


@pytest.fixture(scope="module")
def columnar_table():
    rng = random.Random(424_242)
    db = Database(backend="columnar")
    db.create_table("t", [("a", "int"), ("b", "float"), ("s", "string")])
    rows = [random_row(rng) for _ in range(300)]
    db.insert("t", rows)
    return db.catalog.table("t"), rows


@pytest.mark.parametrize("seed", range(10))
def test_mask_for_spec_matches_interpreter(columnar_table, seed):
    table, rows = columnar_table
    rng = random.Random(31_337 + seed)
    vectorized = 0
    for _ in range(25):
        predicate = random_tree(rng)
        spec = vector_spec(predicate, SCHEMA)
        assert spec is not None, f"supported shape refused: {predicate}"
        mask = table.mask_for_spec(spec)
        if mask is None:
            continue  # legal fallback (mixed types, no numpy, ...)
        vectorized += 1
        interpreted = predicate.bind(SCHEMA)
        expected = [interpreted(row) for row in rows]
        assert [bool(bit) for bit in mask] == expected, f"{predicate}"
    if HAVE_NUMPY is not None:
        assert vectorized > 0, "no predicate was vectorized at all"
