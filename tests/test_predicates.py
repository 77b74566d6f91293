"""Unit and property tests for repro.query.predicates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.query.predicates import (
    Between,
    Comparison,
    Disjunction,
    InList,
    Op,
    PositionalPredicate,
)
from repro.storage.cursor import ScanOrder
from repro.storage.index import SortedIndex
from repro.storage.schema import Column, TableSchema
from repro.storage.table import HeapTable
from repro.storage.types import ColumnType

SCHEMA = TableSchema(
    "t",
    [
        Column("a", ColumnType.INT),
        Column("b", ColumnType.STRING),
    ],
)


class TestComparison:
    @pytest.mark.parametrize(
        "op,value,row_value,expected",
        [
            (Op.EQ, 5, 5, True),
            (Op.EQ, 5, 6, False),
            (Op.NE, 5, 6, True),
            (Op.NE, 5, 5, False),
            (Op.LT, 5, 4, True),
            (Op.LT, 5, 5, False),
            (Op.LE, 5, 5, True),
            (Op.GT, 5, 6, True),
            (Op.GE, 5, 5, True),
            (Op.GE, 5, 4, False),
        ],
    )
    def test_operators(self, op, value, row_value, expected):
        test = Comparison("a", op, value).bind(SCHEMA)
        assert test((row_value, "x")) is expected

    @pytest.mark.parametrize("op", list(Op))
    def test_null_never_matches(self, op):
        test = Comparison("a", op, 5).bind(SCHEMA)
        assert test((None, "x")) is False

    def test_key_ranges_eq(self):
        (r,) = Comparison("a", Op.EQ, 5).key_ranges("a")
        assert r.low == r.high == 5
        assert r.low_inclusive and r.high_inclusive

    def test_key_ranges_lt(self):
        (r,) = Comparison("a", Op.LT, 5).key_ranges("a")
        assert r.low is None and r.high == 5 and not r.high_inclusive

    def test_key_ranges_ge(self):
        (r,) = Comparison("a", Op.GE, 5).key_ranges("a")
        assert r.low == 5 and r.low_inclusive and r.high is None

    def test_key_ranges_ne_not_sargable(self):
        assert Comparison("a", Op.NE, 5).key_ranges("a") is None

    def test_key_ranges_other_column(self):
        assert Comparison("a", Op.EQ, 5).key_ranges("b") is None

    def test_columns(self):
        assert Comparison("a", Op.EQ, 5).columns() == ("a",)


class TestBetween:
    def test_inclusive(self):
        test = Between("a", 2, 4).bind(SCHEMA)
        assert test((2, "x")) and test((4, "x")) and not test((5, "x"))

    def test_null(self):
        assert Between("a", 2, 4).bind(SCHEMA)((None, "x")) is False

    def test_key_ranges(self):
        (r,) = Between("a", 2, 4).key_ranges("a")
        assert (r.low, r.high) == (2, 4)


class TestInList:
    def test_membership(self):
        test = InList("b", ["x", "y"]).bind(SCHEMA)
        assert test((1, "x")) and not test((1, "z"))

    def test_null_not_in_list(self):
        assert InList("b", ["x"]).bind(SCHEMA)((1, None)) is False

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            InList("b", [])

    def test_key_ranges_sorted_unique(self):
        ranges = InList("a", [3, 1, 3]).key_ranges("a")
        assert [r.low for r in ranges] == [1, 3]


class TestDisjunction:
    def test_or_semantics(self):
        pred = Disjunction(
            [Comparison("b", Op.EQ, "x"), Comparison("b", Op.EQ, "y")]
        )
        test = pred.bind(SCHEMA)
        assert test((1, "x")) and test((1, "y")) and not test((1, "z"))

    def test_flattens_nested(self):
        inner = Disjunction([Comparison("a", Op.EQ, 1), Comparison("a", Op.EQ, 2)])
        outer = Disjunction([inner, Comparison("a", Op.EQ, 3)])
        assert len(outer.terms) == 3

    def test_needs_two_terms(self):
        with pytest.raises(QueryError):
            Disjunction([Comparison("a", Op.EQ, 1)])

    def test_key_ranges_union(self):
        pred = Disjunction(
            [Comparison("a", Op.EQ, 1), Comparison("a", Op.EQ, 5)]
        )
        assert [r.low for r in pred.key_ranges("a")] == [1, 5]

    def test_key_ranges_none_if_any_term_unsargable(self):
        pred = Disjunction(
            [Comparison("a", Op.EQ, 1), Comparison("a", Op.NE, 5)]
        )
        assert pred.key_ranges("a") is None

    def test_columns_deduplicated(self):
        pred = Disjunction(
            [Comparison("a", Op.EQ, 1), Comparison("a", Op.EQ, 2)]
        )
        assert pred.columns() == ("a",)


class TestPositionalPredicate:
    def test_rid_order(self):
        table = HeapTable(SCHEMA)
        table.insert_many([(i, "x") for i in range(5)])
        pred = PositionalPredicate(order=ScanOrder(table), after=(2,))
        assert not pred.test(2, (2, "x"))
        assert pred.test(3, (3, "x"))

    def test_index_order_composite(self):
        table = HeapTable(SCHEMA)
        table.insert_many([(5, "x"), (5, "y"), (7, "z")])
        index = SortedIndex("ix", table, "a")
        pred = PositionalPredicate(order=ScanOrder(table, index), after=(5, 0))
        assert not pred.test(0, (5, "x"))     # at frozen position
        assert pred.test(1, (5, "y"))         # same key, later rid
        assert pred.test(2, (7, "z"))         # later key


@settings(max_examples=80, deadline=None)
@given(value=st.integers(min_value=-5, max_value=15))
def test_sargable_ranges_agree_with_evaluation(value):
    """Property: a value satisfies the predicate iff it falls in a range."""
    predicates = [
        Comparison("a", Op.EQ, 5),
        Comparison("a", Op.LT, 5),
        Comparison("a", Op.LE, 5),
        Comparison("a", Op.GT, 5),
        Comparison("a", Op.GE, 5),
        Between("a", 2, 8),
        InList("a", [1, 5, 9]),
        Disjunction([Comparison("a", Op.EQ, 0), Comparison("a", Op.GE, 10)]),
    ]
    for predicate in predicates:
        evaluated = predicate.bind(SCHEMA)((value, "x"))
        in_ranges = False
        for key_range in predicate.key_ranges("a"):
            low_ok = (
                key_range.low is None
                or value > key_range.low
                or (key_range.low_inclusive and value == key_range.low)
            )
            high_ok = (
                key_range.high is None
                or value < key_range.high
                or (key_range.high_inclusive and value == key_range.high)
            )
            if low_ok and high_ok:
                in_ranges = True
        assert evaluated == in_ranges, f"{predicate} at {value}"
