"""Static selectivity estimation.

This estimator deliberately reproduces the assumptions the paper blames for
static plans going wrong (Sec 1):

* **uniformity** — without frequent-value statistics, an equality predicate
  on a column with *n* distinct values is estimated at ``1/n`` regardless of
  skew;
* **independence** — conjunctions multiply selectivities, so correlated
  predicates (Example 2's ``make='Mazda' AND model='323'``) are badly
  under-estimated;
* textbook defaults when no statistics exist at all.

With frequent-value statistics collected (Sec 5.3's "sophisticated
statistics"), equality estimates on skewed columns become accurate, but the
independence assumption — and therefore the adaptive technique's advantage —
remains.
"""

from __future__ import annotations

from typing import Any

from repro.catalog.statistics import ColumnStats, TableStats
from repro.query.joingraph import JoinPredicate
from repro.query.predicates import (
    Between,
    Comparison,
    Disjunction,
    InList,
    IsNull,
    LocalPredicate,
    Op,
)

# Textbook defaults used when statistics are missing (System R heritage).
DEFAULT_NULL_SELECTIVITY = 0.05
DEFAULT_EQ_SELECTIVITY = 0.04
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_BETWEEN_SELECTIVITY = 0.25
DEFAULT_NE_SELECTIVITY = 0.96
DEFAULT_JOIN_SELECTIVITY = 0.01


def _fraction_of_range(stats: ColumnStats, value: Any, op: Op) -> float | None:
    """Uniform interpolation of a range predicate over [min, max]."""
    lo, hi = stats.min_value, stats.max_value
    if not isinstance(lo, (int, float)) or not isinstance(hi, (int, float)):
        return None
    if not isinstance(value, (int, float)):
        return None
    if hi <= lo:
        return 1.0
    span = hi - lo
    if op in (Op.LT, Op.LE):
        fraction = (value - lo) / span
    else:  # GT, GE
        fraction = (hi - value) / span
    return min(max(fraction, 0.0), 1.0)


class Estimator:
    """Selectivity estimation against one table's statistics."""

    def __init__(self, stats: TableStats | None) -> None:
        self.stats = stats

    def _column(self, name: str) -> ColumnStats | None:
        if self.stats is None:
            return None
        return self.stats.column(name)

    def _equality(self, column: str, value: Any) -> float:
        stats = self._column(column)
        if stats is None or stats.ndv <= 0:
            return DEFAULT_EQ_SELECTIVITY
        if stats.has_frequent_values and self.stats is not None:
            cardinality = max(self.stats.cardinality, 1)
            if value in stats.frequent_values:
                return stats.frequent_values[value] / cardinality
            # Value is outside the top-N: spread the remaining mass uniformly
            # over the remaining distinct values.
            frequent_mass = sum(stats.frequent_values.values())
            remaining_rows = max(cardinality - frequent_mass - stats.null_count, 0)
            remaining_ndv = max(stats.ndv - len(stats.frequent_values), 1)
            return max(remaining_rows / remaining_ndv, 0.5) / cardinality
        return 1.0 / stats.ndv

    def predicate_selectivity(self, predicate: LocalPredicate) -> float:
        """Estimated selectivity of one local predicate."""
        if isinstance(predicate, Comparison):
            stats = self._column(predicate.column)
            if predicate.op is Op.EQ:
                return self._equality(predicate.column, predicate.value)
            if predicate.op is Op.NE:
                return 1.0 - self._equality(predicate.column, predicate.value)
            if stats is None:
                return DEFAULT_RANGE_SELECTIVITY
            fraction = _fraction_of_range(stats, predicate.value, predicate.op)
            if fraction is None:
                return DEFAULT_RANGE_SELECTIVITY
            return fraction
        if isinstance(predicate, Between):
            stats = self._column(predicate.column)
            if stats is None:
                return DEFAULT_BETWEEN_SELECTIVITY
            low = Comparison(predicate.column, Op.GE, predicate.low)
            high = Comparison(predicate.column, Op.LE, predicate.high)
            lo_sel = self.predicate_selectivity(low)
            hi_sel = self.predicate_selectivity(high)
            combined = max(lo_sel + hi_sel - 1.0, 0.0)
            # Interpolation over [min, max] can still collapse to ~0 for
            # narrow bands; keep a sane floor so plans stay comparable.
            return min(max(combined, 1e-4), 1.0)
        if isinstance(predicate, InList):
            total = sum(
                self._equality(predicate.column, value)
                for value in set(predicate.values)
            )
            return min(total, 1.0)
        if isinstance(predicate, IsNull):
            stats = self._column(predicate.column)
            if stats is None or self.stats is None or self.stats.cardinality == 0:
                fraction = DEFAULT_NULL_SELECTIVITY
            else:
                fraction = stats.null_count / self.stats.cardinality
            return 1.0 - fraction if predicate.negated else fraction
        if isinstance(predicate, Disjunction):
            miss = 1.0
            for term in predicate.terms:
                miss *= 1.0 - self.predicate_selectivity(term)
            return 1.0 - miss
        raise TypeError(f"unknown predicate type: {type(predicate).__name__}")

    def conjunction_selectivity(
        self, predicates: tuple[LocalPredicate, ...] | list[LocalPredicate]
    ) -> float:
        """Independence assumption: multiply the individual selectivities."""
        selectivity = 1.0
        for predicate in predicates:
            selectivity *= self.predicate_selectivity(predicate)
        return selectivity


def join_selectivity(
    predicate: JoinPredicate,
    left_stats: TableStats | None,
    right_stats: TableStats | None,
) -> float:
    """Standard equi-join estimate: ``1 / max(ndv(left), ndv(right))``."""
    ndvs = []
    if left_stats is not None:
        column = left_stats.column(predicate.left_column)
        if column is not None and column.ndv > 0:
            ndvs.append(column.ndv)
    if right_stats is not None:
        column = right_stats.column(predicate.right_column)
        if column is not None and column.ndv > 0:
            ndvs.append(column.ndv)
    if not ndvs:
        return DEFAULT_JOIN_SELECTIVITY
    return 1.0 / max(ndvs)
