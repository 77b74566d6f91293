"""Table and column statistics.

Three statistics levels mirror the paper's evaluation (Sec 5):

* **CARDINALITY** — only table cardinalities ("statistics giving table
  sizes and average row sizes", Sec 5; "data value distributions were
  assumed to be uniform during optimization"). Local-predicate
  selectivities fall back to textbook defaults, so the optimizer makes
  exactly the class of mistakes the paper's experiments exploit. This is
  the level the main experiments (Secs 5.1-5.2, 5.4, 5.5) run at.
* **BASIC** — adds per-column min/max and distinct counts. The optimizer
  still assumes uniformity within a column and independence across
  columns.
* **DETAILED** — adds top-N frequent values per column, emulating the
  "tool to collect more sophisticated statistics, such as data
  distributions and frequent values" of Sec 5.3. Skewed equality
  predicates are then estimated accurately, but cross-column correlation
  remains invisible — so adaptive reordering still wins (the paper reports
  up to two-fold speedups in that setting).
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.storage.table import HeapTable

DEFAULT_FREQUENT_VALUES = 20


class StatisticsLevel(enum.Enum):
    CARDINALITY = "cardinality"
    BASIC = "basic"
    DETAILED = "detailed"


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one column."""

    ndv: int  # number of distinct non-null values
    null_count: int
    min_value: Any
    max_value: Any
    frequent_values: Mapping[Any, int] = field(default_factory=dict)

    @property
    def has_frequent_values(self) -> bool:
        return bool(self.frequent_values)


@dataclass(frozen=True)
class TableStats:
    """Statistics for one table."""

    cardinality: int
    columns: Mapping[str, ColumnStats]

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)


def collect_column_stats(
    values: list[Any], with_frequent_values: bool = False, top_n: int = DEFAULT_FREQUENT_VALUES
) -> ColumnStats:
    """Compute :class:`ColumnStats` over raw column values."""
    non_null = (
        [value for value in values if value is not None]
        if None in values
        else values
    )
    null_count = len(values) - len(non_null)
    if not non_null:
        return ColumnStats(ndv=0, null_count=null_count, min_value=None, max_value=None)
    frequent: dict[Any, int] = {}
    if with_frequent_values:
        counts = Counter(non_null)
        ndv = len(counts)
        frequent = dict(counts.most_common(top_n))
    else:
        ndv = len(set(non_null))
    return ColumnStats(
        ndv=ndv,
        null_count=null_count,
        min_value=min(non_null),
        max_value=max(non_null),
        frequent_values=frequent,
    )


def collect_table_stats(
    table: HeapTable,
    level: StatisticsLevel = StatisticsLevel.BASIC,
    top_n: int = DEFAULT_FREQUENT_VALUES,
) -> TableStats:
    """Compute :class:`TableStats` for *table* at the given level.

    This is the reproduction's ANALYZE / RUNSTATS equivalent; it reads the
    heap without charging work units (statistics collection is off the query
    path in the paper's setting).
    """
    if level is StatisticsLevel.CARDINALITY:
        return TableStats(cardinality=len(table), columns={})
    with_frequent = level is StatisticsLevel.DETAILED
    columns = {
        column.name: collect_column_stats(
            table.column_values(column.name), with_frequent, top_n
        )
        for column in table.schema.columns
    }
    return TableStats(cardinality=len(table), columns=columns)
