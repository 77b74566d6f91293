"""Tests for the run-time model (core/ranks.py)."""

import pytest

from repro import AdaptiveConfig, ReorderMode
from repro.core.ranks import (
    _slots_selectivity,
    measured_combined_local_selectivity,
    remaining_scan_fraction,
)
from repro.executor.pipeline import PipelineExecutor
from repro.storage.cursor import IndexScanCursor, KeyRange, TableScanCursor
from repro.storage.index import SortedIndex
from repro.storage.schema import Column, TableSchema
from repro.storage.table import HeapTable
from repro.storage.types import ColumnType

from tests.conftest import build_three_table_db


def make_table(values):
    schema = TableSchema(
        "t", [Column("k", ColumnType.INT), Column("v", ColumnType.STRING)]
    )
    table = HeapTable(schema)
    table.insert_many([(value, f"v{i}") for i, value in enumerate(values)])
    return table


class TestRemainingScanFraction:
    def test_table_scan(self):
        table = make_table([1, 2, 3, 4])
        cursor = TableScanCursor(table)
        assert remaining_scan_fraction(cursor) == 1.0
        next(cursor)
        assert remaining_scan_fraction(cursor) == pytest.approx(0.75)
        list(cursor)
        assert remaining_scan_fraction(cursor) == 0.0

    def test_empty_table_scan(self):
        cursor = TableScanCursor(make_table([]))
        assert remaining_scan_fraction(cursor) == 0.0

    def test_index_scan(self):
        table = make_table([1, 2, 2, 3, 9])
        index = SortedIndex("ix", table, "k")
        cursor = IndexScanCursor(index, [KeyRange(low=1, high=3)])
        assert remaining_scan_fraction(cursor) == 1.0
        next(cursor)
        next(cursor)
        # 2 of 4 qualifying entries consumed.
        assert remaining_scan_fraction(cursor) == pytest.approx(0.5)

    def test_index_scan_multi_range(self):
        table = make_table([1, 5, 5, 9])
        index = SortedIndex("ix", table, "k")
        cursor = IndexScanCursor(
            index, [KeyRange.equal(1), KeyRange.equal(5)]
        )
        next(cursor)  # consumed the single key-1 entry
        assert remaining_scan_fraction(cursor) == pytest.approx(2 / 3)

    def test_index_scan_reads_what_the_index_counts(self):
        """The fraction comes off the walk's own position and range bounds
        found once; it must stay the index-metadata count it replaced
        (``count_range`` / ``count_range_after`` at ``last_position``) at
        every step — gaps between ranges and empty ranges included."""
        table = make_table([5, 1, 2, 2, 9, 5, 5, 7, 2, 12, 12])
        index = SortedIndex("ix", table, "k")
        ranges = [
            KeyRange(low=1, high=2),
            KeyRange.equal(3),  # empty
            KeyRange(low=5, high=7, high_inclusive=False),
            KeyRange(low=12),
        ]

        def counted(cursor):
            total = remaining = 0
            for r in cursor.ranges:
                bounds = (r.low, r.high, r.low_inclusive, r.high_inclusive)
                total += index.count_range(*bounds)
                remaining += index.count_range_after(cursor.last_position, *bounds)
            return remaining / total

        cursor = IndexScanCursor(index, ranges)
        assert remaining_scan_fraction(cursor) == counted(cursor)
        for _ in cursor:
            assert remaining_scan_fraction(cursor) == counted(cursor)
        assert remaining_scan_fraction(cursor) == counted(cursor) == 0.0


class _FakeLeg:
    """Minimal stand-in for a leg's local-count bookkeeping."""

    def __init__(self, counts):
        self.local_counts = counts


class TestMeasuredSelectivities:
    def test_combined_chains_conditionals(self):
        leg = _FakeLeg([[100, 40], [40, 10]])
        assert measured_combined_local_selectivity(leg) == pytest.approx(0.1)

    def test_combined_no_predicates(self):
        assert measured_combined_local_selectivity(_FakeLeg([])) == 1.0

    def test_combined_no_data(self):
        assert measured_combined_local_selectivity(_FakeLeg([[0, 0]])) is None

    def test_residual_excludes_pushed(self):
        # Only the second predicate's slot counts: 10/40.
        assert _slots_selectivity([[100, 40], [40, 10]], (1,)) == pytest.approx(
            0.25
        )

    def test_residual_all_pushed(self):
        assert _slots_selectivity([[100, 40]], ()) == 1.0

    def test_residual_no_data(self):
        assert _slots_selectivity([[0, 0]], (0,)) is None


class TestBuilderIntegration:
    def make_pipeline(self, db, sql, **config_kwargs):
        plan = db.plan(sql)
        config = AdaptiveConfig(mode=ReorderMode.MONITOR_ONLY, **config_kwargs)
        return PipelineExecutor(plan, db.catalog, config)

    def test_provider_built_from_cold_pipeline(self, three_table_db):
        pipeline = self.make_pipeline(
            three_table_db,
            "SELECT o.name FROM Owner o, Car c WHERE c.ownerid = o.id",
        )
        # Start the pipeline so the driving cursor exists.
        iterator = pipeline.rows()
        next(iterator, None)
        provider = pipeline.model()
        for alias in pipeline.order:
            cleg, scan_pc = provider.driving_params(alias)
            assert cleg >= 0 and scan_pc > 0

    def test_join_selectivity_refresh_uses_measurement(self, three_table_db):
        pipeline = self.make_pipeline(
            three_table_db,
            "SELECT o.name FROM Owner o, Car c WHERE c.ownerid = o.id",
            warmup_rows=1,
        )
        rows = list(pipeline.rows())
        assert rows  # monitors now warm
        before = dict(pipeline.class_selectivities)
        pipeline.model()
        after = pipeline.class_selectivities
        # The equivalence class got a measured (positive) selectivity.
        assert all(value > 0 for value in after.values())
        assert before.keys() == after.keys()

    def test_corrections_calibrate_measured_jc(self):
        db = build_three_table_db(owners=500, seed=21)
        pipeline = self.make_pipeline(
            db,
            "SELECT o.name FROM Owner o, Car c "
            "WHERE c.ownerid = o.id AND c.make = 'Rare'",
            warmup_rows=1,
        )
        list(pipeline.rows())
        provider = pipeline.model()
        inner_alias = pipeline.order[1]
        leg = pipeline.legs[inner_alias]
        jc_model, _ = provider.inner_params(
            inner_alias, frozenset({pipeline.order[0]})
        )
        jc_measured = leg.monitor.join_cardinality()
        # The calibrated model reproduces the measured JC at the current
        # position (that is the definition of the correction factor).
        assert jc_model == pytest.approx(jc_measured, rel=0.01)
