"""Unit tests for probe compilation and RuntimeLeg filtering."""

import pytest

from repro import AdaptiveConfig, ReorderMode
from repro.errors import ExecutionError
from repro.executor.pipeline import PipelineExecutor, memo_step
from repro.query.predicates import PositionalPredicate
from repro.storage.cursor import ScanOrder

from tests.conftest import build_three_table_db

SQL = (
    "SELECT o.name FROM Owner o, Car c, Demo d "
    "WHERE c.ownerid = o.id AND o.id = d.ownerid AND c.make = 'A'"
)


def make_pipeline(db, sql=SQL, mode=ReorderMode.MONITOR_ONLY):
    plan = db.plan(sql)
    return PipelineExecutor(plan, db.catalog, AdaptiveConfig(mode=mode))


class TestProbeCompilation:
    def test_access_predicate_uses_index(self, three_table_db):
        pipeline = make_pipeline(three_table_db)
        iterator = pipeline.rows()
        next(iterator, None)
        for alias in pipeline.order[1:]:
            config = pipeline.legs[alias].probe_config
            assert config is not None
            assert config.access_index is not None
            assert config.access_predicate is not None

    def test_disconnected_probe_rejected(self, three_table_db):
        pipeline = make_pipeline(three_table_db)
        with pytest.raises(
            ExecutionError,
            match=r"probe compilation failed for leg 'd' at position 0 of "
            r"order \('d',\)",
        ) as raised:
            # d shares no equivalence class with... nothing bound at all.
            memo_step(
                pipeline.prepared.bindings,
                ["d"],
                0,
                pipeline.predicate_selectivity,
            )
        assert "disconnected" in str(raised.value.__cause__)

    def test_probe_without_config_rejected(self, three_table_db):
        # Inner legs start with the plan's probe program installed; the
        # driving leg has no probe config.
        pipeline = make_pipeline(three_table_db)
        with pytest.raises(ExecutionError, match="no probe config"):
            pipeline.legs[pipeline.order[0]].probe({})


class TestProbeFiltering:
    def test_probe_applies_locals(self, three_table_db):
        pipeline = make_pipeline(three_table_db)
        rows = list(pipeline.rows())
        del rows
        leg = pipeline.legs["c"]
        # After the run, every monitored output row passed make='A'.
        make_slot = leg.schema.position_of("make")
        del make_slot
        assert leg.local_counts[0][0] >= leg.local_counts[0][1]

    def test_positional_predicate_filters_probe(self, three_table_db):
        pipeline = make_pipeline(
            three_table_db,
            "SELECT o.name FROM Owner o, Car c WHERE c.ownerid = o.id",
        )
        iterator = pipeline.rows()
        next(iterator, None)
        driving = pipeline.order[0]
        inner = pipeline.order[1]
        leg = pipeline.legs[inner]
        driving_row = pipeline.legs[driving].table.peek(0)
        binding = {driving: driving_row}
        unfiltered = leg.probe(binding)
        # Install a positional predicate excluding everything.
        leg.positional = PositionalPredicate(
            order=ScanOrder(leg.table), after=(10**9,)
        )
        assert leg.probe(binding) == []
        leg.positional = None
        assert leg.probe(binding) == unfiltered

    def test_monitor_records_per_probe(self, three_table_db):
        pipeline = make_pipeline(three_table_db)
        list(pipeline.rows())
        leg = pipeline.legs[pipeline.order[1]]
        assert leg.monitor.lifetime_incoming > 0
        assert leg.monitor.probe_cost() > 0

    def test_monitoring_disabled_in_none_mode(self, three_table_db):
        pipeline = make_pipeline(three_table_db, mode=ReorderMode.NONE)
        list(pipeline.rows())
        leg = pipeline.legs[pipeline.order[1]]
        assert leg.monitor.lifetime_incoming == 0
        assert pipeline.catalog.meter.monitor_updates == 0


class TestDrivingRole:
    def test_pushed_predicate_detected(self, three_table_db):
        pipeline = make_pipeline(three_table_db)
        leg = pipeline.legs["c"]
        pushed = leg.pushed_driving_predicate()
        assert pushed is not None
        assert "make" in pushed.columns()

    def test_no_pushed_for_table_scan(self, three_table_db):
        pipeline = make_pipeline(
            three_table_db,
            "SELECT o.name FROM Owner o, Car c "
            "WHERE c.ownerid = o.id AND o.name = 'n1'",
        )
        assert pipeline.legs["o"].pushed_driving_predicate() is None

    def test_driving_monitor_created(self, three_table_db):
        pipeline = make_pipeline(three_table_db)
        iterator = pipeline.rows()
        next(iterator, None)
        driving = pipeline.legs[pipeline.order[0]]
        assert driving.driving_monitor is not None
