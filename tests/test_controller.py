"""Behavioral tests for the adaptation controller."""

import pytest

from repro import AdaptiveConfig, ReorderMode
from repro.core.controller import AdaptationController
from repro.errors import ExecutionError

from tests.conftest import build_three_table_db


def execute(db, sql, **config_kwargs):
    config = AdaptiveConfig(**config_kwargs)
    return db.execute(sql, config)


SKEW_SQL = (
    "SELECT o.name FROM Owner o, Car c, Demo d "
    "WHERE c.ownerid = o.id AND o.id = d.ownerid "
    "AND c.make = 'Rare' AND o.country = 'DE' AND d.salary < 70000"
)


class TestModeGating:
    def test_none_mode_never_switches(self, three_table_db):
        result = execute(three_table_db, SKEW_SQL, mode=ReorderMode.NONE)
        assert result.stats.total_switches == 0
        assert result.stats.inner_checks == 0
        assert result.stats.driving_checks == 0

    def test_monitor_only_checks_nothing(self, three_table_db):
        result = execute(three_table_db, SKEW_SQL, mode=ReorderMode.MONITOR_ONLY)
        assert result.stats.total_switches == 0
        # Monitoring happened (work was charged) but no checks ran.
        assert result.stats.work.monitor_updates > 0
        assert result.stats.driving_checks == 0

    def test_inner_only_never_switches_driving(self, three_table_db):
        result = execute(
            three_table_db,
            SKEW_SQL,
            mode=ReorderMode.INNER_ONLY,
            check_frequency=1,
            warmup_rows=1,
        )
        assert result.stats.driving_switches == 0
        assert result.final_order[0] == result.stats.order_history[0][0]

    def test_driving_only_full_reorder_on_switch(self):
        # DRIVING_ONLY may rearrange inners, but only as part of a driving
        # switch (Fig 3 step 5) — no standalone inner reorders.
        db = build_three_table_db(owners=400, seed=2)
        result = execute(
            db, SKEW_SQL, mode=ReorderMode.DRIVING_ONLY, warmup_rows=5
        )
        assert result.stats.inner_reorders == 0


class TestCheckFrequency:
    def test_no_checks_before_c_rows(self):
        db = build_three_table_db(owners=300, seed=2)
        result = execute(
            db, SKEW_SQL, mode=ReorderMode.BOTH, check_frequency=10**6
        )
        assert result.stats.driving_checks == 0
        assert result.stats.inner_checks == 0

    def test_smaller_c_checks_more(self):
        db = build_three_table_db(owners=300, seed=2)
        frequent = execute(
            db, SKEW_SQL, mode=ReorderMode.MONITOR_ONLY
        )
        del frequent
        few = execute(db, SKEW_SQL, mode=ReorderMode.BOTH, check_frequency=50)
        many = execute(db, SKEW_SQL, mode=ReorderMode.BOTH, check_frequency=2)
        assert many.stats.driving_checks >= few.stats.driving_checks

    def test_check_charges_work(self):
        db = build_three_table_db(owners=300, seed=2)
        result = execute(db, SKEW_SQL, mode=ReorderMode.BOTH, check_frequency=2)
        if result.stats.driving_checks or result.stats.inner_checks:
            assert result.stats.work.reorder_checks > 0


class TestAttachment:
    def test_unattached_controller_raises(self):
        controller = AdaptationController(AdaptiveConfig())
        with pytest.raises(ExecutionError, match="not attached"):
            controller.on_pipeline_depleted()


class TestSkewScenario:
    """The headline behaviour: a skew-fooled plan is corrected at run time."""

    @pytest.fixture(scope="class")
    def skew_db(self):
        return build_three_table_db(owners=2000, seed=42)

    def test_driving_switch_fires_and_wins(self, skew_db):
        static = execute(skew_db, SKEW_SQL, mode=ReorderMode.NONE)
        adaptive = execute(skew_db, SKEW_SQL, mode=ReorderMode.BOTH)
        assert sorted(static.rows) == sorted(adaptive.rows)
        assert adaptive.stats.driving_switches >= 1
        assert adaptive.stats.total_work < static.stats.total_work
        # The switch must have moved the rare-make Car leg to the front.
        assert adaptive.final_order[0] == "c"

    def test_anti_thrash_limits_switches(self, skew_db):
        adaptive = execute(
            skew_db,
            SKEW_SQL,
            mode=ReorderMode.BOTH,
            history_window=20,
            check_frequency=2,
            warmup_rows=2,
        )
        # Even with a tiny window, the escalating re-switch penalty must
        # keep the driving leg from ping-ponging indefinitely.
        assert adaptive.stats.driving_switches <= 6


class TestKeyBoundaryVariant:
    def test_results_match_and_switches_possible(self):
        db = build_three_table_db(owners=1500, seed=9)
        sql = (
            "SELECT o.name FROM Owner o, Car c, Demo d "
            "WHERE c.ownerid = o.id AND o.id = d.ownerid "
            "AND c.make = 'Rare' AND d.salary BETWEEN 20000 AND 90000"
        )
        static = execute(db, sql, mode=ReorderMode.NONE)
        boundary = execute(
            db, sql, mode=ReorderMode.BOTH, switch_at_key_boundary=True
        )
        assert sorted(static.rows) == sorted(boundary.rows)

