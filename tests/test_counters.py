"""Unit tests for repro.storage.counters."""

from repro.storage import counters
from repro.storage.counters import WorkMeter


class TestCharges:
    def test_execution_units_weighting(self):
        meter = WorkMeter()
        meter.charge_index_descend()
        meter.charge_index_entries(2)
        meter.charge_row_fetch()
        meter.charge_predicate_eval(4)
        expected = (
            counters.INDEX_DESCEND_COST
            + 2 * counters.INDEX_ENTRY_COST
            + counters.ROW_FETCH_COST
            + 4 * counters.PREDICATE_EVAL_COST
        )
        assert meter.execution_units == expected
        assert meter.adaptation_units == 0.0

    def test_adaptation_units_separate(self):
        meter = WorkMeter()
        meter.charge_monitor_update(3)
        meter.charge_reorder_check()
        assert meter.execution_units == 0.0
        assert meter.adaptation_units == (
            3 * counters.MONITOR_UPDATE_COST + counters.REORDER_CHECK_COST
        )

    def test_total_is_sum(self):
        meter = WorkMeter()
        meter.charge_row_fetch()
        meter.charge_reorder_check()
        assert meter.total_units == meter.execution_units + meter.adaptation_units

    def test_rows_emitted(self):
        meter = WorkMeter()
        meter.charge_row_emitted(5)
        assert meter.rows_emitted == 5


class TestSnapshotAndDiff:
    def test_snapshot_is_independent(self):
        meter = WorkMeter()
        meter.charge_row_fetch()
        snap = meter.snapshot()
        meter.charge_row_fetch()
        assert snap.row_fetches == 1
        assert meter.row_fetches == 2

    def test_subtraction(self):
        meter = WorkMeter()
        meter.charge_row_fetch(3)
        before = meter.snapshot()
        meter.charge_row_fetch(2)
        meter.charge_index_descend()
        delta = meter - before
        assert delta.row_fetches == 2
        assert delta.index_descends == 1

    def test_reset(self):
        meter = WorkMeter()
        meter.charge_row_fetch()
        meter.charge_monitor_update()
        meter.reset()
        assert meter.total_units == 0.0
        assert meter.rows_emitted == 0


class TestThreadScopedMeter:
    def test_delegates_to_base_outside_scope(self):
        from repro.storage.counters import ThreadScopedMeter

        base = WorkMeter()
        scoped = ThreadScopedMeter(base)
        scoped.charge_row_fetch(3)
        assert base.row_fetches == 3
        assert scoped.total_units == base.total_units

    def test_scoped_isolates_and_merges(self):
        from repro.storage.counters import ThreadScopedMeter

        base = WorkMeter()
        scoped = ThreadScopedMeter(base)
        scoped.charge_row_fetch(1)  # outside: straight to base
        with scoped.scoped() as local:
            scoped.charge_row_fetch(5)
            assert local.row_fetches == 5, "charges go to the local meter"
            assert base.row_fetches == 1, "base untouched inside the scope"
        assert base.row_fetches == 6, "local merges into base on exit"

    def test_nested_scope_rejected(self):
        import pytest

        from repro.storage.counters import ThreadScopedMeter

        scoped = ThreadScopedMeter(WorkMeter())
        with scoped.scoped():
            with pytest.raises(RuntimeError):
                with scoped.scoped():
                    pass

    def test_concurrent_threads_measure_independent_work(self):
        import threading

        from repro.storage.counters import ThreadScopedMeter

        base = WorkMeter()
        scoped = ThreadScopedMeter(base)
        barrier = threading.Barrier(4)
        measured = {}

        def worker(index):
            barrier.wait()
            with scoped.scoped() as local:
                for _ in range(index + 1):
                    scoped.charge_row_fetch(10)
                measured[index] = local.row_fetches

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert measured == {0: 10, 1: 20, 2: 30, 3: 40}
        assert base.row_fetches == 100, "every scope merged exactly once"

    def test_direct_stores_route_to_scoped_meter(self):
        """`meter.field += n` (the batched executor's charge style) must
        land on the thread's meter, never create attributes on the facade."""
        from repro.storage.counters import ThreadScopedMeter

        base = WorkMeter()
        facade = ThreadScopedMeter(base)
        facade.row_fetches += 2  # outside a scope: straight to base
        assert base.row_fetches == 2
        with facade.scoped() as local:
            facade.index_descends += 5
            facade.row_fetches += 3
            assert local.index_descends == 5
            assert local.row_fetches == 3
            assert base.index_descends == 0, "base untouched inside scope"
            assert base.row_fetches == 2
        assert base.index_descends == 5, "direct stores merge on exit"
        assert base.row_fetches == 5
        assert "index_descends" not in vars(facade), (
            "stores must not shadow the facade's __getattr__ routing"
        )

    def test_batched_execution_charges_scoped_meter(self):
        """End-to-end: the engine (direct `+=` charges) reports its work
        through a scoped meter, not onto the facade — its scoped work
        accounting must equal the oracle's on the row store."""
        from tests.conftest import build_three_table_db

        from repro.core.config import AdaptiveConfig, ReorderMode

        sql = (
            "SELECT O.id FROM Owner O, Car C "
            "WHERE O.id = C.ownerid AND C.make = 'Rare'"
        )
        static = AdaptiveConfig(mode=ReorderMode.NONE)
        scalar = build_three_table_db().execute(sql, static)
        assert scalar.stats.engine == "scalar"
        db = build_three_table_db(backend="columnar")
        facade = db.enable_concurrent_metering()
        base = facade.base
        plan = db.plan(sql)
        for config in (static, AdaptiveConfig(mode=ReorderMode.BOTH)):
            before = base.snapshot()
            with facade.scoped() as local:
                engine = db.execute(plan, config)
                assert base.total_units == before.total_units, (
                    "base must not be charged while a scope is active"
                )
                assert local.total_units == engine.stats.total_work
            assert engine.stats.engine.startswith("vector")
            assert sorted(engine.rows) == sorted(scalar.rows)
            if config is static:
                assert engine.stats.work == scalar.stats.work, (
                    "the engine's direct stores must land in the scoped meter"
                )
            assert base.total_units > before.total_units, "scope merged into base"
        assert not set(vars(facade)) & set(WorkMeter.__dataclass_fields__), (
            "no counter attribute may shadow the facade's routing"
        )
