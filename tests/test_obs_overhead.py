"""Observability must be free when disabled and passive when armed.

The Sec 5.4 overhead story is told in deterministic work units, so the
observability layer has a sharp contract: with ``obs`` disabled the
engine pays one ``is None`` check per site and charges nothing; with
``obs`` armed it may spend wall-clock time but must never touch the
:class:`~repro.storage.counters.WorkMeter`, change a single result row —
or, on a columnar database, the machine that runs.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter as Multiset

import pytest

from repro import AdaptiveConfig, QueryObservability, ReorderMode
from repro.dmv import four_table_workload, load_dmv


@pytest.fixture(scope="module")
def dmv_db():
    # No plan cache: "baseline" and "armed" are two runs of the optimizer's
    # plan, not a run and its plan-feedback successor.
    db, _ = load_dmv(scale=0.01, plan_cache_size=0)
    return db


@pytest.fixture(scope="module")
def columnar_db():
    db, _ = load_dmv(scale=0.01, backend="columnar", plan_cache_size=0)
    return db


@pytest.fixture(scope="module")
def workload():
    return four_table_workload(queries_per_template=1)


def _work_fields(stats) -> dict:
    return dataclasses.asdict(stats.work)


class TestDisabledObservabilityIsFree:
    def test_work_units_identical_to_baseline(self, dmv_db, workload):
        """obs=None runs charge exactly the same meter, field by field."""
        config = AdaptiveConfig(mode=ReorderMode.BOTH)
        for query in workload:
            baseline = dmv_db.execute(query.sql, config)
            disabled = dmv_db.execute(query.sql, config, obs=None)
            assert _work_fields(disabled.stats) == _work_fields(
                baseline.stats
            ), f"{query.qid}: disabled observability changed the meter"
            assert Multiset(disabled.rows) == Multiset(
                baseline.rows
            ), f"{query.qid}: disabled observability changed the result"

    def test_disabled_run_carries_no_artifacts(self, dmv_db, workload):
        query = workload[0]
        result = dmv_db.execute(query.sql, AdaptiveConfig(mode=ReorderMode.BOTH))
        assert result.trace is None
        assert result.metrics is None
        assert result.samples == ()


class TestArmedObservabilityIsPassive:
    @pytest.mark.parametrize(
        "mode",
        [ReorderMode.NONE, ReorderMode.MONITOR_ONLY, ReorderMode.BOTH],
    )
    def test_armed_run_charges_identical_work(self, dmv_db, workload, mode):
        """An armed tracer/registry/sampler never touches the meter."""
        config = AdaptiveConfig(mode=mode)
        for query in workload:
            baseline = dmv_db.execute(query.sql, config)
            armed = dmv_db.execute(query.sql, config, obs=True)
            assert _work_fields(armed.stats) == _work_fields(
                baseline.stats
            ), f"{query.qid}: armed observability changed the meter in {mode}"
            assert Multiset(armed.rows) == Multiset(
                baseline.rows
            ), f"{query.qid}: armed observability changed the result in {mode}"
            assert armed.stats.total_switches == baseline.stats.total_switches
            assert armed.final_order == baseline.final_order

    def test_armed_run_with_custom_bundle(self, dmv_db, workload):
        query = workload[0]
        config = AdaptiveConfig(mode=ReorderMode.BOTH)
        baseline = dmv_db.execute(query.sql, config)
        obs = QueryObservability.armed()
        armed = dmv_db.execute(query.sql, config, obs=obs)
        assert armed.stats.total_work == baseline.stats.total_work
        assert armed.trace is obs.tracer
        assert armed.metrics is obs.metrics

    def test_armed_recorder_charges_identical_work(self, dmv_db, workload):
        """The flight recorder's audit bundle is cold and meter-free."""
        from repro.obs.recorder import FlightRecorder

        config = AdaptiveConfig(mode=ReorderMode.BOTH)
        recorder = FlightRecorder()
        for query in workload:
            baseline = dmv_db.execute(query.sql, config)
            bundle = recorder.arm()
            assert bundle.tracer is bundle.metrics is bundle.sampler is None
            recorded = dmv_db.execute(query.sql, config, obs=bundle)
            recorder.finish_query(
                bundle, recorded, sql=query.sql, config=config
            )
            assert _work_fields(recorded.stats) == _work_fields(
                baseline.stats
            ), f"{query.qid}: armed recorder changed the meter"
            assert Multiset(recorded.rows) == Multiset(baseline.rows)
        assert recorder.recorded_total == len(workload)

    @pytest.mark.parametrize(
        "mode",
        [ReorderMode.NONE, ReorderMode.MONITOR_ONLY, ReorderMode.BOTH],
    )
    def test_armed_engine_run_is_the_unobserved_run(
        self, columnar_db, workload, mode
    ):
        """On the engine, arming changes nothing: the same machine, the same
        meter field by field, the same events, final order and rows in
        order."""
        config = AdaptiveConfig(mode=mode)
        for query in workload:
            baseline = columnar_db.execute(query.sql, config, obs=None)
            armed = columnar_db.execute(query.sql, config, obs=True)
            where = f"{query.qid} in {mode}"
            assert armed.stats.engine == baseline.stats.engine, where
            assert armed.stats.engine.startswith("vector"), where
            assert armed.stats.vector_gate is None, where
            assert _work_fields(armed.stats) == _work_fields(
                baseline.stats
            ), where
            assert armed.stats.events == baseline.stats.events, where
            assert armed.final_order == baseline.final_order, where
            assert armed.rows == baseline.rows, where

    def test_flow_metrics_are_exact_counts_on_both_machines(self, columnar_db):
        """Per-leg row flow is read off counters both machines keep: in
        mode NONE the oracle (per probe / driving row) and the engine (per
        chunk) report the same integers for every four-table statement."""
        row_db, _ = load_dmv(scale=0.01, plan_cache_size=0)
        config = AdaptiveConfig(mode=ReorderMode.NONE)
        names = (
            "leg_rows_in_total", "leg_index_matches_total",
            "leg_rows_out_total", "scan_rows_total",
            "scan_rows_survived_total", "driving_rows_total",
            "query_rows_emitted_total",
        )
        grid = four_table_workload(queries_per_template=10**9)
        assert len(grid) == 396
        for query in grid:
            oracle = row_db.execute(query.sql, config, obs=True)
            engine = columnar_db.execute(query.sql, config, obs=True)
            assert engine.stats.engine == "vector", query.qid
            for name in names:
                flows = oracle.metrics.get(name).as_dict()
                assert engine.metrics.get(name).as_dict() == flows, (
                    query.qid, name,
                )
                assert all(
                    value == int(value) for value in flows.values()
                ), (query.qid, name)
            emitted = engine.metrics.get("query_rows_emitted_total").total
            last = engine.final_order[-1]
            assert engine.metrics.get("leg_rows_out_total").value(
                last
            ) == emitted == engine.stats.work.rows_emitted, query.qid

    def test_wall_clock_overhead_is_bounded(self, dmv_db, workload):
        """Armed observability costs wall time, but not pathologically.

        Best-of-N timing with a generous bound — this guards against a
        per-probe span regression (unbatched tracing), not microseconds.
        """
        query = workload[0]
        config = AdaptiveConfig(mode=ReorderMode.BOTH)

        def best_of(runs: int, **kwargs) -> float:
            best = float("inf")
            for _ in range(runs):
                started = time.perf_counter()
                dmv_db.execute(query.sql, config, **kwargs)
                best = min(best, time.perf_counter() - started)
            return best

        baseline = best_of(3)
        armed = best_of(3, obs=True)
        assert armed <= max(baseline * 3.0, baseline + 0.05)
