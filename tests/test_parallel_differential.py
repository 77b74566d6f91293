"""Differential tests: partitioned parallel execution is observably serial.

Range-partitioning the driving leg across worker processes must be a pure
performance change for query *results*, and the coordinator's merged
monitor estimates must equal what a single worker would have measured over
the same row flow. These tests pin that contract:

* identical result multiset for every mode x workers x batch setting
  (identical *list* for mode NONE, whose partitions concatenate in scan
  order);
* partition cursors cover the driving scan disjointly and completely;
* merged per-worker windowed counters reproduce the single-window
  estimates exactly while windows are under-filled;
* ``AggregatedWindow`` with one-sample chunks is bit-identical to
  ``SlidingWindow``;
* chunk-granularity monitoring never changes result rows;
* the reported critical path is positive and never exceeds total work.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import AdaptiveConfig, ReorderMode
from repro.core.monitor import AggregatedWindow, SlidingWindow
from repro.dmv import load_dmv, six_table_workload
from repro.executor.monitor_merge import (
    inject_into_host,
    merge_snapshots,
    snapshot_executor,
)
from repro.executor.parallel import compute_partitions
from repro.executor.pipeline import PipelineExecutor

WORKERS = (2, 4)

PARALLEL_QUERIES = [
    "SELECT o.name, c.make FROM Car c, Owner o "
    "WHERE c.ownerid = o.id AND c.year >= 2005",
    "SELECT o.name, c.make FROM Demographics d, Owner o, Car c "
    "WHERE d.ownerid = o.id AND c.ownerid = o.id AND d.salary > 50000",
]


@pytest.fixture(scope="module")
def dmv():
    db, _ = load_dmv(scale=0.02, extended=True)
    yield db
    db.close()


@pytest.fixture(scope="module")
def workload(dmv):
    return PARALLEL_QUERIES + [q.sql for q in six_table_workload(count=2)]


@pytest.mark.parametrize(
    "mode",
    [ReorderMode.NONE, ReorderMode.DRIVING_ONLY, ReorderMode.BOTH],
    ids=lambda m: m.name.lower(),
)
def test_parallel_rows_match_scalar(dmv, workload, mode):
    for sql in workload:
        scalar = dmv.execute(sql, AdaptiveConfig(mode=mode))
        for workers in WORKERS:
            for batched in (False, True):
                config = AdaptiveConfig(
                    mode=mode, workers=workers, batched=batched
                )
                parallel = dmv.execute(sql, config)
                tag = f"w={workers} batched={batched}: {sql[:60]}"
                if mode is ReorderMode.NONE and not batched:
                    # Partitions are consumed in scan order, so even row
                    # *order* is the serial order.
                    assert parallel.rows == scalar.rows, tag
                else:
                    assert Counter(parallel.rows) == Counter(
                        scalar.rows
                    ), tag


def test_parallel_stats_report_critical_path(dmv):
    sql = PARALLEL_QUERIES[0]
    result = dmv.execute(
        sql, AdaptiveConfig(mode=ReorderMode.NONE, workers=4)
    )
    assert result.stats.workers == 4
    cp = result.stats.critical_path_work
    assert cp is not None and cp > 0
    assert cp <= result.stats.work.total_units
    serial = dmv.execute(sql, AdaptiveConfig(mode=ReorderMode.NONE))
    assert serial.stats.critical_path_work is None
    assert serial.stats.workers == 1


def test_partitions_cover_scan_disjointly(dmv):
    for sql in PARALLEL_QUERIES:
        plan = dmv.plan(sql)
        serial = PipelineExecutor(
            plan, dmv.catalog, AdaptiveConfig(mode=ReorderMode.NONE)
        )
        serial_rows = serial.run_to_completion()
        for slices in (2, 3, 7):
            partitions = compute_partitions(plan, dmv.catalog, slices)
            assert partitions is not None
            rows = []
            entries = 0
            for partition in partitions:
                executor = PipelineExecutor(
                    plan, dmv.catalog, AdaptiveConfig(mode=ReorderMode.NONE)
                )
                executor.driving_partition = partition
                rows.extend(executor.run_to_completion())
                got = executor.driving_cursor.entries_yielded
                assert got == partition.entry_count, (
                    f"partition yielded {got}, bounds promised "
                    f"{partition.entry_count}"
                )
                entries += got
            assert rows == serial_rows, f"slices={slices}: {sql[:60]}"
            assert entries == sum(p.entry_count for p in partitions)


def _run_monitored(dmv, plan, partition=None):
    """One MONITOR_ONLY pipeline run (optionally partition-bounded)."""
    config = AdaptiveConfig(mode=ReorderMode.MONITOR_ONLY)
    executor = PipelineExecutor(plan, dmv.catalog, config)
    if partition is not None:
        executor.driving_partition = partition
    executor.run_to_completion()
    return executor


def test_merged_estimates_equal_single_worker(dmv):
    """Partition -> snapshot -> merge -> inject == one unpartitioned run.

    The default history window (1000) is larger than any leg's incoming
    row count here, so no window evicts and the merge must be *exact*:
    every derived estimate (JC, index match rate, residual selectivity,
    probe cost) on the injected host equals the single run's.
    """
    for sql in PARALLEL_QUERIES:
        plan = dmv.plan(sql)
        whole = _run_monitored(dmv, plan)
        partitions = compute_partitions(plan, dmv.catalog, 4)
        assert partitions is not None
        snapshots = [
            snapshot_executor(_run_monitored(dmv, plan, partition))
            for partition in partitions
        ]
        merged = merge_snapshots(snapshots)
        host = PipelineExecutor(
            plan, dmv.catalog, AdaptiveConfig(mode=ReorderMode.MONITOR_ONLY)
        )
        host._compile_all_probes(start_position=1)
        inject_into_host(host, merged)
        for alias in plan.order[1:]:
            expect = whole.legs[alias].monitor
            got = host.legs[alias].monitor
            assert len(expect.window) == len(got.window), alias
            for estimate in (
                "join_cardinality",
                "index_match_rate",
                "residual_selectivity",
                "probe_cost",
            ):
                assert getattr(expect, estimate)() == pytest.approx(
                    getattr(got, estimate)(), abs=1e-12
                ), f"{alias}.{estimate}"
        whole_driving = whole.legs[plan.order[0]].driving_monitor
        host_driving = host.legs[plan.order[0]].driving_monitor
        assert host_driving.entries_scanned == whole_driving.entries_scanned
        assert host_driving.rows_survived == whole_driving.rows_survived


def test_aggregated_window_single_samples_match_sliding():
    rng = random.Random(20070426)
    sliding = SlidingWindow(64)
    aggregated = AggregatedWindow(64)
    for _ in range(500):
        matches = rng.randrange(0, 5)
        output = rng.randrange(0, matches + 1)
        work = rng.random() * 10
        sliding.observe(matches, output, work)
        aggregated.observe_chunk(1, matches, output, work)
        assert len(aggregated) == len(sliding)
        assert aggregated.sum_matches == sliding.sum_matches
        assert aggregated.sum_output == sliding.sum_output
        assert aggregated.sum_work == pytest.approx(sliding.sum_work)


def test_chunk_granularity_rows_match_exact(dmv, workload):
    for sql in workload:
        exact = dmv.execute(sql, AdaptiveConfig(mode=ReorderMode.BOTH))
        chunk = dmv.execute(
            sql, AdaptiveConfig(mode=ReorderMode.BOTH, batched=True)
        )
        assert Counter(chunk.rows) == Counter(exact.rows), sql[:60]
