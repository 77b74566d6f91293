"""Unit tests for the run-time monitors (Sec 4.3)."""

import random

import pytest

from repro.core.monitor import (
    AggregatedWindow,
    DrivingMonitor,
    LegMonitor,
    SlidingWindow,
)


class TestSlidingWindow:
    def test_totals(self):
        window = SlidingWindow(10)
        window.observe(3, 1, 5.0)
        window.observe(2, 2, 3.0)
        assert window.sum_matches == 5
        assert window.sum_output == 3
        assert window.sum_work == 8.0
        assert len(window) == 2

    def test_eviction(self):
        window = SlidingWindow(2)
        window.observe(10, 10, 10.0)
        window.observe(1, 1, 1.0)
        window.observe(2, 2, 2.0)
        assert len(window) == 2
        assert window.sum_matches == 3  # the 10 expired

    def test_lifetime_counts_everything(self):
        window = SlidingWindow(1)
        for _ in range(5):
            window.observe(1, 1, 1.0)
        assert window.lifetime_samples == 5
        assert len(window) == 1

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)


class TestLegMonitor:
    def test_join_cardinality_eq11(self):
        monitor = LegMonitor(100)
        monitor.record_probe(index_matches=4, output_rows=2, work_units=1.0)
        monitor.record_probe(index_matches=6, output_rows=4, work_units=1.0)
        assert monitor.join_cardinality() == pytest.approx(3.0)  # 6 out / 2 in

    def test_index_join_selectivity_eq7(self):
        monitor = LegMonitor(100)
        monitor.record_probe(index_matches=5, output_rows=1, work_units=1.0)
        # S_JP = (matches per incoming) / C(T) = 5 / 100
        assert monitor.index_join_selectivity(100) == pytest.approx(0.05)

    def test_residual_selectivity_eq6(self):
        monitor = LegMonitor(100)
        monitor.record_probe(index_matches=8, output_rows=2, work_units=1.0)
        assert monitor.residual_selectivity() == pytest.approx(0.25)

    def test_probe_cost_is_work_per_incoming(self):
        monitor = LegMonitor(100)
        monitor.record_probe(1, 1, 10.0)
        monitor.record_probe(1, 1, 20.0)
        assert monitor.probe_cost() == pytest.approx(15.0)

    def test_no_data_returns_none(self):
        monitor = LegMonitor(10)
        assert monitor.join_cardinality() is None
        assert monitor.probe_cost() is None
        assert monitor.residual_selectivity() is None
        assert monitor.index_join_selectivity(10) is None

    def test_window_forgets_old_phases(self):
        monitor = LegMonitor(2)
        monitor.record_probe(1, 1, 1.0)   # old phase: JC 1
        monitor.record_probe(1, 0, 1.0)   # new phase: JC 0
        monitor.record_probe(1, 0, 1.0)
        assert monitor.join_cardinality() == pytest.approx(0.0)

    def test_reset(self):
        monitor = LegMonitor(10)
        monitor.record_probe(1, 1, 1.0)
        monitor.reset()
        assert monitor.incoming_rows == 0
        assert monitor.join_cardinality() is None


class TestDrivingMonitor:
    def test_residual_selectivity(self):
        monitor = DrivingMonitor(100)
        for survived in (True, False, False, True):
            monitor.record_scanned(survived)
        assert monitor.residual_selectivity() == pytest.approx(0.5)
        assert monitor.entries_scanned == 4
        assert monitor.rows_survived == 2

    def test_windowed(self):
        monitor = DrivingMonitor(2)
        monitor.record_scanned(True)
        monitor.record_scanned(False)
        monitor.record_scanned(False)
        assert monitor.residual_selectivity() == pytest.approx(0.0)
        assert monitor.entries_scanned == 3  # lifetime still counts

    def test_no_data(self):
        assert DrivingMonitor(5).residual_selectivity() is None

    def test_observe_many_is_record_scanned_per_flag(self):
        """The bulk fold leaves every field, the ring included, as the
        per-row calls do — chunks shorter than, equal to, longer than and
        straddling the window."""
        import random

        rng = random.Random(20_070_415)
        for _ in range(500):
            window = rng.randint(1, 12)
            one_by_one, bulk = DrivingMonitor(window), DrivingMonitor(window)
            for _ in range(rng.randint(1, 6)):
                flags = [rng.randint(0, 1) for _ in range(rng.randint(0, 30))]
                for flag in flags:
                    one_by_one.record_scanned(bool(flag))
                bulk.observe_many(flags)
                for name in DrivingMonitor.__slots__:
                    assert getattr(bulk, name) == getattr(one_by_one, name), name


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
