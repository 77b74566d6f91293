"""Estimate sampling and histogram quantile edge cases (obs plane).

``Histogram.quantile`` is an interpolating estimator over fixed cumulative
buckets (the Prometheus rule); its edge cases — nothing observed, a single
populated bucket, non-finite observations, and interleaved writers — must
degrade predictably because the stats plane and the analytics CLI both
consume it without further guards.
"""

from __future__ import annotations

import math
import threading
from types import SimpleNamespace

import pytest

from repro import AdaptiveConfig, QueryObservability, ReorderMode
from repro.obs.metrics import MetricsRegistry, Histogram
from repro.obs.timeseries import EstimateSampler

from tests.conftest import build_three_table_db


# ---------------------------------------------------------------------------
# Histogram.quantile edge cases
# ---------------------------------------------------------------------------
class TestHistogramQuantileEdges:
    def make(self, boundaries=(1.0, 2.0, 4.0, 8.0)) -> Histogram:
        return Histogram("h", boundaries)

    def test_empty_histogram_returns_none(self):
        h = self.make()
        assert h.quantile(0.5) is None
        assert h.quantile(1.0) is None
        assert h.mean() is None

    def test_invalid_q_rejected(self):
        h = self.make()
        h.observe(1.0)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                h.quantile(bad)

    def test_single_bucket_interpolates_within_it(self):
        h = self.make()
        for _ in range(10):
            h.observe(1.5)  # everything lands in the (1, 2] bucket
        for q in (0.1, 0.5, 0.9, 1.0):
            estimate = h.quantile(q)
            assert 1.0 <= estimate <= 2.0
        # The first finite bucket interpolates from zero.
        g = self.make()
        g.observe(0.5)
        assert 0.0 <= g.quantile(0.5) <= 1.0

    def test_overflow_bucket_clamps_to_highest_boundary(self):
        h = self.make()
        h.observe(100.0)  # +Inf bucket
        assert h.quantile(0.5) == 8.0
        assert h.quantile(1.0) == 8.0

    def test_nan_and_inf_observations_are_dropped(self):
        h = self.make()
        h.observe(2.5)
        for poison in (float("nan"), float("inf"), float("-inf")):
            h.observe(poison)
        assert h.count() == 1
        assert h.sum() == 2.5
        assert math.isfinite(h.quantile(0.5))
        assert math.isfinite(h.mean())

    def test_quantile_monotone_in_q(self):
        h = self.make()
        for value in (0.2, 0.9, 1.1, 1.7, 2.5, 3.9, 5.0, 7.5, 9.0, 50.0):
            h.observe(value)
        grid = [i / 20 for i in range(1, 21)]
        estimates = [h.quantile(q) for q in grid]
        assert estimates == sorted(estimates)

    def test_monotone_under_interleaved_writers(self):
        """Concurrent observers never break cumulative-count monotonicity."""
        h = self.make()

        def writer(offset: float) -> None:
            for i in range(500):
                h.observe(offset + (i % 10), label="leg")

        threads = [
            threading.Thread(target=writer, args=(off,)) for off in (0.0, 0.5)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count("leg") == 1000
        grid = [i / 10 for i in range(1, 11)]
        estimates = [h.quantile(q, "leg") for q in grid]
        assert estimates == sorted(estimates)
        # Bucket counts reconcile with the total count.
        assert sum(h.buckets("leg").values()) == h.count("leg")

    def test_labels_are_independent(self):
        h = self.make()
        h.observe(1.5, "a")
        h.observe(7.5, "b")
        assert h.quantile(1.0, "a") <= 2.0
        assert h.quantile(1.0, "b") > 4.0
        assert h.quantile(0.5, "missing") is None

    def test_boundary_validation(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError):
            Histogram("h", (2.0, 1.0))


# ---------------------------------------------------------------------------
# Prometheus exposition (consumed by the server's telemetry op)
# ---------------------------------------------------------------------------
class TestPrometheusExposition:
    def test_counter_gauge_histogram_series(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "served requests").inc("a", 3)
        registry.gauge("depth", "queue depth").set(2.0)
        h = registry.histogram("latency", (1.0, 2.0), "latency")
        h.observe(0.5, "leg")
        h.observe(5.0, "leg")
        text = registry.render_prometheus(label_name="leg")
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{leg="a"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text
        # Cumulative buckets: +Inf equals the count.
        assert 'latency_bucket{leg="leg",le="1"} 1' in text
        assert 'latency_bucket{leg="leg",le="+Inf"} 2' in text
        assert 'latency_count{leg="leg"} 2' in text
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc('we"ird\nlabel')
        text = registry.render_prometheus()
        assert 'c{label="we\\"ird\\nlabel"} 1' in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


# ---------------------------------------------------------------------------
# EstimateSampler
# ---------------------------------------------------------------------------
def fake_pipeline(rows: int = 0):
    """The minimal pipeline surface snapshot_legs/sample consume."""
    return SimpleNamespace(
        order=("d",),
        driving_rows_total=rows,
        meter_before=None,
        catalog=SimpleNamespace(meter=None),
        class_selectivities={},
        legs={"d": SimpleNamespace(driving_monitor=None)},
    )


class TestEstimateSampler:
    def test_one_sample_per_checked_row_count(self):
        sampler = EstimateSampler()
        for row in (3, 3, 5, 5, 5, 9):
            sampler.on_check(fake_pipeline(rows=row))
        assert [s.driving_rows for s in sampler.samples] == [3, 5, 9]

    def test_max_samples_bounds_memory(self):
        sampler = EstimateSampler(max_samples=2)
        for row in range(5):
            sampler.on_check(fake_pipeline(rows=row))
        assert len(sampler.samples) == 2
        assert sampler.sample(fake_pipeline()) is None

    def test_real_run_series_and_rows(self, monkeypatch):
        from repro.executor import vector
        from repro.obs.recorder import FlightRecorder

        monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 4)
        sql = (
            "SELECT o.name FROM Owner o, Car c, Demo d "
            "WHERE o.id = c.ownerid AND o.id = d.ownerid "
            "AND o.country = 'DE'"
        )
        config = AdaptiveConfig(
            mode=ReorderMode.BOTH, check_frequency=2, warmup_rows=2
        )
        for backend in ("row", "columnar"):
            db = build_three_table_db(backend=backend)
            obs = FlightRecorder().arm(base=QueryObservability.armed())
            result = db.execute(db.plan(sql), config, obs=obs)
            sampler = obs.sampler
            assert sampler.samples, "armed sampler recorded nothing"
            rows_axis = [s.driving_rows for s in sampler.samples]
            assert rows_axis == sorted(rows_axis)
            # Every sample but the final one is a state a check read.
            checked = {d.driving_rows for d in result.decisions}
            assert checked and set(rows_axis[:-1]) <= checked, backend
            assert result.samples == tuple(sampler.samples)

    def test_as_dicts_json_shape(self):
        sampler = EstimateSampler()
        sampler.sample(fake_pipeline(rows=7))
        (payload,) = [sample.as_dict() for sample in sampler.samples]
        assert payload["driving_rows"] == 7
        assert payload["order"] == ["d"]
        assert payload["legs"]["d"]["role"] == "driving"
