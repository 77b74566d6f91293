"""Tests for the observability subsystem (tracer, metrics, sampler, report)."""

import json

import pytest

from repro import AdaptiveConfig, QueryObservability, ReorderMode
from repro.core.events import EventKind
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import JSONL_KEYS, SPAN_KINDS, Tracer

from tests.conftest import build_three_table_db

SKEW_SQL = (
    "SELECT o.name FROM Owner o, Car c, Demo d "
    "WHERE c.ownerid = o.id AND o.id = d.ownerid "
    "AND c.make = 'Rare' AND o.country = 'DE' AND d.salary < 70000"
)


class TestTracer:
    def test_parent_child_nesting(self):
        tracer = Tracer()
        with tracer.span("query") as root:
            with tracer.span("execute") as inner:
                tracer.event("leg-open", kind="leg", leg="o")
        assert root.parent_id is None
        assert inner.parent_id == root.span_id
        leg_open = tracer.spans[2]
        assert leg_open.parent_id == inner.span_id
        assert leg_open.end_ms == leg_open.start_ms  # instant event

    def test_jsonl_schema(self):
        tracer = Tracer()
        with tracer.span("query", sql="SELECT 1"):
            tracer.event("reorder-check", kind="check", applied=False)
        for line in tracer.to_jsonl().splitlines():
            span = json.loads(line)
            assert tuple(span) == JSONL_KEYS
            assert span["kind"] in SPAN_KINDS
            assert span["end_ms"] >= span["start_ms"]

    def test_attrs_coerced_to_json_safe(self):
        tracer = Tracer()
        span = tracer.begin("query", order=("a", "b"), mode=ReorderMode.BOTH)
        tracer.end(span)
        payload = json.loads(tracer.to_jsonl())
        assert payload["attrs"]["order"] == ["a", "b"]
        assert isinstance(payload["attrs"]["mode"], str)

    def test_close_all_closes_dangling_spans(self):
        tracer = Tracer()
        tracer.begin("query")
        tracer.begin("execute")
        tracer.close_all()
        assert all(span.end_ms is not None for span in tracer.spans)

    def test_write_jsonl_atomic(self, tmp_path):
        tracer = Tracer()
        with tracer.span("query"):
            pass
        target = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(target))
        assert len(target.read_text().splitlines()) == 1
        assert not list(tmp_path.glob("*.tmp.*"))


class TestMetrics:
    def test_counter_labels_and_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("leg_rows_in_total", "probes")
        counter.inc("o")
        counter.inc("o", 2)
        counter.inc("c")
        assert counter.value("o") == 3
        assert counter.total == 4
        assert registry.counter("leg_rows_in_total") is counter

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        histo = registry.histogram(
            "index_matches", (0.0, 1.0, 2.0, 5.0, 10.0, 100.0)
        )
        histo.observe(0)
        histo.observe(1)
        histo.observe(3)
        histo.observe(10_000)
        buckets = histo.buckets()
        assert buckets["0"] == 1
        assert buckets["1"] == 1
        assert buckets["5"] == 1
        assert buckets["+Inf"] == 1
        assert histo.count() == 4
        assert histo.mean() == pytest.approx(10_004 / 4)

    def test_type_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("leg_position")
        with pytest.raises(TypeError):
            registry.gauge("leg_position")

    def test_render_and_as_dict(self):
        registry = MetricsRegistry()
        registry.counter("query_rows_emitted_total", "rows").inc(amount=7)
        registry.gauge("leg_position").set(2, "o")
        text = registry.render()
        assert "query_rows_emitted_total 7" in text
        assert "leg_position{o} 2" in text
        snapshot = registry.as_dict()
        assert snapshot["query_rows_emitted_total"][""] == 7


class TestObservabilityBundle:
    def test_disarmed_hooks_are_noops(self):
        """A bundle with nothing armed is fed and finished, and renders
        nothing: no trace, no metrics, no samples, no decisions."""
        db = build_three_table_db(owners=400, seed=3)
        config = AdaptiveConfig(mode=ReorderMode.BOTH)
        result = db.execute(db.plan(SKEW_SQL), config, obs=QueryObservability())
        assert result.trace is None and result.metrics is None
        assert result.samples == () and result.decisions == ()
        assert result.rows == db.execute(db.plan(SKEW_SQL), config).rows

    def test_finish_emits_one_leg_flow_event_per_leg(self):
        """The trace reads each leg's flow counters once, at the end: one
        ``leg-flow`` event per leg on either machine, agreeing with the
        metrics."""
        for backend in ("row", "columnar"):
            db = build_three_table_db(owners=400, seed=3, backend=backend)
            result = db.execute(
                SKEW_SQL, AdaptiveConfig(mode=ReorderMode.NONE), obs=True
            )
            spans = [s for s in result.trace.spans if s.name == "leg-flow"]
            flows = {span.attrs["leg"]: span.attrs for span in spans}
            assert len(spans) == len(flows) == len(result.plan.order)
            assert set(flows) == set(result.plan.order)
            assert {span.kind for span in spans} == {"leg"}
            counter = result.metrics.counter
            driving, *inner = result.final_order
            assert flows[driving]["rows_scanned"] == counter(
                "scan_rows_total"
            ).value(driving)
            assert flows[driving]["rows_survived"] == counter(
                "driving_rows_total"
            ).value(driving)
            for alias in inner:
                for attr, name in (
                    ("rows_in", "leg_rows_in_total"),
                    ("index_matches", "leg_index_matches_total"),
                    ("rows_out", "leg_rows_out_total"),
                ):
                    assert flows[alias][attr] == counter(name).value(alias)
            assert flows[inner[-1]]["rows_out"] == len(result.rows) > 0


class TestExecutionWithObservability:
    def test_execute_populates_artifacts(self):
        db = build_three_table_db()
        result = db.execute(
            SKEW_SQL, AdaptiveConfig(mode=ReorderMode.BOTH), obs=True
        )
        assert result.trace is not None
        names = {span.name for span in result.trace.spans}
        assert {"query", "parse", "optimize", "execute"} <= names
        assert all(span.end_ms is not None for span in result.trace.spans)
        assert result.metrics is not None
        emitted = result.metrics.counter("query_rows_emitted_total")
        assert emitted.total == len(result.rows)
        assert result.samples  # final sample always recorded

    def test_post_process_span_nests_under_query(self):
        """The engine's events are written under the open ``execute`` span
        after the run, and leave the span stack as it was: the blocking
        stage that follows is the query's child, and the trace has one
        root."""
        db = build_three_table_db()
        result = db.execute(
            "SELECT o.name FROM Owner o, Car c WHERE c.ownerid = o.id "
            "ORDER BY o.name",
            AdaptiveConfig(mode=ReorderMode.BOTH),
            obs=True,
        )
        spans = {span.name: span for span in result.trace.spans}
        assert spans["post-process"].parent_id == spans["query"].span_id
        assert [s.name for s in result.trace.spans if s.parent_id is None] == [
            "query"
        ]

    def test_metrics_row_flow_is_consistent(self):
        db = build_three_table_db()
        result = db.execute(
            SKEW_SQL, AdaptiveConfig(mode=ReorderMode.NONE), obs=True
        )
        metrics = result.metrics
        order = result.final_order
        # The last leg's surviving rows are exactly the emitted rows.
        last = order[-1]
        assert metrics.counter("leg_rows_out_total").value(last) == len(
            result.rows
        )
        # Candidates at each inner leg are at least the surviving rows.
        for alias in order[1:]:
            assert metrics.counter("leg_index_matches_total").value(
                alias
            ) >= metrics.counter("leg_rows_out_total").value(alias)

    def test_switching_query_records_checks_and_events(self):
        db = build_three_table_db(owners=2000, seed=42)
        result = db.execute(
            SKEW_SQL, AdaptiveConfig(mode=ReorderMode.BOTH), obs=True
        )
        assert result.stats.total_switches >= 1
        metrics = result.metrics
        events = metrics.counter("adaptation_events_total")
        assert events.total == len(result.stats.events)
        checks = metrics.counter("reorder_checks_total")
        applied = checks.value("inner-reorder") + checks.value("driving-switch")
        assert applied == result.stats.total_switches
        # Every applied event shows up as an "adapt" span too.
        adapt_spans = [
            s for s in result.trace.spans if s.kind == "adapt"
        ]
        assert len(adapt_spans) == len(result.stats.events)
        # Final leg positions reflect the final order.
        positions = metrics.gauge("leg_position")
        for position, alias in enumerate(result.final_order):
            assert positions.value(alias) == position

    def test_sampler_cadence_follows_check_frequency(self, monkeypatch):
        """One sample per driving-row count the controller checked at (the
        decision audit's), on either machine, plus the final one."""
        from repro.executor import vector
        from repro.obs.recorder import FlightRecorder

        monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 16)
        config = AdaptiveConfig(mode=ReorderMode.BOTH, check_frequency=25)
        for backend in ("row", "columnar"):
            db = build_three_table_db(owners=400, seed=3, backend=backend)
            obs = FlightRecorder().arm(base=QueryObservability.armed())
            result = db.execute(
                db.plan(
                    "SELECT o.name FROM Owner o, Demo d WHERE o.id = d.ownerid"
                ),
                config,
                obs=obs,
            )
            checked = sorted({d.driving_rows for d in result.decisions})
            assert len(checked) >= 2, (backend, checked)
            *at_checks, final = result.samples
            assert [s.driving_rows for s in at_checks] == checked, backend
            assert final.driving_rows == 400 == result.stats.work.rows_emitted
            # Work attribution is monotone along the series.
            work = [sample.work_units for sample in result.samples]
            assert work == sorted(work)

    def test_sampler_series_tracks_monitor_estimates(self):
        db = build_three_table_db(owners=400, seed=3)
        result = db.execute(
            SKEW_SQL, AdaptiveConfig(mode=ReorderMode.MONITOR_ONLY), obs=True
        )
        sample = result.samples[-1]
        assert sample.order == result.final_order
        inner = sample.legs[result.final_order[1]]
        assert inner["role"] == "inner"
        assert inner["jc"] is None or inner["jc"] >= 0.0

    def test_fault_retries_counted(self):
        from repro.robustness.faults import FaultPlan, FaultSpec

        db = build_three_table_db()
        plan = FaultPlan(
            specs=(
                FaultSpec(site="index-lookup", kind="transient", nth_call=2),
            )
        )
        result = db.execute(
            SKEW_SQL,
            AdaptiveConfig(mode=ReorderMode.BOTH),
            fault_plan=plan,
            obs=True,
        )
        retries = result.metrics.counter("fault_retries_total")
        assert retries.value("index-lookup") >= 1
        assert any(
            span.name == "fault-retry" for span in result.trace.spans
        )

    def test_degraded_event_counted(self):
        from repro.robustness.faults import FaultPlan, FaultSpec

        db = build_three_table_db(owners=2000, seed=42)
        plan = FaultPlan(
            specs=(
                FaultSpec(site="controller", kind="permanent", nth_call=1),
            )
        )
        result = db.execute(
            SKEW_SQL,
            AdaptiveConfig(mode=ReorderMode.BOTH),
            fault_plan=plan,
            obs=True,
        )
        assert result.stats.degraded
        events = result.metrics.counter("adaptation_events_total")
        assert events.value(EventKind.DEGRADED.value) == 1


class TestExplainAnalyze:
    def test_report_sections(self):
        db = build_three_table_db(owners=2000, seed=42)
        report = db.explain_analyze(
            SKEW_SQL, AdaptiveConfig(mode=ReorderMode.BOTH)
        )
        assert "EXPLAIN ANALYZE" in report
        assert "pipeline actuals" in report
        assert "work breakdown:" in report
        assert "adaptation timeline:" in report
        assert "driving-switch" in report
        assert "estimate samples:" in report
        assert "budget: unlimited" in report

    def test_report_with_limits(self):
        from repro.robustness.limits import ExecutionLimits

        db = build_three_table_db()
        config = AdaptiveConfig(mode=ReorderMode.NONE)
        limits = ExecutionLimits(max_rows=10_000, timeout_seconds=30.0)
        report = db.explain_analyze(SKEW_SQL, config, limits=limits)
        assert "budget: max_rows=10,000" not in report  # raw int formatting
        assert "max_rows=10000" in report
        assert "timeout=30000ms" in report
        assert "(not exceeded)" in report


class TestHistogramQuantile:
    def build(self, values=()):
        histogram = Histogram("h", (10.0, 20.0, 50.0))
        for value in values:
            histogram.observe(value)
        return histogram

    def test_empty_returns_none(self):
        assert self.build().quantile(0.5) is None

    def test_rejects_out_of_range_q(self):
        histogram = self.build([5.0])
        with pytest.raises(ValueError):
            histogram.quantile(0.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_interpolates_within_bucket(self):
        # 10 observations, all in (10, 20]: p50 lands mid-bucket.
        histogram = self.build([15.0] * 10)
        assert histogram.quantile(0.5) == pytest.approx(15.0)
        assert histogram.quantile(1.0) == pytest.approx(20.0)

    def test_first_bucket_interpolates_from_zero(self):
        histogram = self.build([5.0] * 4)
        assert histogram.quantile(0.5) == pytest.approx(5.0)

    def test_infinity_bucket_clamps_to_highest_boundary(self):
        histogram = self.build([999.0] * 3)
        assert histogram.quantile(0.99) == pytest.approx(50.0)

    def test_quantiles_are_monotone(self):
        histogram = self.build([5.0, 15.0, 15.0, 30.0, 45.0, 60.0])
        p50 = histogram.quantile(0.50)
        p95 = histogram.quantile(0.95)
        p99 = histogram.quantile(0.99)
        assert p50 <= p95 <= p99
