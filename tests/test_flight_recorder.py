"""The flight recorder: bounded always-on telemetry with offline replay.

Contract under test (the PR's acceptance bar):

* the in-memory ring and the JSONL store are both bounded — an always-on
  recorder cannot grow without limit;
* segment rotation is atomic: readers only ever see finalized
  ``telemetry-NNNNNN.jsonl`` files, never a half-written ``.part``;
* every emitted record validates against the shared schema
  (``repro.obs.schema``), so ``scripts/validate_trace.py`` and the
  recorder cannot drift apart;
* ``repro replay`` reconstructs the **exact** AdaptationEvent sequence of
  the live run from the stored record, annotated with the rank-rule
  inputs captured at each controller check;
* an armed recorder never touches the deterministic WorkMeter and never
  changes a result row (differential vs. an unobserved run).
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro import AdaptiveConfig, QueryObservability, ReorderMode
from repro.dmv import load_dmv, six_table_workload
from repro.obs.analytics import TelemetryAnalytics
from repro.obs.audit import (
    find_record,
    latest_record,
    load_records,
    reconstruct_events,
    render_diff,
    render_listing,
    render_replay,
)
from repro.obs.recorder import (
    FlightRecord,
    FlightRecorder,
    TelemetryStore,
)
from repro.obs.schema import validate_telemetry_record

ADAPTIVE = AdaptiveConfig(mode=ReorderMode.BOTH, check_frequency=2, warmup_rows=2)


@pytest.fixture(scope="module")
def extended_dmv():
    """No plan cache: every execution of a text adapts as its first would
    (a learned text runs its lesson as a static plan)."""
    db, _ = load_dmv(scale=0.02, extended=True, plan_cache_size=0)
    return db


@pytest.fixture(scope="module")
def adaptive_query(extended_dmv):
    """A six-table query that actually adapts under the aggressive config."""
    for query in six_table_workload(count=8):
        result = extended_dmv.execute(query.sql, ADAPTIVE)
        if result.stats.events:
            return query
    pytest.fail("no query in the six-table sample adapted")


def record_one(db, sql, config=ADAPTIVE, recorder=None) -> FlightRecord:
    recorder = recorder or FlightRecorder()
    bundle = recorder.arm()
    result = db.execute(sql, config, obs=bundle)
    return recorder.finish_query(bundle, result, sql=sql, config=config)


# ---------------------------------------------------------------------------
# Ring buffer
# ---------------------------------------------------------------------------
class TestRing:
    def _finish_n(self, recorder, n):
        config = AdaptiveConfig()
        for i in range(n):
            bundle = recorder.arm()
            recorder.finish_query(
                bundle, sql=f"SELECT {i}", config=config, outcome="sql_error",
                error=ValueError("synthetic"),
            )

    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=4)
        self._finish_n(recorder, 10)
        recent = recorder.recent()
        assert len(recent) == 4
        assert recorder.recorded_total == 10
        # Newest records survive; oldest were evicted.
        assert recent[-1].sql == "SELECT 9"
        assert recent[0].sql == "SELECT 6"

    def test_query_ids_unique_and_findable(self):
        recorder = FlightRecorder(capacity=8)
        self._finish_n(recorder, 8)
        ids = [record.query_id for record in recorder.recent()]
        assert len(set(ids)) == 8
        assert recorder.find(ids[3]).sql == "SELECT 3"
        assert recorder.find("q-nope") is None

    def test_slow_queue_tracks_threshold(self):
        recorder = FlightRecorder(capacity=8, slow_query_ms=5.0)
        config = AdaptiveConfig()
        for wall in (1.0, 10.0, 3.0, 50.0):
            bundle = recorder.arm()
            recorder.finish_query(
                bundle, sql="SELECT 1", config=config, wall_ms=wall
            )
        assert recorder.slow_total == 2
        assert [r.wall_ms for r in recorder.slow_queries()] == [10.0, 50.0]
        assert all(r.slow for r in recorder.slow_queries())

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


# ---------------------------------------------------------------------------
# Rotating store
# ---------------------------------------------------------------------------
class TestTelemetryStore:
    def test_active_segment_is_a_part_file(self, tmp_path):
        store = TelemetryStore(str(tmp_path), max_segment_bytes=1 << 20)
        store.append({"type": "flight", "n": 1})
        names = os.listdir(tmp_path)
        assert names == ["telemetry-000001.jsonl.part"]
        # Readers see nothing until rotation finalizes the segment.
        assert store.segment_paths() == []
        assert TelemetryStore.iter_records(str(tmp_path)) == []
        store.close()
        assert os.listdir(tmp_path) == ["telemetry-000001.jsonl"]
        assert [r["n"] for r in TelemetryStore.iter_records(str(tmp_path))] == [1]

    def test_rotation_by_size_and_retention(self, tmp_path):
        # 1-byte cap: every append rotates; retention keeps the newest 3.
        store = TelemetryStore(str(tmp_path), max_segment_bytes=1, max_segments=3)
        for i in range(7):
            store.append({"type": "flight", "n": i})
        store.close()
        segments = store.segment_paths()
        assert len(segments) == 3
        assert not any(name.endswith(".part") for name in os.listdir(tmp_path))
        assert store.rotations_total == 7
        assert store.appended_total == 7
        # Oldest first; only the newest records survive pruning.
        kept = [r["n"] for r in TelemetryStore.iter_records(str(tmp_path))]
        assert kept == [4, 5, 6]

    def test_reopen_does_not_clobber_existing_segments(self, tmp_path):
        first = TelemetryStore(str(tmp_path), max_segment_bytes=1)
        first.append({"type": "flight", "n": 0})
        first.close()
        second = TelemetryStore(str(tmp_path), max_segment_bytes=1)
        second.append({"type": "flight", "n": 1})
        second.close()
        kept = [r["n"] for r in TelemetryStore.iter_records(str(tmp_path))]
        assert kept == [0, 1]

    def test_malformed_lines_are_skipped_on_read(self, tmp_path):
        path = tmp_path / "telemetry-000001.jsonl"
        path.write_text('{"type":"flight","n":1}\nnot json\n\n{"n":2}\n')
        records = TelemetryStore.iter_records(str(tmp_path))
        assert [r.get("n") for r in records] == [1, 2]

    def test_parameters_validated(self, tmp_path):
        with pytest.raises(ValueError):
            TelemetryStore(str(tmp_path), max_segment_bytes=0)
        with pytest.raises(ValueError):
            TelemetryStore(str(tmp_path), max_segments=0)


# ---------------------------------------------------------------------------
# Recorded queries: schema, passivity, and replay fidelity
# ---------------------------------------------------------------------------
class TestRecordedQuery:
    def test_recorder_bundle_stays_cold(self):
        bundle = FlightRecorder().arm()
        assert bundle.tracer is None and bundle.metrics is None
        assert bundle.sampler is None
        assert bundle.audit

    def test_record_validates_against_shared_schema(
        self, extended_dmv, adaptive_query
    ):
        record = record_one(extended_dmv, adaptive_query.sql)
        # Round-trip through JSON exactly as the store would write it.
        payload = json.loads(json.dumps(record.to_dict(), default=str))
        assert validate_telemetry_record(payload) == []

    def test_zero_work_meter_delta_and_identical_rows(
        self, extended_dmv, adaptive_query
    ):
        baseline = extended_dmv.execute(adaptive_query.sql, ADAPTIVE)
        recorder = FlightRecorder()
        bundle = recorder.arm()
        recorded = extended_dmv.execute(adaptive_query.sql, ADAPTIVE, obs=bundle)
        assert dataclasses.asdict(recorded.stats.work) == dataclasses.asdict(
            baseline.stats.work
        ), "armed recorder changed the deterministic meter"
        assert sorted(recorded.rows) == sorted(baseline.rows)
        assert recorded.stats.events == baseline.stats.events
        assert recorded.final_order == baseline.final_order

    def test_replay_reconstructs_exact_event_sequence(
        self, extended_dmv, adaptive_query
    ):
        """Acceptance: offline replay == the live AdaptationEvent sequence."""
        recorder = FlightRecorder()
        bundle = recorder.arm()
        result = extended_dmv.execute(adaptive_query.sql, ADAPTIVE, obs=bundle)
        record = recorder.finish_query(
            bundle, result, sql=adaptive_query.sql, config=ADAPTIVE
        )
        assert result.stats.events, "fixture promised an adapting query"
        # Round-trip through the wire format before reconstructing.
        restored = FlightRecord.from_dict(
            json.loads(json.dumps(record.to_dict(), default=str))
        )
        replayed = reconstruct_events(restored)
        live = list(result.stats.events)
        assert len(replayed) == len(live)
        for offline, online in zip(replayed, live):
            assert offline.kind == online.kind
            assert offline.driving_rows_produced == online.driving_rows_produced
            assert offline.old_order == online.old_order
            assert offline.new_order == online.new_order
            assert offline.position == online.position
            assert offline.estimated_current_cost == pytest.approx(
                online.estimated_current_cost
            )
            assert offline.estimated_new_cost == pytest.approx(
                online.estimated_new_cost
            )

    def test_decisions_carry_rank_rule_inputs(self, extended_dmv, adaptive_query):
        record = record_one(extended_dmv, adaptive_query.sql)
        assert record.decisions, "adaptive run must audit its checks"
        applied = [d for d in record.decisions if d.applied]
        assert applied, "an adapting query must have at least one applied check"
        for decision in applied:
            assert decision.check in ("inner", "driving")
            assert decision.order_after is not None
            assert decision.window, "window estimates missing from decision"
            if decision.check == "inner":
                assert decision.rank_terms, "inner check must carry Eq(3) terms"
            else:
                assert decision.candidate_costs, (
                    "driving check must carry Fig 3 candidate costs"
                )

    def test_legs_report_q_error_vs_prior(self, extended_dmv, adaptive_query):
        record = record_one(extended_dmv, adaptive_query.sql)
        assert set(record.legs) == set(record.final_order)
        q_errors = [
            leg["q_error"] for leg in record.legs.values() if "q_error" in leg
        ]
        assert q_errors, "no leg reported an estimate-vs-actual q-error"
        assert all(q >= 1.0 for q in q_errors)

    def test_normalization_and_template(self, extended_dmv):
        sql = (
            "SELECT   a.id FROM Accidents a, Location l\n"
            "WHERE a.locationid = l.id AND l.state = 'NY'"
        )
        record = record_one(extended_dmv, sql)
        assert "\n" not in record.sql and "  " not in record.sql
        assert "'NY'" not in record.template and "?" in record.template
        # Same shape, different literal -> same template.
        other = record_one(extended_dmv, sql.replace("'NY'", "'CA'"))
        assert other.template == record.template
        assert other.sql != record.sql

    def test_failed_query_still_leaves_a_record(self, extended_dmv):
        from repro.errors import BudgetExceeded
        from repro.robustness.limits import ExecutionLimits

        recorder = FlightRecorder()
        bundle = recorder.arm()
        sql = six_table_workload(count=2)[0].sql
        limits = ExecutionLimits(max_work_units=1.0)
        with pytest.raises(BudgetExceeded) as excinfo:
            extended_dmv.execute(sql, ADAPTIVE, limits=limits, obs=bundle)
        record = recorder.finish_query(
            bundle, sql=sql, config=ADAPTIVE,
            outcome="budget_exceeded", error=excinfo.value, wall_ms=1.5,
        )
        assert record.outcome == "budget_exceeded"
        assert record.error and "BudgetExceeded" in record.error
        assert record.rows == 0 and record.wall_ms == 1.5
        payload = json.loads(json.dumps(record.to_dict(), default=str))
        assert validate_telemetry_record(payload) == []

    def test_audit_composes_with_hot_bundle(self, extended_dmv, adaptive_query):
        """--trace/--metrics plus recorder: audit rides the armed bundle."""
        recorder = FlightRecorder()
        base = QueryObservability.armed()
        bundle = recorder.arm(base=base)
        assert bundle is base and bundle.sampler is not None
        result = extended_dmv.execute(adaptive_query.sql, ADAPTIVE, obs=bundle)
        record = recorder.finish_query(
            bundle, result, sql=adaptive_query.sql, config=ADAPTIVE
        )
        assert record.decisions and result.trace is base.tracer

    def test_decision_cap_truncates_not_grows(self, extended_dmv, adaptive_query):
        recorder = FlightRecorder()
        bundle = recorder.arm(max_decisions=1)
        result = extended_dmv.execute(adaptive_query.sql, ADAPTIVE, obs=bundle)
        record = recorder.finish_query(
            bundle, result, sql=adaptive_query.sql, config=ADAPTIVE
        )
        assert len(record.decisions) == 1
        assert bundle.truncated


# ---------------------------------------------------------------------------
# Offline plane: load / replay / diff / analytics
# ---------------------------------------------------------------------------
class TestOfflinePlane:
    @pytest.fixture(scope="class")
    def recorded_dir(self, tmp_path_factory, extended_dmv):
        directory = str(tmp_path_factory.mktemp("telemetry"))
        recorder = FlightRecorder(
            store=TelemetryStore(directory), slow_query_ms=0.0001
        )
        for query in six_table_workload(count=4):
            record_one(extended_dmv, query.sql, recorder=recorder)
        recorder.close()
        return directory

    def test_load_and_lookup(self, recorded_dir):
        records = load_records(recorded_dir)
        assert len(records) == 4
        assert latest_record(records) is records[-1]
        target = records[1]
        assert find_record(records, target.query_id) is target
        assert find_record(records, "q-missing") is None

    def test_replay_report_names_the_rank_rule(self, recorded_dir, extended_dmv):
        records = load_records(recorded_dir)
        adapted = [r for r in records if r.events]
        assert adapted, "six-table sample should adapt at least once"
        report = render_replay(adapted[0])
        assert f"FLIGHT RECORD {adapted[0].query_id}" in report
        assert "adaptation timeline" in report
        assert "why:" in report
        assert "(SLOW)" in report  # threshold 0.0001ms marks everything slow
        # Rank-rule inputs or Fig 3 candidates appear in the why block.
        assert ("rank terms (Eq 3" in report) or (
            "candidate driving orders (Fig 3" in report
        )

    def test_listing_and_diff(self, recorded_dir):
        records = load_records(recorded_dir)
        listing = render_listing(records)
        assert len(listing.splitlines()) == 1 + len(records)
        for record in records:
            assert record.query_id in listing
        diff = render_diff(records[0], records[1])
        assert f"DIFF {records[0].query_id} vs {records[1].query_id}" in diff
        assert "final_order" in diff
        assert render_listing([]) == "(telemetry store is empty)"

    def test_analytics_aggregates_per_template(self, recorded_dir):
        records = load_records(recorded_dir)
        analytics = TelemetryAnalytics.from_records(records)
        assert analytics.records_total == len(records)
        summary = analytics.as_dict()
        assert summary["records_total"] == len(records)
        total_queries = sum(
            t["queries"] for t in summary["templates"].values()
        )
        assert total_queries == len(records)
        for template in summary["templates"].values():
            assert template["outcomes"].get("ok", 0) == template["queries"]
            assert template["slow_total"] == template["queries"]
        rendered = analytics.render()
        assert "TELEMETRY ANALYTICS" in rendered
        assert "adaptations/query=" in rendered


def test_records_written_before_the_fork_pool_left_still_load(tmp_path, capsys):
    """Two lines as PR 20 wrote them — a ``workers=2`` run (``workers``,
    ``worker_engines``, events numbered by ``worker``) and a serial run with
    its decision audit (``worker`` on every decision). Records are read key
    by key, so the keys nobody reads any more are no obstacle to
    ``FlightRecord.from_dict`` or ``repro replay`` — and the schema, which
    no longer has them, names them."""
    import pathlib

    from repro.cli import main

    golden = pathlib.Path(__file__).parent / "golden" / "flight_record_pr20.jsonl"
    pooled, serial = map(json.loads, golden.read_text().splitlines())
    assert pooled["workers"] == 2 and pooled["worker_engines"]
    assert any(event["worker"] >= 0 for event in pooled["events"])
    assert serial["decisions"]
    assert all("worker" in decision for decision in serial["decisions"])

    for data in (pooled, serial):
        record = FlightRecord.from_dict(data)
        assert record.engine == data["engine"]
        assert [d.as_dict()["check"] for d in record.decisions] == [
            d["check"] for d in data["decisions"]
        ]
        replayed = reconstruct_events(record)
        assert [event.new_order for event in replayed] == [
            tuple(event["new_order"]) for event in data["events"]
        ]
        assert not hasattr(replayed[0], "worker")
        assert "unexpected" in " ".join(validate_telemetry_record(data))

    (tmp_path / "telemetry-000001.jsonl").write_text(golden.read_text())
    for data in (pooled, serial):
        query_id = data["query_id"]
        assert main(["replay", "--telemetry-dir", str(tmp_path), query_id]) == 0
        out = capsys.readouterr().out
        assert f"FLIGHT RECORD {query_id}" in out
        assert f"engine={data['engine']}" in out and "workers=" not in out
