"""What an observed run reports, pinned: per-query metrics, estimate
samples, the engine's trace events and the decision audit.

The engine feeds one observation object at its cold sites (a check, a
fault retry) and ``Database`` renders the trace events, the metrics and
the EXPLAIN ANALYZE actuals from it after the run. This module replays a
fixed sequence of executions — the three-table ``SKEW_SQL`` plus six
four-table and six six-table DMV grid statements at scale 0.02, in every
reorder mode, on both stores, under a fully armed bundle (``obs=True``)
and under a flight recorder armed on top of one — and compares what each
run reports with ``tests/golden/obs_views.json``: ``result.metrics``, the
samples, the ``execute`` span's child events as ``(name, kind, attrs)``
(times and ids dropped) and ``result.decisions``. The file holds the
SHA-256 of each view's canonical JSON (sorted keys) per case; the views
themselves run to several megabytes.

The sequence goes through the plan cache, so later executions of a text
run what the first monitored one learned; the golden file pins both.
Rewrite it (only when a view is meant to change) with::

    PYTHONPATH=src:. python -m tests.test_obs_views --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import AdaptiveConfig, QueryObservability, ReorderMode
from repro.dmv import four_table_workload, load_dmv, six_table_workload
from repro.executor import vector
from repro.obs.recorder import FlightRecorder
from repro.robustness.faults import FaultPlan, FaultSpec

from tests.conftest import build_three_table_db

GOLDEN = Path(__file__).parent / "golden" / "obs_views.json"
STORES = ("row", "columnar")
SKEW_SQL = (
    "SELECT o.name FROM Owner o, Car c, Demo d "
    "WHERE c.ownerid = o.id AND o.id = d.ownerid "
    "AND c.make = 'Rare' AND o.country = 'DE' AND d.salary < 70000"
)
MODES = (
    ReorderMode.NONE,
    ReorderMode.MONITOR_ONLY,
    ReorderMode.INNER_ONLY,
    ReorderMode.DRIVING_ONLY,
    ReorderMode.BOTH,
)
BUNDLES = {
    "obs": lambda: True,
    "recorder": lambda: FlightRecorder().arm(base=QueryObservability.armed()),
}
#: Checks every other driving row and switches at any predicted benefit.
EAGER = AdaptiveConfig(
    mode=ReorderMode.BOTH, check_frequency=2, switch_benefit_threshold=0.0
)
FAULTS = {
    "index-lookup-transient": FaultSpec(
        site="index-lookup", kind="transient", nth_call=2
    ),
    "controller-degraded": FaultSpec(
        site="controller", kind="permanent", nth_call=1
    ),
}
#: What a static (mode NONE) run is checked by, each without moving it.
STATIC_CHECKS = {
    "index-lookup-transient": lambda: {"fault_plan": FaultPlan(specs=(
        FaultSpec(site="index-lookup", kind="transient", nth_call=2),
    ))},
    "cursor-advance-transient": lambda: {"fault_plan": FaultPlan(specs=(
        FaultSpec(site="cursor-advance", kind="transient", nth_call=1),
    ))},
    "oracle": lambda: {"oracle": True},
}


#: A four-table statement whose eager run on the row store drives a leg
#: again after switching away from it (a resumed driving scan).
RESUMING = "T2-038"


def grid_statements() -> list[tuple[str, str]]:
    """``(id, sql)`` of six four-table and six six-table statements, spread
    over each grid."""
    picked = []
    for workload in (four_table_workload(), six_table_workload()):
        step = len(workload) // 6
        picked += [(query.qid, query.sql) for query in workload[::step][:6]]
    return picked


def digest(view) -> str:
    return hashlib.sha256(
        json.dumps(view, sort_keys=True, default=str).encode()
    ).hexdigest()


def views(result) -> dict:
    """What one observed run reports, JSON-shaped."""
    spans = result.trace.spans
    (execute,) = [span for span in spans if span.name == "execute"]
    events = [
        [payload["name"], payload["kind"], payload["attrs"]]
        for payload in (
            span.to_dict() for span in spans if span.parent_id == execute.span_id
        )
    ]
    return {
        "metrics": result.metrics.as_dict(),
        "samples": [sample.as_dict() for sample in result.samples],
        "events": events,
        "decisions": [decision.as_dict() for decision in result.decisions],
    }


def capture(store: str) -> dict[str, dict]:
    """Every case of *store*, in order: per bundle, on fresh databases, each
    statement twice in each mode (a first and a warm or learned execution),
    then eagerly adapting runs of each statement's plan with 16-row chunks,
    then the fault cases, then mode-NONE runs under a fault plan or the
    invariant oracle, twice each."""
    out: dict[str, dict] = {}
    chunk_rows = vector.MONITORED_CHUNK_ROWS
    for bundle, arm in BUNDLES.items():
        skew_db = build_three_table_db(owners=2000, seed=42, backend=store)
        dmv, _ = load_dmv(scale=0.02, extended=True, backend=store)
        statements = [("skew", skew_db, SKEW_SQL)] + [
            (qid, dmv, sql) for qid, sql in grid_statements()
        ]
        prefix = f"{store}/{bundle}"
        for qid, db, sql in statements:
            for mode in MODES:
                for run in ("first", "again"):
                    result = db.execute(sql, AdaptiveConfig(mode=mode), obs=arm())
                    out[f"{prefix}/{qid}/{mode.value}/{run}"] = views(result)
        (resuming,) = [q.sql for q in four_table_workload() if q.qid == RESUMING]
        vector.MONITORED_CHUNK_ROWS = 16
        try:
            for qid, db, sql in statements + [(RESUMING, dmv, resuming)]:
                result = db.execute(db.plan(sql), EAGER, obs=arm())
                out[f"{prefix}/{qid}/eager"] = views(result)
        finally:
            vector.MONITORED_CHUNK_ROWS = chunk_rows
        for fault, spec in FAULTS.items():
            result = skew_db.execute(
                skew_db.plan(SKEW_SQL),
                AdaptiveConfig(mode=ReorderMode.BOTH),
                fault_plan=FaultPlan(specs=(spec,)),
                obs=arm(),
            )
            out[f"{prefix}/skew/{fault}"] = views(result)
        for check, arming in STATIC_CHECKS.items():
            for run in ("first", "again"):
                result = skew_db.execute(
                    skew_db.plan(SKEW_SQL),
                    AdaptiveConfig(mode=ReorderMode.NONE),
                    obs=arm(),
                    **arming(),
                )
                out[f"{prefix}/skew/none-{check}/{run}"] = views(result)
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("store", STORES)
def test_observed_runs_report_what_the_golden_capture_holds(golden, store):
    got = capture(store)
    want = {case: data for case, data in golden.items() if case.startswith(store)}
    assert list(got) == list(want)
    for case, data in want.items():
        for view, value in got[case].items():
            assert digest(value) == data[view], (case, view)
    # Not vacuous: checks, applied switches, a fault retry and a
    # degradation are among the pinned views; the row store resumes a
    # frozen driving scan.
    events = [event for data in got.values() for event in data["events"]]
    kinds = {(name, attrs.get("event")) for name, _, attrs in events}
    assert {
        ("reorder-check", None),
        ("adaptation", "driving-switch"),
        ("adaptation", "degraded"),
        ("fault-retry", None),
        ("leg-flow", None),
    } <= kinds
    # Each fault case of a static run retried, on each run and bundle.
    retried = [
        case
        for case, data in got.items()
        if "/none-" in case
        and any(name == "fault-retry" for name, _, _ in data["events"])
    ]
    assert len(retried) == 2 * 2 * len(BUNDLES)
    resumed = [a for name, _, a in events if name == "leg-open" and a["resumed"]]
    assert bool(resumed) == (store == "row")


if __name__ == "__main__" and "--write" in sys.argv:
    captured = {}
    for store in STORES:
        for case, data in capture(store).items():
            captured[case] = {view: digest(value) for view, value in data.items()}
    GOLDEN.write_text(json.dumps(captured, indent=0) + "\n")
    print(f"{len(captured)} cases written to {GOLDEN}")
