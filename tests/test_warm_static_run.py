"""A warm static execution is its plan's prepared record plus counters.

A repeat mode-NONE execution of a text, and a learned execution (a text's
mode-BOTH runs after the first, which run its lesson as a static plan), run
the cascade straight off the plan's prepared record: they construct no
``RuntimeLeg``, no scan cursor and no ``PositionRegistry`` — neither bare,
nor with a row budget armed, nor with a flight-recorder bundle armed, nor
fully observed (``obs=True``: the trace, the metrics and the final estimate
sample are rendered after the run from the flow counters and the prepared
record's summary), nor under ``EXPLAIN ANALYZE``. An unobserved one builds no ``LegFlow``
either: flow counters exist where something reads them (an observation,
EXPLAIN ANALYZE, a flight recorder). What they return is the row store's
scalar oracle's: rows in order, every ``WorkMeter`` field and, observed,
each leg's flow counters (the oracle's as an observed run's trace reports
them).
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro import AdaptiveConfig, ExecutionLimits, ReorderMode
from repro.core.positions import PositionRegistry
from repro.dmv import load_dmv
from repro.errors import StorageError
from repro.executor.access import LegFlow, RuntimeLeg
from repro.obs.recorder import FlightRecorder, QueryObservability
from repro.robustness.faults import FaultPlan, FaultSpec
from repro.storage.cursor import IndexScanCursor, TableScanCursor

SCALE = 0.02
NONE = AdaptiveConfig(mode=ReorderMode.NONE)
BOTH = AdaptiveConfig(mode=ReorderMode.BOTH)
#: Six tables; its first BOTH run at this scale learns another order.
SQL = (
    "SELECT o.name, a.damage, t.year "
    "FROM Owner o, Car c, Demographics d, Accidents a, Location l, Time t "
    "WHERE c.ownerid = o.id AND o.id = d.ownerid AND c.id = a.carid "
    "AND a.locationid = l.id AND a.timeid = t.id "
    "AND c.make = 'Porsche' AND d.salary < 55000 "
    "AND l.urban = 1 AND t.month = 6 AND a.damage > 10000"
)
#: What each armed run is executed with.
ARMINGS = {
    "bare": lambda: {},
    "row budget": lambda: {"limits": ExecutionLimits(max_rows=10**6)},
    "flight recorder": lambda: {"obs": FlightRecorder().arm()},
    "observed": lambda: {"obs": True},
}
#: :data:`SQL` less its ``Time`` predicate: a statement with rows.
ROWS_SQL = SQL.replace("AND t.month = 6 ", "")
#: What checks a static run without moving it: a fault plan (a transient
#: fault at a site each run consults) or the invariant oracle.
CHECKS = {
    site: lambda site=site: {"fault_plan": FaultPlan(specs=(
        FaultSpec(site=site, kind="transient", nth_call=1),
    )).build()}
    for site in ("index-lookup", "cursor-advance")
}
CHECKS["oracle"] = lambda: {"oracle": True}
#: What a warm static run must not construct.
COUNTED = (
    (RuntimeLeg, "__init__"),
    (TableScanCursor, "__init__"),
    (IndexScanCursor, "__init__"),
    (PositionRegistry, "__init__"),
)
#: What a warm static run builds only when it is observed.
UNOBSERVED = ((LegFlow, "__init__"),)
#: The :data:`ARMINGS` that observe the run.
OBSERVED = ("flight recorder", "observed")
FLOW = ("rows_in", "index_matches", "rows_out", "rows_scanned", "rows_survived")


@pytest.fixture(scope="module")
def dbs():
    row, _ = load_dmv(scale=SCALE, extended=True, backend="row")
    columnar, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    return row, columnar


@pytest.fixture
def built(monkeypatch):
    """Constructions of each :data:`COUNTED` and :data:`UNOBSERVED` class
    from here on."""
    counts = Counter()
    for owner, name in COUNTED + UNOBSERVED:
        function = getattr(owner, name)

        def counting(self, *args, _function=function, _owner=owner, **kwargs):
            counts[_owner.__name__] += 1
            return _function(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return counts


def traced_flows(result) -> dict:
    """Each leg's flow counters as the run's trace reports them."""
    return {
        span.attrs["leg"]: tuple(span.attrs[name] for name in FLOW)
        for span in result.trace.spans
        if span.name == "leg-flow"
    }


@pytest.mark.parametrize("arming", ARMINGS)
@pytest.mark.parametrize("config", [NONE, BOTH], ids=["repeat-none", "learned"])
def test_a_warm_static_run_builds_nothing_per_plan(
    dbs, built, arming, config
):
    row_db, columnar = dbs
    for _ in range(2):  # the plan, its record, the lesson, the record's summary
        columnar.execute(SQL, config, **ARMINGS[arming]())
    built.clear()
    got = columnar.execute(SQL, config, **ARMINGS[arming]())
    observed = arming in OBSERVED
    assert sum(built[owner.__name__] for owner, _ in COUNTED) == 0, dict(built)
    assert observed or built["LegFlow"] == 0, dict(built)
    assert got.stats.engine == "vector"
    assert got.stats.inner_checks + got.stats.driving_checks == 0
    if config is BOTH:
        assert got.stats.plan_feedback is not None
        assert got.plan.order != columnar.plan(SQL).order  # not vacuous
    # The row store's oracle running the same plan: a twin of it, so that
    # the columnar plan keeps its own prepared record.
    twin = dataclasses.replace(got.plan)
    want = row_db.execute(twin, NONE, obs=True)
    assert want.stats.engine == "scalar"
    assert got.rows == want.rows
    assert dataclasses.asdict(got.stats.work) == dataclasses.asdict(
        want.stats.work
    )
    assert got.stats.order_history == want.stats.order_history
    assert got.final_order == want.final_order
    if not observed:
        return
    flows = {
        alias: tuple(getattr(flow, name) for name in FLOW)
        for alias, flow in got.obs.flows.items()
    }
    assert flows == traced_flows(want)
    assert any(rows_in for rows_in, *_ in flows.values())  # not vacuous


def test_a_warm_explain_analyze_builds_nothing_per_plan(dbs, built):
    """EXPLAIN ANALYZE of a warm static run reads the actuals off the flow
    counters and the estimates off the prepared record's summary."""
    _, columnar = dbs
    for _ in range(2):
        columnar.explain_analyze(SQL, NONE)
    built.clear()
    report = columnar.explain_analyze(SQL, NONE)
    assert sum(built[owner.__name__] for owner, _ in COUNTED) == 0, dict(built)
    assert "engine: vector" in report.splitlines()


@pytest.mark.parametrize("check", CHECKS)
def test_a_checked_static_run_builds_nothing_per_plan(dbs, built, check):
    """A repeat static run under a fault plan or the invariant oracle runs
    off the prepared record like an unchecked one, and returns what the
    unchecked run returns: rows in order and every WorkMeter field."""
    _, columnar = dbs
    plain = columnar.execute(ROWS_SQL, NONE)
    armed = CHECKS[check]()
    built.clear()
    got = columnar.execute(ROWS_SQL, NONE, **armed)
    assert sum(built.values()) == 0, dict(built)  # no LegFlow either
    assert got.stats.engine == "vector"
    assert got.rows == plain.rows
    assert dataclasses.asdict(got.stats.work) == dataclasses.asdict(
        plain.stats.work
    )
    # Not vacuous: the fault fired (and was retried), the oracle saw rows.
    if "fault_plan" in armed:
        assert armed["fault_plan"].total_fired == 1
    else:
        assert got.oracle.emits == len(got.rows) > 0


def test_a_persistent_transient_fault_exhausts_the_retries(dbs):
    """A consultation's failed ``fire`` is the retry loop's first attempt:
    a transient fault that never clears is retried ``max_attempts - 1``
    times, each noted in the observation, and then fails the run."""
    _, columnar = dbs
    plan = FaultPlan(specs=(
        FaultSpec(site="cursor-advance", kind="transient", probability=1.0),
    ))
    obs = QueryObservability()
    with pytest.raises(StorageError, match="persisted across 4 attempts"):
        columnar.execute(ROWS_SQL, NONE, fault_plan=plan, obs=obs)
    assert [site for site, _ in obs.retries] == ["cursor-advance"] * 3
