"""Decide while it matters, learn when it is over, then stop asking.

Two rules of the engine's chunk loop and the memory behind them (DESIGN.md
Sec 4h "The chunk loop", Sec 4j "Plan feedback"):

* a boundary the driving walk reaches with no survivor left applies
  nothing; only a text's first monitored run in its mode still *asks*
  there, and what its checks propose goes to the write-back;
* a monitored chunk is ``MONITORED_CHUNK_ROWS`` long, doubles after every
  boundary that changed nothing, keeps its length across an applied change
  and never exceeds ``STATIC_SLICE_ROWS``; a static plan starts at the
  slice;
* a text is new or learned, per plan-cache entry and mode: a learned text
  runs its lesson as a static plan, and what makes it new again is what
  drops feedback, or a first run in another mode.

``tests/test_plan_feedback.py`` holds who writes feedback and who reads it;
``tests/test_decision_replay.py`` that whatever is applied, whenever, is
what the oracle does with the same decision.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.core.controller
from repro import AdaptiveConfig, ExecutionLimits, ReorderMode, StatisticsLevel
from repro.core.events import EventKind
from repro.dmv import load_dmv, six_table_workload
from repro.errors import BudgetExceeded, ExecutionError
from repro.executor import vector
from repro.optimizer.plancache import MISS
from repro.robustness.faults import FaultPlan, FaultSpec

from tests.test_plan_cache import GRID, SCALE
from tests.test_plan_feedback import BOTH, NONE, SQL, build_flip_db, flip_sql

REORDERING = (ReorderMode.INNER_ONLY, ReorderMode.DRIVING_ONLY, ReorderMode.BOTH)
SIX = [query.sql for query in six_table_workload(count=10**9)]
SLICE = 128  # a cap a scale-0.02 scan reaches from a small first chunk


class Schedule:
    """The chunks one run took: ``(length asked, driving rows produced once
    taken, whether that left the walk without a survivor)`` per take."""

    def __init__(self, monkeypatch) -> None:
        self.takes: list[tuple] = []
        take = vector._DrivingWalk.take

        def recording(walk, limit=None):
            rids = take(walk, limit)
            produced = (self.takes[-1][1] if self.takes else 0) + len(rids)
            if len(rids):
                self.takes.append(
                    (limit, produced, walk.survivors_taken == walk.survivors)
                )
            return rids

        monkeypatch.setattr(vector._DrivingWalk, "take", recording)

    def run(self, db, query, config):
        del self.takes[:]
        return db.execute(query, config)


@pytest.fixture(scope="module")
def first_runs():
    """Plans afresh and keeps nothing: each execution of a text is what its
    first monitored run is — the one that still asks at a finished scan."""
    db, _ = load_dmv(
        scale=SCALE, extended=True, backend="columnar", plan_cache_size=0
    )
    return db


@pytest.mark.parametrize("first_chunk", [7, 64, 256])
def test_finished_scans_apply_nothing_and_chunks_double(
    first_runs, first_chunk, monkeypatch
):
    """Both grids, the three reordering modes: no reorder and no switch is
    applied where its scan had no survivor left, and the chunk lengths are
    ``c, 2c, 4c, ...`` up to the slice, held across an applied change."""
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", first_chunk)
    cap = vector.STATIC_SLICE_ROWS
    if first_chunk < 256:
        monkeypatch.setattr(vector, "STATIC_SLICE_ROWS", cap := SLICE)
    schedule = Schedule(monkeypatch)
    applied = proposed = doubled = held = capped = 0
    for mode in REORDERING:
        config = AdaptiveConfig(mode=mode)
        for sql in GRID[:: 1 if first_chunk == 256 else 3]:
            result = schedule.run(first_runs, sql, config)
            events = result.stats.events
            assert {event.kind for event in events} <= {
                EventKind.INNER_REORDER, EventKind.DRIVING_SWITCH
            }
            changed_at = {event.driving_rows_produced for event in events}
            takes = schedule.takes
            assert not changed_at & {
                produced for _, produced, finished in takes if finished
            }, sql
            assert changed_at <= {produced for _, produced, _ in takes}
            assert takes[0][0] == first_chunk
            for (length, produced, _), (following, _, _) in zip(takes, takes[1:]):
                if produced in changed_at:
                    assert following == length, sql
                    held += 1
                else:
                    assert following == min(2 * length, cap), sql
                    doubled += following > length
                    capped += following == length
            applied += len(events)
            proposed += result.stats.proposed_order is not None
            # What is proposed is for the next execution: this one ended on
            # what it applied.
            assert result.final_order == (
                events[-1].new_order if events else result.plan.order
            )
    assert proposed > 50 and doubled > 100, (proposed, doubled)
    if first_chunk < 256:
        assert applied > 20 and held > 20 and capped > 20, (applied, held, capped)


def test_a_plan_handed_in_asks_nothing_at_a_finished_scan(first_runs):
    """No entry to teach: a one-chunk scan has no check at all, where the
    text's first run pays for two and proposes."""
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    learning = 0
    for sql in SIX[::5]:
        as_text = first_runs.execute(sql, config)
        as_plan = first_runs.execute(first_runs.plan(sql), config)
        assert as_plan.stats.proposed_order is None
        assert as_plan.rows == as_text.rows
        if as_text.stats.events or as_plan.stats.events:
            continue  # longer than one chunk: both decided mid-scan
        checks = as_text.stats.inner_checks + as_text.stats.driving_checks
        assert as_plan.stats.inner_checks + as_plan.stats.driving_checks == 0
        assert as_plan.stats.work.reorder_checks == 0
        assert as_text.stats.work.reorder_checks == checks == 2
        learning += as_text.stats.proposed_order is not None
    assert learning > 10


def test_first_executions_cost_what_the_static_plan_costs(first_runs):
    """The six-table grid, mode BOTH: no switch lands on a finished scan,
    so no statement pays for one (66 of 300 cost > 10% more before)."""
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    static = [first_runs.execute(sql, NONE).stats.total_work for sql in SIX]
    first = [first_runs.execute(sql, config).stats.total_work for sql in SIX]
    assert sum(first) <= 1.005 * sum(static)
    assert not [
        sql for sql, one, planned in zip(SIX, first, static) if one > 1.10 * planned
    ]


# ---------------------------------------------------------------------------
# new -> learned
# ---------------------------------------------------------------------------
def checks(result) -> int:
    return result.stats.inner_checks + result.stats.driving_checks


def test_every_entry_settles_and_a_settled_pass_asks_nothing():
    """Both grids as SQL text, mode BOTH: each statement's first run writes
    its lesson; from the second pass on nothing is asked, nothing applied,
    nothing monitored and nothing written, every pass alike."""
    db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    oracle = [sorted(db.execute(sql, NONE).rows) for sql in GRID]
    static = sum(db.execute(sql, NONE).stats.total_work for sql in GRID)
    first = [db.execute(sql, config) for sql in GRID]
    assert all(result.stats.plan_feedback is None for result in first)
    assert db.plan_cache.stats()["feedback_writes"] == len(GRID)
    passes = [[db.execute(sql, config) for sql in GRID] for _ in range(2)]
    for results in passes:
        for sql, result, rows in zip(GRID, results, oracle):
            assert sorted(result.rows) == rows, sql
            stats = result.stats
            assert stats.plan_feedback is not None, sql
            assert checks(result) == 0 and not stats.events, sql
            assert stats.proposed_order is None
            assert stats.work.monitor_updates == 0
            assert stats.engine == "vector"
    cache = db.plan_cache.stats()
    assert cache["feedback_writes"] == len(GRID)
    assert cache["feedback_hits"] == 2 * len(GRID)
    second, third = passes
    assert [r.stats.work for r in second] == [r.stats.work for r in third]
    assert sum(r.stats.total_work for r in second) <= 0.75 * static
    on_the_optimizers_order = [
        sql
        for sql, one in zip(GRID, first)
        if (one.stats.proposed_order or one.final_order) == one.plan.order
    ]
    assert on_the_optimizers_order
    for sql in on_the_optimizers_order[::10]:
        result = db.execute(sql, config)
        assert result.plan is db.plan(sql)
        assert result.stats.plan_feedback == (result.plan.order, 1)


@pytest.fixture
def flip_db():
    return build_flip_db("columnar")


def test_what_unsettles_an_entry(flip_db):
    """What makes a learned text's next run a first one again: a first run
    in another mode (one lesson an entry), ANALYZE, an insert."""
    first = flip_db.execute(SQL, BOTH)
    assert first.stats.plan_feedback is None and checks(first) > 0
    learned = flip_db.execute(SQL, BOTH)
    assert learned.stats.plan_feedback and checks(learned) == 0
    # A static run neither reads nor moves the lesson.
    flip_db.execute(SQL, NONE)
    assert flip_db.execute(SQL, BOTH).plan is learned.plan

    # A run in another mode starts over, and its lesson is the one kept.
    inner = dataclasses.replace(BOTH, mode=ReorderMode.INNER_ONLY)
    other = flip_db.execute(SQL, inner)
    assert other.stats.plan_feedback is None and checks(other) > 0
    assert other.plan is first.plan
    assert flip_db.execute(SQL, inner).stats.plan_feedback
    again = flip_db.execute(SQL, BOTH)
    assert again.stats.plan_feedback is None  # INNER_ONLY cannot teach BOTH
    assert checks(again) > 0
    assert flip_db.execute(SQL, BOTH).stats.plan_feedback

    # MONITOR_ONLY changes nothing by construction: it learns the plan it
    # ran, for itself alone.
    watch = dataclasses.replace(BOTH, mode=ReorderMode.MONITOR_ONLY)
    flip_db.execute(SQL, watch)
    assert flip_db.execute(SQL, watch).plan is first.plan
    assert flip_db.execute(SQL, BOTH).stats.plan_feedback is None

    for change in (
        lambda db: db.analyze(),
        lambda db: db.insert("Owner", [(99_999, "late", "Germany")]),
    ):
        flip_db.execute(SQL, BOTH)
        assert flip_db.execute(SQL, BOTH).stats.plan_feedback
        change(flip_db)
        result = flip_db.execute(SQL, BOTH)
        assert result.stats.plan_cache == MISS
        assert result.stats.plan_feedback is None and checks(result) > 0


def test_lru_eviction_unsettles():
    db = build_flip_db("columnar", plan_cache_size=1)
    db.execute(SQL, BOTH)
    assert db.execute(SQL, BOTH).stats.plan_feedback
    db.execute(flip_sql(90_000), NONE)  # another statement takes the slot
    result = db.execute(SQL, BOTH)
    assert result.stats.plan_cache == MISS
    assert result.stats.plan_feedback is None and checks(result) > 0
    assert db.plan_cache.stats()["feedback_writes"] == 2


def test_a_feedback_write_unsettles_and_a_mid_scan_change_writes(monkeypatch):
    """A text's first run writes what it changed mid-scan, and its next run
    takes that order through the whole scan statically. Slices of 64 stand
    in for a scan longer than 65,536 survivors: the first run meets the
    Mercedes phase mid-scan and adapts; the learned run takes the same
    slices and asks nothing between them."""
    db = build_flip_db("columnar")
    sql = flip_sql(90_000)
    config = dataclasses.replace(BOTH, mode=ReorderMode.INNER_ONLY)
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 64)
    monkeypatch.setattr(vector, "STATIC_SLICE_ROWS", 64)
    schedule = Schedule(monkeypatch)
    first = schedule.run(db, sql, config)
    assert first.stats.plan_feedback is None
    assert first.stats.events and first.final_order == ("c", "d", "o")
    lesson = first.stats.proposed_order or first.final_order
    assert db.plan_cache.stats()["feedback_writes"] == 1
    learned = schedule.run(db, sql, config)
    assert {length for length, _, _ in schedule.takes} == {64}
    assert len(schedule.takes) > 1
    assert learned.stats.plan_feedback == (lesson, 1)
    assert learned.stats.order_history == (lesson,)
    assert checks(learned) == 0 and learned.stats.engine == "vector"
    assert db.plan_cache.stats()["feedback_writes"] == 1


# ---------------------------------------------------------------------------
# A disturbed run leaves the lesson as it was
# ---------------------------------------------------------------------------
def failing_controller(monkeypatch):
    def blow_up(*args, **kwargs):
        raise ExecutionError("cost model blew up")

    monkeypatch.setattr(repro.core.controller, "decide_driving_switch", blow_up)
    monkeypatch.setattr(repro.core.controller, "decide_inner_order", blow_up)


@pytest.mark.parametrize("state", ["new", "learned", "learned-elsewhere"])
def test_disturbed_runs_leave_the_entry_as_it_was(flip_db, state, monkeypatch):
    """Budget, fault and DEGRADED runs in BOTH write nothing, whatever the
    entry holds: nothing, BOTH's lesson, or another mode's."""
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 64)
    if state == "learned":
        flip_db.execute(SQL, BOTH)
    if state == "learned-elsewhere":
        flip_db.execute(SQL, dataclasses.replace(BOTH, mode=ReorderMode.INNER_ONLY))

    flip_db.plan(SQL)  # planned, not run: the entry is there in every state

    def entry_state():
        entry, _, _ = flip_db.plan_cache.lookup(
            SQL, flip_db.catalog.generation(), None
        )
        return entry.feedback, flip_db.plan_cache.stats()["feedback_writes"]

    before = entry_state()
    assert (before[0] is None, before[1]) == {
        "new": (True, 0), "learned": (False, 1), "learned-elsewhere": (False, 1),
    }[state]
    with pytest.raises(BudgetExceeded):
        flip_db.execute(SQL, BOTH, limits=ExecutionLimits(max_rows=1))
    assert entry_state() == before
    fault = FaultPlan(
        (FaultSpec(site="index-lookup", kind="transient", nth_call=3),), seed=7
    )
    assert not flip_db.execute(SQL, BOTH, fault_plan=fault).stats.degraded
    assert entry_state() == before
    if state != "learned":  # a learned run has no controller to fail
        with monkeypatch.context() as patch:
            failing_controller(patch)
            assert flip_db.execute(SQL, BOTH).stats.degraded
        assert entry_state() == before


def test_same_statistics_new_generation_starts_over():
    """ANALYZE at the same level measures the same numbers: the plans come
    back, what was learned does not — there is nothing to learn again inside
    a generation, and nothing survives one."""
    db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    sql = SIX[0]
    first = db.execute(sql, config)
    for _ in range(4):
        learned = db.execute(sql, config)
        assert learned.stats.plan_feedback and checks(learned) == 0
    db.analyze(level=StatisticsLevel.CARDINALITY)
    again = db.execute(sql, config)
    assert again.stats.plan_feedback is None
    assert again.stats.work == first.stats.work
    assert again.stats.proposed_order == first.stats.proposed_order
    assert db.plan_cache.stats()["feedback_writes"] == 2
