"""Decide while it matters, learn when it is over, stop asking once known.

Two rules of the engine's chunk loop and the memory behind them (DESIGN.md
Sec 4h "The chunk loop", Sec 4j "Plan feedback"):

* a boundary the driving walk reaches with no survivor left applies
  nothing; only a statement's first monitored run still *asks* there, and
  what its checks propose goes to the write-back;
* a chunk is ``MONITORED_CHUNK_ROWS`` long, doubles after every boundary
  that changed nothing, keeps its length across an applied change and never
  exceeds ``STATIC_SLICE_ROWS``; a settled plan starts at the slice;
* a plan-cache entry is new, learned or settled — per mode — and what
  unsettles it is what drops feedback, a feedback write, or another mode.

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
from repro.optimizer.plancache import MAX_FEEDBACK_WRITES, MISS, PlanCache
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
# new -> learned -> settled
# ---------------------------------------------------------------------------
def test_every_entry_settles_and_a_settled_pass_asks_nothing():
    """Both grids as SQL text, mode BOTH: each statement's first run
    either settles on the optimizer's order or writes what it learned; a
    learned run that changes nothing settles; from the pass after the last
    entry settled nothing is asked and nothing is written."""
    db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    oracle = [sorted(db.execute(sql, NONE).rows) for sql in GRID]
    static = sum(db.execute(sql, NONE).stats.total_work for sql in GRID)
    states: dict[str, list[str]] = {sql: [] for sql in GRID}
    for number in range(8):
        writes = db.plan_cache.stats()["feedback_writes"]
        results = [db.execute(sql, config) for sql in GRID]
        for sql, result, rows in zip(GRID, results, oracle):
            assert sorted(result.rows) == rows, (number, sql)
            stats = result.stats
            states[sql].append(
                "settled" if stats.plan_settled
                else "new" if stats.plan_feedback is None
                else "learned"
            )
            if stats.plan_settled:
                # One slice at this scale: no boundary with a survivor left.
                assert stats.inner_checks + stats.driving_checks == 0, sql
                assert not stats.events and stats.proposed_order is None
                assert stats.engine == "vector-adaptive"
        cache = db.plan_cache.stats()
        if all(result.stats.plan_settled for result in results):
            assert cache["feedback_writes"] == writes
            assert cache["settled"] == cache["size"] == len(GRID)
            break
    else:
        pytest.fail(f"still unsettled after 8 passes: {cache}")
    assert number <= 4
    assert sum(r.stats.total_work for r in results) <= 0.75 * static
    paths = {tuple(dict.fromkeys(path)) for path in states.values()}
    assert paths == {("new", "settled"), ("new", "learned", "settled")}
    # Two orders whose runs each measure the other as the better one trade
    # places until the entry has taken its last lesson (GRID[185] here).
    generation = db.catalog.generation()
    lessons = [
        feedback.writes
        for sql in GRID
        if (feedback := db.plan_cache.lookup(sql, generation, None, True)[2])
    ]
    assert sorted(lessons)[-2:] == [1, MAX_FEEDBACK_WRITES]
    on_the_optimizers_order = [
        sql for sql, path in states.items() if "learned" not in path
    ]
    assert on_the_optimizers_order
    for sql in on_the_optimizers_order[::10]:
        result = db.execute(sql, config)
        assert result.stats.plan_settled and result.stats.plan_feedback is None
        assert result.plan is db.plan(sql)


@pytest.fixture
def flip_db():
    return build_flip_db("columnar")


def settle(db, sql=SQL, config=BOTH) -> int:
    """Run *sql* until its entry is settled for *config*'s mode; the runs
    it took. The settled run itself is left to the caller."""
    for runs in range(1, 6):
        db.execute(sql, config)
        entry, _, _ = db.plan_cache.lookup(sql, db.catalog.generation(), None)
        if entry.settled is config.mode:
            return runs
    raise AssertionError("never settled")


def test_what_unsettles_an_entry(flip_db):
    assert settle(flip_db) == 2  # new (writes), learned (changes nothing)
    settled = flip_db.execute(SQL, BOTH)
    assert settled.stats.plan_settled and settled.stats.plan_feedback
    assert settled.stats.inner_checks + settled.stats.driving_checks == 0
    assert flip_db.plan_cache.stats()["settled"] == 1
    # A static run neither reads nor moves the mark.
    flip_db.execute(SQL, NONE)
    assert flip_db.execute(SQL, BOTH).stats.plan_settled

    # A run in another mode starts over; the mark follows who asked last.
    inner = dataclasses.replace(BOTH, mode=ReorderMode.INNER_ONLY)
    other = flip_db.execute(SQL, inner)
    assert not other.stats.plan_settled
    assert other.stats.plan_feedback == settled.stats.plan_feedback
    assert flip_db.execute(SQL, inner).stats.plan_settled
    again = flip_db.execute(SQL, BOTH)
    assert not again.stats.plan_settled  # INNER_ONLY cannot silence BOTH
    assert again.stats.inner_checks + again.stats.driving_checks > 0
    assert flip_db.plan_cache.stats()["settled"] == 1
    assert flip_db.execute(SQL, BOTH).stats.plan_settled

    # MONITOR_ONLY changes nothing by construction: it settles at once,
    # for itself alone.
    watch = dataclasses.replace(BOTH, mode=ReorderMode.MONITOR_ONLY)
    flip_db.execute(SQL, watch)
    assert flip_db.execute(SQL, watch).stats.plan_settled
    assert not flip_db.execute(SQL, BOTH).stats.plan_settled

    for change in (
        lambda db: db.analyze(),
        lambda db: db.insert("Owner", [(99_999, "late", "Germany")]),
    ):
        settle(flip_db)
        change(flip_db)
        result = flip_db.execute(SQL, BOTH)
        assert result.stats.plan_cache == MISS
        assert not result.stats.plan_settled
        assert result.stats.plan_feedback is None


def test_lru_eviction_unsettles():
    db = build_flip_db("columnar", plan_cache_size=1)
    settle(db)
    assert db.plan_cache.stats()["settled"] == 1
    db.execute(flip_sql(90_000), NONE)  # another statement takes the slot
    assert db.plan_cache.stats()["settled"] == 0
    result = db.execute(SQL, BOTH)
    assert result.stats.plan_cache == MISS and not result.stats.plan_settled


def test_a_feedback_write_unsettles_and_a_mid_scan_change_writes(monkeypatch):
    """A settled plan still checks between slices. Slices of 64 stand in
    for a scan longer than 65,536 survivors, and the optimizer's order is
    settled by hand: the run meets the Mercedes phase mid-scan, adapts,
    and — ending elsewhere — writes back, which unsettles the entry."""
    db = build_flip_db("columnar")
    sql = flip_sql(90_000)
    config = dataclasses.replace(BOTH, mode=ReorderMode.INNER_ONLY)
    db.plan(sql)
    generation = db.catalog.generation()
    entry, _, _ = db.plan_cache.lookup(sql, generation, None)
    assert db.plan_cache.settle(entry, generation, config.mode)
    monkeypatch.setattr(vector, "STATIC_SLICE_ROWS", 64)
    schedule = Schedule(monkeypatch)
    result = schedule.run(db, sql, config)
    assert result.stats.plan_settled and result.stats.plan_feedback is None
    assert {length for length, _, _ in schedule.takes} == {64}
    assert result.stats.proposed_order is None
    assert result.final_order == ("c", "d", "o") != result.plan.order
    cache = db.plan_cache.stats()
    assert (cache["feedback_writes"], cache["settled"]) == (1, 0)
    learned = db.execute(sql, config)
    assert not learned.stats.plan_settled
    assert learned.stats.plan_feedback == (("c", "d", "o"), 1)


def test_a_settle_is_refused_for_a_stale_or_evicted_entry():
    cache = PlanCache(capacity=1)
    entry, _, _ = cache.lookup("a", ("g1",), lambda sql: "plan a")
    assert not cache.settle(entry, ("g2",), ReorderMode.BOTH)
    assert entry.settled is None and cache.stats()["settled"] == 0
    assert cache.settle(entry, ("g1",), ReorderMode.BOTH)
    assert cache.settle(entry, ("g1",), ReorderMode.INNER_ONLY)
    assert entry.settled is ReorderMode.INNER_ONLY
    assert cache.stats()["settled"] == 1
    assert cache.write_feedback(entry, ("g1",), "learned a")
    assert entry.settled is None and cache.stats()["settled"] == 0
    assert cache.settle(entry, ("g1",), ReorderMode.BOTH)
    cache.lookup("a", ("g2",), lambda sql: "plan a, again")  # stale: dropped
    assert cache.stats()["settled"] == 0
    assert not cache.settle(entry, ("g1",), ReorderMode.BOTH)
    replanned, _, _ = cache.lookup("a", ("g2",), None)
    assert cache.settle(replanned, ("g2",), ReorderMode.BOTH)
    cache.lookup("b", ("g2",), lambda sql: "plan b")  # evicts a
    assert cache.stats()["settled"] == 0
    assert not cache.settle(replanned, ("g2",), ReorderMode.BOTH)
    off = PlanCache(capacity=0)
    entry, _, _ = off.lookup("a", ("g1",), lambda sql: "plan")
    assert not off.settle(entry, ("g1",), ReorderMode.BOTH)


# ---------------------------------------------------------------------------
# A disturbed run leaves feedback and mark as they were
# ---------------------------------------------------------------------------
def failing_controller(monkeypatch):
    def blow_up(*args, **kwargs):
        raise ExecutionError("cost model blew up")

    monkeypatch.setattr(repro.core.controller, "decide_driving_switch", blow_up)
    monkeypatch.setattr(repro.core.controller, "decide_inner_order", blow_up)


@pytest.mark.parametrize("state", ["new", "learned", "settled"])
def test_disturbed_runs_leave_the_entry_as_it_was(flip_db, state, monkeypatch):
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 64)
    if state != "new":
        flip_db.execute(SQL, BOTH)
    if state == "settled":
        settle(flip_db)

    flip_db.plan(SQL)  # planned, not run: the entry is there in every state

    def entry_state():
        entry, _, _ = flip_db.plan_cache.lookup(
            SQL, flip_db.catalog.generation(), None
        )
        return entry.feedback, entry.settled, {
            key: value
            for key, value in flip_db.plan_cache.stats().items()
            if key in ("feedback_writes", "settled")
        }

    before = entry_state()
    assert (before[0] is None, before[1]) == {
        "new": (True, None), "learned": (False, None),
        "settled": (False, ReorderMode.BOTH),
    }[state]
    with pytest.raises(BudgetExceeded):
        flip_db.execute(SQL, BOTH, limits=ExecutionLimits(max_rows=1))
    assert entry_state() == before
    fault = FaultPlan(
        (FaultSpec(site="index-lookup", kind="transient", nth_call=3),), seed=7
    )
    assert not flip_db.execute(SQL, BOTH, fault_plan=fault).stats.degraded
    assert entry_state() == before
    if state != "settled":  # a settled run of this scan asks nothing
        with monkeypatch.context() as patch:
            failing_controller(patch)
            assert flip_db.execute(SQL, BOTH).stats.degraded
        assert entry_state() == before


def test_same_statistics_new_generation_starts_over():
    """ANALYZE at the same level measures the same numbers: the plans come
    back, what was learned does not — there is nothing to re-arm inside a
    generation, and nothing survives one."""
    db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    sql = SIX[0]
    first = db.execute(sql, config)
    for _ in range(4):
        db.execute(sql, config)
    assert db.execute(sql, config).stats.plan_settled
    db.analyze(level=StatisticsLevel.CARDINALITY)
    assert db.plan_cache.stats()["settled"] == 1  # stale until looked up
    again = db.execute(sql, config)
    assert db.plan_cache.stats()["settled"] == 0
    assert not again.stats.plan_settled and again.stats.plan_feedback is None
    assert again.stats.work == first.stats.work
    assert again.stats.proposed_order == first.stats.proposed_order
