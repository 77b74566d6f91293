"""Execution limits on the vectorized cascade and on what it falls back to.

A limited query runs the same engine as an unlimited one: the cascade
enforces the budgets at its chunk boundaries, and the scalar machine (what
every query runs on the row store, the default ``repro serve``, and what a
columnar-store query runs on a shape the cascade refuses) holds the same
contract from its own safe points. Pinned here:

* the row budget is exact — the caller holds precisely the reference
  run's first ``max_rows`` rows, ``rows_emitted`` says so, and a budget
  equal to the result size does not trip;
* cancellation, deadline and work budget are seen at the next chunk
  boundary, and the exception's ``work_units`` / ``driving_rows`` are the
  executor's own counters at that boundary;
* generous limits change nothing observable — rows in order, WorkMeter,
  adaptation events, engine label — including across a driving switch
  and across a mid-query hand-off to the scalar machine.
"""

from __future__ import annotations

import dataclasses
import types

import pytest

from repro import (
    AdaptiveConfig,
    BudgetExceeded,
    CancellationToken,
    Database,
    ExecutionLimits,
    ReorderMode,
)
from repro.core.controller import AdaptationController
from repro.dmv import four_table_workload, load_dmv, six_table_workload
from repro.executor import vector
from repro.executor.batch import BatchedPipelineExecutor
from repro.executor.pipeline import PipelineExecutor
from repro.robustness import limits as limits_module
from repro.robustness.guard import SandboxedController

SCALE = 0.04
#: (backend, mode, engine that must run, vector_gate it must report). The
#: last row is the row store running the oracle under limits: no cascade
#: was ever asked for, so there is no gate to name.
TARGETS = [
    pytest.param("columnar", ReorderMode.NONE, "vector", None, id="vector"),
    pytest.param(
        "columnar", ReorderMode.BOTH, "vector-adaptive", None,
        id="vector-adaptive",
    ),
    pytest.param("row", ReorderMode.BOTH, "scalar", None, id="row-gated"),
]
#: Slice size the static cascade is shrunk to here, so that a scale-0.04
#: scan spans several slices (the real one, 65,536, holds all of it).
SMALL_SLICE = 64
#: Four-table grid statements whose driving leg switches at this scale
#: (see test_backend_differential.SWITCHING_STATEMENTS).
SWITCHING = (192, 195, 306)


@pytest.fixture(scope="module")
def dbs():
    # No plan cache: a limited run is compared with an unlimited run of the
    # same plan, not with one started from the other's plan feedback.
    pair = {
        backend: load_dmv(
            scale=SCALE, extended=True, backend=backend, plan_cache_size=0
        )[0]
        for backend in ("row", "columnar")
    }
    yield pair


@pytest.fixture(scope="module")
def statements():
    """An even stride over both template grids, plus the switching ones."""
    four = [q.sql for q in four_table_workload(queries_per_template=10**9)]
    six = [q.sql for q in six_table_workload(count=10**9)]
    chosen = [four[i * len(four) // 6] for i in range(6)]
    chosen += [six[i * len(six) // 4] for i in range(4)]
    chosen += [four[number] for number in SWITCHING]
    return chosen


@pytest.fixture
def small_slices(monkeypatch):
    monkeypatch.setattr(vector, "STATIC_SLICE_ROWS", SMALL_SLICE)


def executor_class(db):
    """What ``Database.execute`` builds: the store picks the machine."""
    return (
        BatchedPipelineExecutor
        if db.backend_name == "columnar"
        else PipelineExecutor
    )


class Run:
    """One executor driven row by row, so partial results are kept."""

    def __init__(self, db, sql, config, limits=None, after_first_row=None):
        controller = None
        if config.mode.monitors:
            controller = SandboxedController(AdaptationController(config))
        self.executor = executor_class(db)(
            db.plan(sql), db.catalog, config, controller, limits=limits
        )
        if controller is not None:
            controller.attach(self.executor)
        self.rows: list[tuple] = []
        self.error: BudgetExceeded | None = None
        # rows_emitted as the consumer saw it when the first row arrived:
        # the cascade moves the counter a chunk at a time, so this is the
        # emitted-row count at the first emitting chunk's boundary.
        self.first_boundary = 0
        try:
            for row in self.executor.rows():
                if not self.rows:
                    self.first_boundary = self.executor.rows_emitted
                    if after_first_row is not None:
                        after_first_row()
                self.rows.append(row)
        except BudgetExceeded as error:
            self.error = error

    @property
    def work(self):
        """The executor's own meter delta. The enforcer subtracts running
        totals where this subtracts counters, so the two floats may differ
        in the last digits (reorder checks cost a non-binary fraction)."""
        return pytest.approx(self.executor.work.total_units, rel=1e-9)


def _gate(reason: str | None) -> str | None:
    """A gate reason without the leg it names (that varies by statement)."""
    return None if reason is None else reason.split(": ", 1)[-1]


def reference_rows(dbs, backend, sql, mode) -> list[tuple]:
    """Mode NONE: the scalar oracle on the row store. Mode BOTH: the
    unlimited run of the same configuration on the same store (its rows in
    order are held to the oracle's by tests/test_decision_replay.py)."""
    if not mode.monitors:
        return dbs["row"].execute(sql, AdaptiveConfig(mode=mode)).rows
    return dbs[backend].execute(sql, AdaptiveConfig(mode=mode)).rows


@pytest.mark.parametrize("backend,mode,engine,gate", TARGETS)
def test_row_budget_is_exact(
    dbs, statements, small_slices, backend, mode, engine, gate
):
    config = AdaptiveConfig(mode=mode)
    tripped = beyond_first_chunk = 0
    for sql in statements:
        want = reference_rows(dbs, backend, sql, mode)
        total = len(want)
        if total < 2:
            continue
        boundary = Run(dbs[backend], sql, config).first_boundary
        budgets = {1, total - 1, total}
        if boundary < total:
            # exactly a chunk boundary, and the middle of the next chunk
            budgets |= {boundary, boundary + 1}
            beyond_first_chunk += 1
        for k in sorted(budgets):
            run = Run(dbs[backend], sql, config, ExecutionLimits(max_rows=k))
            tag = f"{mode.name} k={k}/{total}: {sql[:60]}"
            assert run.executor.engine_used == engine, tag
            assert _gate(run.executor.vector_gate_reason) == _gate(gate), tag
            assert run.rows == want[:k], tag
            assert run.executor.rows_emitted == k, tag
            if k == total:
                assert run.error is None, tag
                continue
            tripped += 1
            assert run.error is not None, tag
            assert "row budget" in run.error.reason, tag
            assert run.error.rows_emitted == k, tag
            assert run.error.driving_rows == run.executor.driving_rows_total
            assert run.error.work_units == run.work, tag
    assert tripped and beyond_first_chunk  # not vacuous


@pytest.mark.parametrize("backend,mode,engine,gate", TARGETS)
def test_cancellation_is_seen_at_the_next_chunk(
    dbs, statements, small_slices, backend, mode, engine, gate
):
    config = AdaptiveConfig(mode=mode)
    cut_short = 0
    for sql in statements:
        token = CancellationToken()
        token.cancel("before the first row")
        run = Run(
            dbs[backend], sql, config, ExecutionLimits(cancellation=token)
        )
        assert run.rows == [] and run.error is not None, sql
        assert "before the first row" in run.error.reason
        assert (run.error.rows_emitted, run.error.driving_rows) == (0, 0)
        assert run.error.work_units == 0.0

        want = reference_rows(dbs, backend, sql, mode)
        if not want:
            continue
        token = CancellationToken()
        run = Run(
            dbs[backend], sql, config,
            ExecutionLimits(cancellation=token),
            after_first_row=lambda: token.cancel("consumer gave up"),
        )
        # The chunk in flight is delivered whole (the scalar machine's is
        # one row); nothing after it starts.
        assert run.executor.engine_used == engine, sql
        assert run.error is not None, sql
        assert "consumer gave up" in run.error.reason
        assert run.rows == want[: run.first_boundary], sql
        assert run.error.rows_emitted == run.first_boundary
        cut_short += run.first_boundary < len(want)
    assert cut_short  # some query really was stopped mid-way


@pytest.mark.parametrize("backend,mode,engine,gate", TARGETS)
def test_work_budget_overshoots_by_at_most_one_chunk(
    dbs, statements, small_slices, monkeypatch, backend, mode, engine, gate
):
    config = AdaptiveConfig(mode=mode)
    # Work spent at every safe point (the cascade's chunk boundaries; the
    # scalar machine's driving rows) of the unlimited-in-effect run.
    boundaries: list[float] = []
    check = limits_module.LimitEnforcer.check

    def recording_check(self):
        boundaries.append(
            self.pipeline.catalog.meter.total_units - self._work_floor
        )
        check(self)

    tripped = 0
    for sql in statements:
        boundaries.clear()
        with monkeypatch.context() as patch:
            patch.setattr(limits_module.LimitEnforcer, "check", recording_check)
            full = Run(
                dbs[backend], sql, config,
                ExecutionLimits(max_work_units=1e18),
            )
        assert full.error is None
        spent = list(boundaries)
        if len(spent) < 3:
            continue
        budget = spent[len(spent) // 2] - 0.5  # inside a chunk's work
        run = Run(
            dbs[backend], sql, config,
            ExecutionLimits(max_work_units=budget),
        )
        assert run.executor.engine_used == engine, sql
        assert run.error is not None and "work budget" in run.error.reason
        # Seen at the first boundary past the budget, not a chunk later.
        first_past = next(value for value in spent if value > budget)
        assert run.error.work_units == pytest.approx(first_past, rel=1e-9)
        assert run.error.work_units == run.work, sql
        chunk_work = max(b - a for a, b in zip(spent, spent[1:]))
        assert 0 < run.error.work_units - budget <= chunk_work
        assert run.rows == full.rows[: len(run.rows)]
        assert run.error.rows_emitted == len(run.rows)
        tripped += 1
    assert tripped


@pytest.mark.parametrize("backend,mode,engine,gate", TARGETS)
def test_deadline_is_seen_at_a_chunk_boundary(
    dbs, statements, small_slices, monkeypatch, backend, mode, engine, gate
):
    config = AdaptiveConfig(mode=mode)
    run = Run(
        dbs[backend], statements[0], config,
        ExecutionLimits(timeout_seconds=1e-9),
    )
    assert run.error is not None and "deadline" in run.error.reason
    assert (run.rows, run.error.driving_rows) == ([], 0)

    # A clock that advances one second per reading: the enforcer reads it
    # once when armed (t=1, deadline 3.5) and once per safe point, so the
    # third one (t=4) is the first past the deadline — the cascade's third
    # chunk boundary; within the scalar machine's first ``chunk`` rows.
    chunk = SMALL_SLICE
    if mode.monitors:
        chunk = 16
        monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", chunk)
    expired_mid_scan = 0
    for sql in statements:
        ticks = iter(range(1, 10**6))
        clock = types.SimpleNamespace(perf_counter=lambda: float(next(ticks)))
        with monkeypatch.context() as patch:
            patch.setattr(limits_module, "time", clock)
            run = Run(
                dbs[backend], sql, config,
                ExecutionLimits(timeout_seconds=2.5),
            )
        full = Run(dbs[backend], sql, config)
        # The first two chunks: static slices are all one length; a
        # monitored chunk doubles unless its boundary applied a change.
        two_chunks = 2 * chunk
        if engine == "vector-adaptive" and not any(
            event.driving_rows_produced == chunk
            for event in full.executor.events
        ):
            two_chunks = 3 * chunk
        if full.executor.driving_rows_total <= two_chunks:
            continue  # over in two chunks: the deadline is never read late
        assert run.error is not None and "deadline" in run.error.reason, sql
        if engine == "scalar":
            assert run.error.driving_rows <= chunk, sql
        else:
            assert run.error.driving_rows == two_chunks, sql
        assert run.error.driving_rows == run.executor.driving_rows_total
        assert run.error.rows_emitted == len(run.rows)
        assert run.rows == full.rows[: len(run.rows)], sql
        assert run.error.work_units == run.work
        expired_mid_scan += 1
    assert expired_mid_scan


def served_limits() -> ExecutionLimits:
    """What admission.build_limits arms on every served request."""
    return ExecutionLimits(
        max_rows=100_000,
        timeout_seconds=10.0,
        cancellation=CancellationToken(),
    )


@pytest.mark.parametrize("backend,mode,engine,gate", TARGETS)
def test_generous_limits_change_nothing(
    dbs, statements, backend, mode, engine, gate
):
    config = AdaptiveConfig(mode=mode)
    switches = 0
    for sql in statements:
        free = dbs[backend].execute(sql, config)
        limited = dbs[backend].execute(sql, config, limits=served_limits())
        assert limited.rows == free.rows, sql
        assert dataclasses.asdict(limited.stats.work) == dataclasses.asdict(
            free.stats.work
        ), sql
        assert limited.stats.events == free.stats.events, sql
        assert limited.stats.engine == free.stats.engine == engine, sql
        assert _gate(limited.stats.vector_gate) == _gate(gate)
        switches += limited.stats.driving_switches
    if mode.reorders_driving:
        assert switches >= len(SWITCHING)  # limits held across switches


def test_static_limits_on_a_refused_shape_run_the_scalar_machine():
    """A static plan has nothing to amortize: refused by the cascade, with
    or without limits, it runs the oracle's loop and names the gate — on
    the row store the same loop, and no gate. (C drives, and B's join
    column to it has no index: a hash probe.)"""
    static = AdaptiveConfig(mode=ReorderMode.NONE)
    stores = {backend: hand_off_db(backend) for backend in ("row", "columnar")}
    for limits in (None, served_limits()):
        result = stores["columnar"].execute(HASHED, static, limits=limits)
        assert result.stats.engine == "scalar"
        assert result.stats.vector_gate.endswith(
            "hash-probed or uncompiled access"
        )
        result = stores["row"].execute(HASHED, static, limits=limits)
        assert result.stats.engine == "scalar"
        assert result.stats.vector_gate is None


def hand_off_db(backend: str) -> Database:
    """B has no index on ``cid``: once C drives, B is hash-probed, a shape
    the cascade's gates refuse — it hands the cursors back mid-query. The
    optimizer does not start there: ``C.flag`` has two values, so it
    expects half of C's 6,000 rows to pass ``flag = 1`` and drives the
    1,000-row B; its first chunk shows flagged C rows are rare (1 in 400).
    ``A.big`` holds one value past int64, which boxes the column: a local
    on it is a shape the mask compiler refuses (the generated queries of
    tests/test_decision_replay.py draw it)."""
    db = Database(backend=backend, plan_cache_size=0)  # same plan every run
    db.create_table("A", [("id", "int"), ("x", "int"), ("big", "int")])
    db.create_table("B", [("aid", "int"), ("cid", "int")])
    db.create_table("C", [("id", "int"), ("flag", "int")])
    db.insert("A", [(i, i % 7, 2**70 if i == 3 else i) for i in range(3000)])
    db.insert("B", [(i * 3 % 3000, i * 7 % 6000) for i in range(1000)])
    db.insert("C", [(i, 1 if i % 400 == 0 else 0) for i in range(6000)])
    for table, column in (
        ("A", "id"), ("A", "x"), ("B", "aid"), ("C", "id"), ("C", "flag")
    ):
        db.create_index(table, column)
    db.analyze()
    return db


#: On :func:`hand_off_db`, a statement whose plan hash-probes B from the
#: start: C drives, and B's only join column bound before it is ``cid``.
HASHED = (
    "SELECT a.id, b.cid, c.id FROM A a, B b, C c WHERE b.aid = a.id "
    "AND b.cid = c.id AND c.id < 700"
)


def test_limits_follow_a_hand_off_to_the_scalar_machine():
    from tests.test_decision_replay import assert_replays

    sql = (
        "SELECT a.id, b.cid, c.id FROM A a, B b, C c WHERE b.aid = a.id "
        "AND b.cid = c.id AND c.flag = 1 AND a.x >= 0"
    )
    config = AdaptiveConfig(
        mode=ReorderMode.BOTH, check_frequency=2, switch_benefit_threshold=0.0
    )
    db = hand_off_db("columnar")
    free = db.execute(sql, config)
    assert free.stats.engine == "scalar"
    assert free.stats.vector_gate.endswith("hash-probed or uncompiled access")
    assert free.stats.driving_switches >= 1
    # The oracle applying the same decisions returns the same rows in the
    # same order (``assert_replays`` compares them).
    rows, _, oracle = assert_replays(hand_off_db("row"), db, sql, config)
    assert free.rows == rows and oracle is not None

    limited = db.execute(sql, config, limits=served_limits())
    assert limited.stats.engine == "scalar"
    assert limited.rows == free.rows
    assert limited.stats.work == free.stats.work
    assert limited.stats.events == free.stats.events

    # The first chunk is handed back: every row is emitted by the
    # scalar machine, whose safe points must hold the same budgets.
    hand_off_at = Run(db, sql, config).first_boundary
    assert hand_off_at == 1
    k = len(free.rows) - 2
    run = Run(db, sql, config, ExecutionLimits(max_rows=k))
    assert run.executor.engine_used == "scalar"
    assert run.rows == free.rows[:k]
    assert run.error is not None and run.error.rows_emitted == k
    token = CancellationToken()
    run = Run(
        db, sql, config, ExecutionLimits(cancellation=token),
        after_first_row=lambda: token.cancel("consumer gave up"),
    )
    assert run.error is not None and "consumer gave up" in run.error.reason
    assert len(run.rows) < len(free.rows)
