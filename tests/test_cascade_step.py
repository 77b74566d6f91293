"""The cascade's step: each leg reads only the arrays it needs, a chunk's
rows leave as one list, and the engine stays the oracle, field by field.

A unique kernel keeps each key's one passing RID (``_Kernel.first_rids``:
-1 where no row passes and in both padding slots), so a unique step is one
gather, a compare and ``nonzero``; an untested kernel's zero evals and a key
index's one-entry totals are never gathered; the cascade yields one list of
rows per chunk, which ``run_to_completion`` extends and ``rows()`` streams.
Pinned here:

* the new array (and the two flags beside it) against a brute-force
  reading of the kernel it belongs to — index kernels, restricted kernels
  after driving switches, a hash build's;
* the columnar engine against the row store's scalar oracle through the
  plan cache, executions 1 to 3 of each text: rows in order, every
  WorkMeter field (the physical ones where the engine checked and the
  oracle replays), each leg's flow counters and local counts, the
  invariant oracle's RID tuples — on both grids, a hash-probed, a cyclic
  and driving-switch statements, and under a row budget that ends
  mid-chunk;
* what a repeat static execution no longer calls.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import numpy as np
import pytest

from repro import AdaptiveConfig, BudgetExceeded, ExecutionLimits, ReorderMode
from repro import db as db_module
from repro.dmv import four_table_workload, load_dmv, six_table_workload
from repro.executor import vector
from repro.executor.access import RuntimeLeg, bind_local_tests
from repro.executor.batch import BatchedPipelineExecutor
from repro.executor.pipeline import PipelineExecutor, PipelineRun
from repro.obs.recorder import QueryObservability
from repro.robustness.oracle import InvariantOracle

from tests.test_cyclic_graphs import SQL as CYCLIC, build_cyclic_db
from tests.test_decision_replay import PHYSICAL, Recording, Scripted, held
from tests.test_vector_limits import HASHED, SWITCHING, hand_off_db

SCALE = 0.02
NONE = AdaptiveConfig(mode=ReorderMode.NONE)
BOTH = AdaptiveConfig(mode=ReorderMode.BOTH)
FOUR = [q.sql for q in four_table_workload(queries_per_template=10**9)]
SIX = [q.sql for q in six_table_workload(count=10**9)]
#: Both grids at an even stride.
STATEMENTS = (FOUR + SIX)[::12]


def assert_step_arrays(kernel) -> None:
    """``first_rids``, ``untested`` and ``one_entry`` as the kernel's own
    arrays say, key by key."""
    counts = kernel.counts.tolist()
    offsets = kernel.pass_offsets.tolist()
    rids = kernel.pass_rids.tolist()
    assert kernel.unique == (max(counts) <= 1)
    if kernel.unique:
        first = kernel.first_rids.tolist()
        assert len(first) == len(counts)
        assert first[-2:] == [-1, -1]  # rank -1 (NULL) and -2 (missing)
        for j, count in enumerate(counts):
            assert first[j] == (rids[offsets[j]] if count == 1 else -1), j
        assert not kernel.first_rids.flags.writeable
        assert any(array is kernel.first_rids for array in kernel.arrays())
    else:
        assert kernel.first_rids is None
    assert kernel.untested == (not any(kernel.evals.tolist()))
    assert kernel.one_entry == all(
        total == 1 for total in kernel.totals[:-2].tolist()
    )


def index_kernels(db) -> list:
    catalog = db.catalog
    return [
        kernel
        for name in catalog.table_names()
        for index in catalog.indexes_of(name).values()
        for kernel in index._kernels.values()
    ]


# ---------------------------------------------------------------------------
# The first-RID array
# ---------------------------------------------------------------------------
def test_every_index_kernel_of_both_grids():
    db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    for sql in FOUR + SIX:
        db.execute(sql, NONE)
    kernels = index_kernels(db)
    for kernel in kernels:
        assert_step_arrays(kernel)
    unique = [kernel for kernel in kernels if kernel.unique]
    assert unique and len(unique) < len(kernels)  # both kinds
    # A key the index holds whose rows all fail the locals gathers -1 too.
    assert any(
        ((kernel.totals[:-2] > 0) & (kernel.counts[:-2] == 0)).any()
        for kernel in unique
    )
    assert any(kernel.untested for kernel in kernels)
    assert any(kernel.one_entry for kernel in kernels)


@pytest.fixture(scope="module")
def switching_pair():
    """(row, columnar) at the scale where SWITCHING statements switch."""
    return tuple(
        load_dmv(scale=0.04, extended=True, backend=backend)[0]
        for backend in ("row", "columnar")
    )


def test_restricted_kernels_after_driving_switches(monkeypatch):
    """The positional kernel a driving switch puts the frozen leg behind
    derives its own first RIDs (a restriction can make a key lose its row),
    and so does any restriction of a unique kernel."""
    made = []
    positional_kernel = vector._positional_kernel

    def keeping(*args):
        made.append(positional_kernel(*args))
        return made[-1]

    monkeypatch.setattr(vector, "_positional_kernel", keeping)
    # No plan cache: every execution monitors, none runs a lesson.
    db, _ = load_dmv(
        scale=0.04, extended=True, backend="columnar", plan_cache_size=0
    )
    switches = 0
    for number in SWITCHING:
        switches += db.execute(FOUR[number], BOTH).stats.driving_switches
    assert switches and made
    for kernel in made:
        assert_step_arrays(kernel)
    assert any(kernel.unique for kernel in made)

    rng = random.Random(35)
    for base in index_kernels(db):
        if not base.unique:
            continue
        keep = np.array(
            [rng.random() < 0.5 for _ in range(len(base.pass_rids))], dtype=bool
        )
        kernel = base.restricted(keep)
        assert_step_arrays(kernel)
        assert kernel.unique and kernel.first_rids is not base.first_rids


def test_a_hash_build_shares_its_base_kernels_first_rids():
    db = hand_off_db("columnar")
    table = db.catalog.table("B")
    plan = db.plan("SELECT b.cid FROM A a, B b WHERE b.aid = a.id AND b.cid < 3000")
    for local_tests in ((), bind_local_tests(plan.legs["b"], table)):
        build = table.hash_build("cid", local_tests)
        base = build.index.cascade_groups(local_tests)
        kernel = build.kernel
        assert_step_arrays(kernel)
        assert kernel.unique and kernel.untested
        assert kernel.first_rids is base.first_rids


# ---------------------------------------------------------------------------
# The engine against the oracle
# ---------------------------------------------------------------------------
@pytest.fixture
def executors(monkeypatch):
    """Every executor that runs from here on, in order: either machine's
    run is accounted by the run both share."""
    seen = []
    accounted = PipelineRun._accounted

    def keeping(self, run):
        seen.append(self)
        return accounted(self, run)

    monkeypatch.setattr(PipelineRun, "_accounted", keeping)
    return seen


@pytest.fixture
def recordings(monkeypatch):
    """The controller of every monitored ``Database.execute`` from here on,
    keeping what it applied (``Recording.script``)."""
    kept = []

    class Kept(Recording):
        def __init__(self, config) -> None:
            super().__init__(config)
            kept.append(self)

    monkeypatch.setattr(db_module, "AdaptationController", Kept)
    return kept


def leg_facts(executor) -> dict:
    """Each leg's flow counters and local counts (a run that monitors
    nothing keeps none: an observed static engine run counts its flow
    without legs, an unobserved one not at all)."""
    return {
        alias: (
            flow.rows_in,
            flow.index_matches,
            flow.rows_out,
            flow.rows_scanned,
            flow.rows_survived,
            [list(counts) for counts in getattr(flow, "local_counts", ())],
        )
        for alias, flow in executor.flows.items()
    }


def assert_static_alike(row_db, columnar_db, sql, executors):
    """Executions 1 to 3 of *sql* in mode NONE on both stores, the third
    with the invariant oracle armed."""
    for execution in (1, 2, 3):
        armed = execution == 3
        want = row_db.execute(sql, NONE, oracle=armed)
        oracle = executors[-1]
        # Observed: an unobserved static run counts no flow.
        got = columnar_db.execute(
            sql, NONE, oracle=armed, obs=QueryObservability()
        )
        engine = executors[-1]
        where = (execution, sql)
        assert (want.stats.engine, got.stats.engine) == ("scalar", "vector"), where
        assert got.rows == want.rows, where
        assert asdict(got.stats.work) == asdict(want.stats.work), where
        assert leg_facts(engine) == leg_facts(oracle), where
        if armed:
            assert got.oracle.signatures == want.oracle.signatures, where
            assert got.oracle.emits == len(got.rows), where


def assert_adaptive_replays(
    row_db, columnar_db, sql, executors, recordings
) -> tuple[int, int]:
    """Executions 1 to 3 of *sql* in mode BOTH on the engine, the first with
    the invariant oracle armed, then each replayed on the row store's
    scalar oracle: the plan the engine ran, under the decisions it applied.
    Returns ``(driving switches applied, executions that ran a learned
    plan)``."""
    runs = []
    for execution in (1, 2, 3):
        recordings.clear()
        result = columnar_db.execute(
            sql, BOTH, oracle=execution == 1, obs=QueryObservability()
        )
        script = recordings[0].script if recordings else []
        runs.append((execution, result, executors[-1], script))
    switches = learned = 0
    for execution, result, engine, script in runs:
        where = (execution, sql)
        scripted = Scripted(script)
        oracle = PipelineExecutor(
            engine.plan,
            row_db.catalog,
            engine.config,
            scripted,
            oracle=InvariantOracle() if result.oracle is not None else None,
        )
        scripted.pipeline = oracle
        assert oracle.run_to_completion() == result.rows, where
        assert not scripted.script, where
        if engine.config.mode.monitors:
            for field in PHYSICAL:
                assert getattr(oracle.work, field) == getattr(
                    result.stats.work, field
                ), (where, field)
        else:  # a learned plan, run static: nothing checks
            assert asdict(oracle.work) == asdict(result.stats.work), where
        assert oracle.order_history == engine.order_history, where
        assert leg_facts(engine) == leg_facts(oracle), where
        if result.oracle is not None:
            assert result.oracle.signatures == oracle.oracle.signatures, where
        switches += engine.driving_switches
        learned += result.stats.plan_feedback is not None
    return switches, learned


@pytest.fixture(scope="module")
def grid_pair():
    return tuple(
        load_dmv(scale=SCALE, extended=True, backend=backend)[0]
        for backend in ("row", "columnar")
    )


def test_static_grids_equal_the_oracle(grid_pair, executors):
    for sql in STATEMENTS:
        assert_static_alike(*grid_pair, sql, executors)


def test_adaptive_grids_replay_on_the_oracle(grid_pair, executors, recordings):
    learned = 0
    for sql in STATEMENTS:
        learned += assert_adaptive_replays(
            *grid_pair, sql, executors, recordings
        )[1]
    assert learned == 2 * len(STATEMENTS)  # executions 2 and 3 of each


@pytest.mark.parametrize(
    "build, sql",
    [
        pytest.param(hand_off_db, HASHED, id="hashed"),
        pytest.param(
            lambda backend: build_cyclic_db(backend=backend), CYCLIC, id="cyclic"
        ),
    ],
)
def test_hashed_and_cyclic_statements(build, sql, executors, recordings):
    row_db, columnar_db = build("row"), build("columnar")
    assert_static_alike(row_db, columnar_db, sql, executors)
    assert_adaptive_replays(row_db, columnar_db, sql, executors, recordings)
    work = columnar_db.execute(sql, NONE).stats.work
    if sql is HASHED:
        assert work.hash_probes > 0  # B is probed through its hash build
    else:
        assert work.predicate_evals > 0  # the residual join is a mask


def test_switching_statements_replay_on_the_oracle(
    switching_pair, executors, recordings
):
    switches = 0
    for number in SWITCHING:
        switches += assert_adaptive_replays(
            *switching_pair, FOUR[number], executors, recordings
        )[0]
    assert switches >= len(SWITCHING)  # not vacuous


def test_a_row_budget_ends_mid_chunk(grid_pair):
    """``rows()`` streams the chunk's list row by row and stops after
    exactly ``max_rows`` of them, inside the one static slice;
    ``run_to_completion`` raises with the same count."""
    row_db, columnar_db = grid_pair
    cut = 0
    for sql in STATEMENTS:
        want = row_db.execute(sql, NONE).rows
        if len(want) < 3:
            continue
        k = len(want) // 2
        limits = ExecutionLimits(max_rows=k)

        def engine():
            return BatchedPipelineExecutor(
                columnar_db.plan(sql), columnar_db.catalog, NONE, limits=limits
            )

        streaming = engine()
        got, error = held(streaming)
        assert got == want[:k], sql
        assert all(isinstance(row, tuple) for row in got)
        assert error is not None and "row budget" in error.reason, sql
        assert error.rows_emitted == streaming.rows_emitted == k, sql
        collecting = engine()
        with pytest.raises(BudgetExceeded) as raised:
            collecting.run_to_completion()
        assert raised.value.rows_emitted == collecting.rows_emitted == k, sql
        cut += 1
    assert cut >= 10
    # A consumer that stops early still leaves the run accounted for.
    sql = next(sql for sql in STATEMENTS if len(row_db.execute(sql, NONE).rows) > 1)
    partial = BatchedPipelineExecutor(
        columnar_db.plan(sql), columnar_db.catalog, NONE
    )
    rows = partial.rows()
    next(rows)
    rows.close()
    assert partial.work is not None and partial.wall_seconds > 0


# ---------------------------------------------------------------------------
# What a repeat static execution no longer calls
# ---------------------------------------------------------------------------
class Tripwire:
    """Stands in for an array the step must not read."""

    def __getattr__(self, name):
        raise AssertionError(f"an untested kernel's evals were read ({name})")


def test_a_repeat_static_execution_reads_only_what_it_needs(monkeypatch):
    """Through the plan cache on the engine, mode NONE: no
    ``np.flatnonzero``, no read of a test-free kernel's zero evals, no
    scalar leg (whose driving-row generator the walk replaces)."""
    db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    statements = SIX[::10] + FOUR[::20]
    for sql in statements:
        db.execute(sql, NONE)
    untested = 0
    for plan in db.plan_cache.plans():
        template, *_ = plan.__dict__["_prepared"].cascade
        for _, _, kernel, *_ in template:
            if kernel.untested:
                monkeypatch.setattr(kernel, "evals", Tripwire())
                untested += 1
    assert untested  # not vacuous
    calls = {"flatnonzero": 0, "RuntimeLeg": 0}

    def counting(function, name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return counted

    monkeypatch.setattr(np, "flatnonzero", counting(np.flatnonzero, "flatnonzero"))
    monkeypatch.setattr(
        RuntimeLeg, "__init__", counting(RuntimeLeg.__init__, "RuntimeLeg")
    )
    rows = 0
    for sql in statements:
        result = db.execute(sql, NONE)
        assert result.stats.plan_cache == "hit"
        rows += len(result.rows)
    assert rows
    assert calls == {"flatnonzero": 0, "RuntimeLeg": 0}
