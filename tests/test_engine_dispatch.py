"""Which engine runs: one row per dispatch rule.

The store picks the machine: a row database runs the oracle (``scalar``),
a columnar database the engine, for every statement it accepts.
``ExecutionStats.engine`` takes three values — ``scalar``, ``vector``,
``vector-adaptive`` — and ``ExecutionStats.vector_gate`` is always None
(DESIGN.md §4h: the gate table is empty). What checks a run — the
invariant oracle, a fault plan, any controller — runs on the engine; a
hash-probed leg and residual join predicates run on it too; the two type
shapes numpy cannot compare are errors on both stores. Every row is
reached here through ``Database.execute``; no option chooses.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

import pytest

from repro import AdaptiveConfig, Database, ReorderMode
from repro.cli import build_parser
from repro.dmv import four_table_workload, load_dmv, six_table_workload
from repro.errors import QueryError, StorageError
from repro.executor import vector
from repro.executor.batch import BatchedPipelineExecutor
from repro.obs import QueryObservability
from repro.obs.recorder import FlightRecorder
from repro.robustness.faults import FaultPlan
from repro.server.admission import ServerConfig

BOTH = AdaptiveConfig(mode=ReorderMode.BOTH)
STATIC = AdaptiveConfig(mode=ReorderMode.NONE)

JOIN = "SELECT a.id, b.v FROM A a, B b WHERE b.aid = a.id AND a.x >= 1"


def build(
    backend="columnar",
    a_ids=range(50),
    indexes=(("A", "id"), ("A", "x"), ("B", "aid")),
) -> Database:
    """A(id, x, s) 1:4 B(aid, v, s): ``s`` a string column on both sides."""
    db = Database(backend=backend)
    db.create_table("A", [("id", "int"), ("x", "int"), ("s", "string")])
    db.create_table("B", [("aid", "int"), ("v", "int"), ("s", "string")])
    ids = list(a_ids)
    db.insert("A", [(i, n % 7, f"s{n % 5}") for n, i in enumerate(ids)])
    db.insert(
        "B", [(ids[n % len(ids)], n, f"s{n % 3}") for n in range(4 * len(ids))]
    )
    for table, column in indexes:
        db.create_index(table, column)
    db.analyze()
    return db


#: id -> (build() arguments, sql, config, execute kwargs, engine)
CASES = {
    # -- the two machines, nothing in the way ----------------------------
    "oracle": ({"backend": "row"}, JOIN, BOTH, {}, "scalar"),
    "engine-static": ({}, JOIN, STATIC, {}, "vector"),
    "engine-adaptive": ({}, JOIN, BOTH, {}, "vector-adaptive"),
    # One leg: an empty inner plan, the survivors are the rows.
    "single-leg": (
        {}, "SELECT a.id FROM A a WHERE a.x >= 1", BOTH, {}, "vector-adaptive",
    ),
    # Watching a query does not change the machine.
    "observed": (
        {}, JOIN, BOTH, {"obs": QueryObservability.armed}, "vector-adaptive",
    ),
    # Nor does checking it.
    "invariant-oracle": ({}, JOIN, BOTH, {"oracle": True}, "vector-adaptive"),
    "fault-plan": (
        {}, JOIN, BOTH, {"fault_plan": FaultPlan.from_json('{"seed": 1}')},
        "vector-adaptive",
    ),
    # -- what were gates: the cascade runs them ---------------------------
    # No index on B.aid: what an unindexed join column means.
    "hash-probed": (
        {"indexes": (("A", "id"), ("A", "x"))}, JOIN, BOTH, {},
        "vector-adaptive",
    ),
    # No index at all: whichever leg is inner is hash-probed.
    "non-indexed-probe": ({"indexes": ()}, JOIN, BOTH, {}, "vector-adaptive"),
    "residual-join": (
        {},
        "SELECT a.id FROM A a, B b WHERE b.aid = a.id AND b.v = a.x",
        BOTH, {}, "vector-adaptive",
    ),
}

#: id -> (sql, error type, message pattern): what were the two type gates,
#: now errors on both stores (DESIGN.md Sec 2).
REFUSED = {
    # An ordering a column cannot take against its constant's type (the
    # interpreter raised TypeError on the first row; no mask existed).
    "non-vectorizable-locals": (
        "SELECT a.id, b.v FROM A a, B b WHERE b.aid = a.id AND a.s >= 10",
        QueryError, "cannot order string column 's' against 10",
    ),
    # Key domains that do not compare (no rank translation existed).
    "untranslatable-key": (
        "SELECT a.id, b.v FROM A a, B b WHERE b.aid = a.id AND b.s = a.x",
        QueryError, "compares a string column with a number",
    ),
}


@pytest.mark.parametrize("case", [*CASES, *REFUSED])
def test_dispatch(case):
    if case in REFUSED:
        sql, error, message = REFUSED[case]
        for backend in ("row", "columnar"):
            with pytest.raises(error, match=message):
                build(backend).execute(sql, BOTH)
            # An INT past int64 (what once boxed a column) does not load.
            with pytest.raises(StorageError, match="64-bit"):
                build(backend, a_ids=[2**70, *range(1, 50)])
        return
    shape, sql, config, kwargs, engine = CASES[case]
    db = build(**shape)
    kwargs = dict(kwargs)
    recorder = FlightRecorder(capacity=1)
    bundle = recorder.arm(base=kwargs.pop("obs", lambda: None)())
    result = db.execute(sql, config, obs=bundle, **kwargs)
    assert (result.stats.engine, result.stats.vector_gate) == (engine, None)
    # The flight record says what ran: chunk-boundary checks iff the
    # monitored cascade made them.
    record = recorder.finish_query(bundle, result, sql=sql, config=config)
    granularity = "chunk" if engine == "vector-adaptive" else "exact"
    assert record.monitor_granularity == granularity
    assert {d.monitor_granularity for d in record.decisions} <= {granularity}
    # Whatever ran, it returned the oracle's rows: a row twin's — in order
    # and at its every WorkMeter field, run static.
    twin = build(**{**shape, "backend": "row"})
    oracle = twin.execute(sql, STATIC)
    assert oracle.stats.engine == "scalar"
    assert sorted(result.rows) == sorted(oracle.rows) and oracle.rows
    static = db.execute(sql, STATIC, **kwargs)
    assert static.rows == oracle.rows
    assert dataclasses.asdict(static.stats.work) == dataclasses.asdict(
        oracle.stats.work
    )


def test_the_store_picks_the_machine_under_the_default_config():
    """No option set: a columnar database runs the engine, a row database
    the oracle — per-sample windows, no gate — in every mode."""
    sql = six_table_workload(count=10)[0].sql
    columnar, _ = load_dmv(scale=0.01, extended=True, backend="columnar")
    row, _ = load_dmv(scale=0.01, extended=True, backend="row")
    for mode in ReorderMode:
        config = AdaptiveConfig(mode=mode)
        engine = columnar.execute(columnar.plan(sql), config)
        assert engine.stats.engine == (
            "vector-adaptive" if mode.monitors else "vector"
        )
        oracle = row.execute(row.plan(sql), config)
        assert oracle.stats.engine == "scalar"
        assert sorted(engine.rows) == sorted(oracle.rows)
    assert columnar.execute(sql, AdaptiveConfig()).stats.engine == "vector-adaptive"


def test_single_leg_statements_run_the_engine_as_the_oracle():
    """No inner leg: the cascade's inner plan is empty and the driving
    survivors are the rows — in order, at the oracle's work, in every
    mode, and a row budget cuts where the oracle's does."""
    from repro.errors import BudgetExceeded
    from repro.robustness.limits import ExecutionLimits

    columnar, _ = load_dmv(scale=0.02, backend="columnar", plan_cache_size=0)
    row, _ = load_dmv(scale=0.02, backend="row", plan_cache_size=0)
    statements = (
        "SELECT c.id, c.year FROM Car c WHERE c.year >= 2000 AND c.year < 2004",
        "SELECT c.id, c.model FROM Car c WHERE c.make = 'Mazda'",
        "SELECT d.ownerid, d.age FROM Demographics d",
        "SELECT c.make, COUNT(*) FROM Car c WHERE c.year > 1995 "
        "GROUP BY c.make",
    )
    for sql in statements:
        for mode in ReorderMode:
            config = AdaptiveConfig(mode=mode)
            engine = columnar.execute(sql, config)
            oracle = row.execute(sql, config)
            assert engine.stats.engine == (
                "vector-adaptive" if mode.monitors else "vector"
            ), (sql, mode)
            assert engine.rows == oracle.rows and engine.rows, (sql, mode)
            assert engine.stats.total_work == oracle.stats.total_work
        budget = ExecutionLimits(max_rows=7)
        cut = []
        for db in (columnar, row):
            with pytest.raises(BudgetExceeded) as raised:
                db.execute(sql, BOTH, limits=budget)
            cut.append(raised.value.rows_emitted)
        assert cut == [7, 7], (sql, cut)


def test_no_option_chooses_the_machine():
    """The surface, pinned: the next option shows up as a diff here."""
    assert {field.name for field in dataclasses.fields(AdaptiveConfig)} == {
        "mode", "check_frequency", "history_window",
        "switch_benefit_threshold", "warmup_rows",
    }
    assert "engine_batch_size" not in {
        field.name for field in dataclasses.fields(ServerConfig)
    }
    parser = build_parser()
    for command in ("query", "serve"):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--batch-size", "256"])
    parser.parse_args(["serve"])  # the command itself parses


class Inert:
    """A controller ``Database.execute`` never builds."""

    def on_suffix_depleted(self, position):
        return None

    def on_pipeline_depleted(self):
        return False


def test_any_controller_runs_the_engine():
    """The cascade calls a controller only at chunk boundaries and reads
    from the plan, not from its answer, whether it switched — so any
    controller runs the engine, with the reference rows."""
    db = build()
    executor = BatchedPipelineExecutor(db.plan(JOIN), db.catalog, BOTH, Inert())
    reference = db.execute(JOIN, BOTH)
    assert executor.run_to_completion() == reference.rows
    assert executor.engine_used == "vector-adaptive"


def _seen(engine, rows, work, events, history) -> tuple:
    return engine, rows, dataclasses.asdict(work), tuple(events), tuple(history)


def test_arming_a_check_changes_nothing(monkeypatch):
    """Checking a query does not change the machine: an idle fault plan, the
    invariant oracle and a foreign controller each run the engine with the
    disarmed run's rows in order, every WorkMeter field, events and order
    history — over a sample of both grids, at chunks small enough to
    decide mid-scan. The controller's disarmed twin is the executor with
    no controller at all."""
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 16)
    db, _ = load_dmv(scale=0.02, extended=True, backend="columnar")
    sample = six_table_workload(count=10**9)[::25] + four_table_workload(
        queries_per_template=10**9
    )[::33]
    decided = 0
    for query in sample:
        plan = db.plan(query.sql)
        disarmed = db.execute(plan, BOTH)
        decided += len(disarmed.stats.events)
        idle = db.execute(plan, BOTH, fault_plan=FaultPlan(seed=1))
        checked = db.execute(plan, BOTH, oracle=True)
        assert checked.oracle.emits == len(checked.rows)
        for result in (disarmed, idle, checked):
            stats = result.stats
            assert _seen(
                stats.engine, result.rows, stats.work, stats.events,
                stats.order_history,
            ) == _seen(
                "vector-adaptive", disarmed.rows, disarmed.stats.work,
                disarmed.stats.events, disarmed.stats.order_history,
            ), query.sql
        runs = []
        for controller in (None, Inert()):
            executor = BatchedPipelineExecutor(plan, db.catalog, BOTH, controller)
            rows = executor.run_to_completion()
            runs.append(_seen(
                executor.engine_used, rows, executor.work, executor.events,
                executor.order_history,
            ))
        assert runs[0] == runs[1] and runs[0][0] == "vector-adaptive", query.sql
    assert len(sample) == 24 and decided > 0


def test_a_driving_switch_onto_a_hash_probed_leg_stays_on_the_cascade():
    """A driving switch rebuilds the plan with a hash-probed leg (``B``
    once ``C`` drives; see tests/test_vector_limits.py::hand_off_db): the
    cascade builds B's hash table at that chunk boundary and runs the
    query to its end, and the whole run replays on the oracle. (Until the
    cascade ran hash probes it handed its cursors to the scalar machine
    there.)"""
    from tests.test_decision_replay import assert_replays
    from tests.test_vector_limits import hand_off_db

    config = AdaptiveConfig(
        mode=ReorderMode.BOTH, check_frequency=2, switch_benefit_threshold=0.0
    )
    sql = (
        "SELECT a.id, b.cid, c.id FROM A a, B b, C c WHERE b.aid = a.id "
        "AND b.cid = c.id AND c.flag = 1 AND a.x >= 0"
    )
    db = hand_off_db("columnar")
    result = db.execute(sql, config)
    assert (result.stats.engine, result.stats.vector_gate) == (
        "vector-adaptive", None
    )
    assert result.stats.driving_switches >= 1  # switched onto it mid-query
    assert result.stats.work.hash_build_entries > 0
    oracle = hand_off_db("row").execute(sql, STATIC)
    assert oracle.stats.engine == "scalar"
    assert sorted(result.rows) == sorted(oracle.rows) and oracle.rows
    rows, engine, _ = assert_replays(hand_off_db("row"), db, sql, config)
    assert rows == result.rows and engine.driving_switches >= 1


def _lines_matching(pattern: re.Pattern, paths) -> list[str]:
    root = pathlib.Path(__file__).resolve().parent.parent
    hits = []
    for path in paths:
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        try:
            text = path.read_text()
        except UnicodeDecodeError:
            continue
        hits += [
            f"{path.relative_to(root)}:{number}"
            for number, line in enumerate(text.splitlines(), 1)
            if pattern.search(line)
        ]
    return hits


def test_nothing_names_the_deleted_pool_modules():
    """One way to run a query: the intra-query fork pool's two modules and
    the chunk-semantics reference loop are gone, and nothing under src /
    tests / scripts / benchmarks says their names (the pattern is assembled
    so this file does not either). Nor does anything that ships say the
    options that once chose the machine (``benchmarks/e2e`` names them on
    purpose: it filters them by the fields that exist)."""
    root = pathlib.Path(__file__).resolve().parent.parent
    loop = (
        "_run_" + "fast", "probe_batch_" + "fast", "fast_group_" + "records",
        "Driving" + "Shadow", "_refill_" + "(driving|inner)", "_fast_" + "ctx",
        "lookup_rids_" + "batch",
    )
    gone = re.compile(
        "executor" + r".parallel|monitor" + "_merge|" + "|".join(loop)
    )
    everywhere = [
        path
        for top in ("src", "tests", "scripts", "benchmarks")
        for path in (root / top).rglob("*")
    ]
    assert _lines_matching(gone, everywhere) == []
    modules = {path.stem for path in (root / "src/repro/executor").iterdir()}
    assert not modules & {"parallel", "monitor" + "_merge"}

    options = re.compile("batch" + "_size|batch" + "ed=")  # engine_… included
    shipped = [
        path
        for top in ("src", "scripts", "examples")
        for path in (root / top).rglob("*")
    ] + list((root / "benchmarks").glob("bench_*.py"))
    assert _lines_matching(options, shipped) == []
