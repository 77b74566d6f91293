"""Which engine runs, and why not the cascade: one row per dispatch rule.

The store picks the machine: a row database runs the oracle (``scalar``,
no gate to name), a columnar database the engine. ``ExecutionStats.engine``
takes three values — ``scalar``, ``vector``, ``vector-adaptive`` — and
``ExecutionStats.vector_gate`` names what kept a columnar-store run on the
scalar machine: a scalar-fallback screen (the run needs per-row visibility)
or the first failed gate of DESIGN.md §4h's table (the shape is one the
kernels do not cover). Every row of both lists is reached here through
``Database.execute``; no option chooses.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

import pytest

from repro import AdaptiveConfig, Database, ReorderMode
from repro.cli import build_parser
from repro.dmv import load_dmv, six_table_workload
from repro.executor.batch import BatchedPipelineExecutor
from repro.obs.observer import QueryObservability
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
    """A(id, x, big) 1:4 B(aid, v); ``big`` holds one value past int64, which
    boxes the column (no mask, no typed key array)."""
    db = Database(backend=backend)
    db.create_table("A", [("id", "int"), ("x", "int"), ("big", "int")])
    db.create_table("B", [("aid", "int"), ("v", "int")])
    ids = list(a_ids)
    db.insert("A", [(i, n % 7, 2**70 if n == 3 else n) for n, i in enumerate(ids)])
    db.insert("B", [(ids[n % len(ids)], n) for n in range(4 * len(ids))])
    for table, column in indexes:
        db.create_index(table, column)
    db.analyze()
    return db


LEG = r"leg '\w+': "

#: id -> (build() arguments, sql, config, execute kwargs, engine, vector_gate
#: pattern)
CASES = {
    # -- the two machines, nothing in the way ----------------------------
    "oracle": ({"backend": "row"}, JOIN, BOTH, {}, "scalar", None),
    "engine-static": ({}, JOIN, STATIC, {}, "vector", None),
    "engine-adaptive": ({}, JOIN, BOTH, {}, "vector-adaptive", None),
    # One leg: an empty inner plan, the survivors are the rows.
    "single-leg": (
        {}, "SELECT a.id FROM A a WHERE a.x >= 1", BOTH, {},
        "vector-adaptive", None,
    ),
    # Watching a query does not change the machine.
    "observed": (
        {}, JOIN, BOTH, {"obs": QueryObservability.armed}, "vector-adaptive",
        None,
    ),
    # -- scalar-fallback screens: the run needs per-row visibility -------
    "invariant-oracle": (
        {}, JOIN, BOTH, {"oracle": True}, "scalar", "invariant oracle armed",
    ),
    "fault-plan": (
        {}, JOIN, BOTH, {"fault_plan": FaultPlan.from_json('{"seed": 1}')},
        "scalar", "fault injection armed",
    ),
    "key-boundary": (
        {}, JOIN,
        AdaptiveConfig(mode=ReorderMode.BOTH, switch_at_key_boundary=True),
        {}, "scalar", "switch_at_key_boundary peeks the live cursor",
    ),
    # -- gates: a shape the kernels do not cover -------------------------
    # No index on B.aid: what an unindexed join column means.
    "hash-probed": (
        {"indexes": (("A", "id"), ("A", "x"))}, JOIN, BOTH, {},
        "scalar", "leg 'b': hash-probed or uncompiled access",
    ),
    # No index at all: whichever leg is inner is hash-probed.
    "non-indexed-probe": (
        {"indexes": ()}, JOIN, BOTH, {}, "scalar",
        LEG + "hash-probed or uncompiled access",
    ),
    "residual-join": (
        {},
        "SELECT a.id FROM A a, B b WHERE b.aid = a.id AND b.v = a.x",
        BOTH, {}, "scalar", LEG + "residual join predicates",
    ),
    "non-vectorizable-locals": (
        {},
        "SELECT a.id, b.v FROM A a, B b WHERE b.aid = a.id AND a.big >= 10",
        BOTH, {}, "scalar", "leg 'a': non-vectorizable local predicates",
    ),
    "untranslatable-key": (
        {"a_ids": [2**70, *range(1, 50)]}, JOIN, BOTH, {},
        "scalar", LEG + "untranslatable key column",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_dispatch(case):
    shape, sql, config, kwargs, engine, gate = CASES[case]
    db = build(**shape)
    kwargs = dict(kwargs)
    recorder = FlightRecorder(capacity=1)
    bundle = recorder.arm(base=kwargs.pop("obs", lambda: None)())
    result = db.execute(sql, config, obs=bundle, **kwargs)
    assert result.stats.engine == engine
    if gate is None:
        assert result.stats.vector_gate is None
    else:
        assert re.fullmatch(gate, result.stats.vector_gate), result.stats.vector_gate
    # The flight record says what ran: chunk-boundary checks iff the
    # monitored cascade made them.
    record = recorder.finish_query(bundle, result, sql=sql, config=config)
    granularity = "chunk" if engine == "vector-adaptive" else "exact"
    assert record.monitor_granularity == granularity
    assert {d.monitor_granularity for d in record.decisions} <= {granularity}
    # Whatever ran, it returned the oracle's rows: a row twin's.
    oracle = build(**{**shape, "backend": "row"}).execute(sql, STATIC)
    assert (oracle.stats.engine, oracle.stats.vector_gate) == ("scalar", None)
    assert sorted(result.rows) == sorted(oracle.rows)


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
        assert (oracle.stats.engine, oracle.stats.vector_gate) == ("scalar", None)
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
            assert engine.stats.vector_gate is None
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
        "switch_benefit_threshold", "switch_at_key_boundary", "warmup_rows",
    }
    assert "engine_batch_size" not in {
        field.name for field in dataclasses.fields(ServerConfig)
    }
    parser = build_parser()
    for command in ("query", "serve"):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--batch-size", "256"])
    parser.parse_args(["serve"])  # the command itself parses


def test_unrecognized_controller_runs_the_scalar_machine():
    """A controller the executor does not know may permute the pipeline
    between chunk boundaries; ``Database.execute`` never builds one."""

    class Inert:
        def on_suffix_depleted(self, position):
            return None

        def on_pipeline_depleted(self):
            return False

    db = build()
    executor = BatchedPipelineExecutor(db.plan(JOIN), db.catalog, BOTH, Inert())
    reference = db.execute(JOIN, BOTH)
    assert executor.run_to_completion() == reference.rows
    assert executor.engine_used == "scalar"
    assert executor.vector_gate_reason == "unrecognized adaptation controller"


def test_mid_query_hand_off_continues_on_the_scalar_machine():
    """A driving switch rebuilds the plan into a shape the gates refuse
    (here a hash-probed leg): the cascade hands its cursors over at that
    chunk boundary and the run ends as ``scalar``, the gate naming the
    refusing leg; see tests/test_vector_limits.py::hand_off_db."""
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
    assert result.stats.engine == "scalar"
    assert re.fullmatch(
        LEG + "hash-probed or uncompiled access", result.stats.vector_gate
    )
    assert result.stats.driving_switches >= 1  # handed off, not gated at the start
    oracle = hand_off_db("row").execute(sql, STATIC)
    assert oracle.stats.engine == "scalar"
    assert sorted(result.rows) == sorted(oracle.rows) and oracle.rows


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
