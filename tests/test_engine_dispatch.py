"""Which engine runs, and why not the cascade: one row per dispatch rule.

``ExecutionStats.engine`` takes three values — ``scalar``, ``vector``,
``vector-adaptive`` — and ``ExecutionStats.vector_gate`` names what kept a
``batched=True`` run on the scalar machine: a scalar-fallback screen (the
run needs per-row visibility) or the first failed gate of DESIGN.md §4h's
table (the shape is one the kernels do not cover). Every row of both lists
is reached here through ``Database.execute``.
"""

from __future__ import annotations

import re

import pytest

from repro import AdaptiveConfig, Database, ReorderMode
from repro.core.config import HashProbePolicy
from repro.executor.batch import BatchedPipelineExecutor
from repro.obs.observer import QueryObservability
from repro.obs.recorder import FlightRecorder
from repro.robustness.faults import FaultPlan
from repro.storage.backend import StorageBackend
from repro.storage.columnar import ColumnarIndex, ColumnarTable
from repro.storage.index import SortedIndex

BOTH = AdaptiveConfig(mode=ReorderMode.BOTH, batched=True)
STATIC = AdaptiveConfig(mode=ReorderMode.NONE, batched=True)

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


def mixed_backend(sorted_indexes: set[tuple[str, str]]) -> StorageBackend:
    """Columnar tables whose named (table, column) indexes are row-store ones."""

    def make_index(name, table, column):
        kind = SortedIndex if (table.name, column) in sorted_indexes else ColumnarIndex
        return kind(name, table, column)

    return StorageBackend("mixed", ColumnarTable, make_index)


LEG = r"leg '\w+': "

#: id -> (database, sql, config, execute kwargs, engine, vector_gate pattern)
CASES = {
    # -- the two semantics, nothing in the way ---------------------------
    "oracle": (build, JOIN, AdaptiveConfig(mode=ReorderMode.BOTH), {}, "scalar", None),
    "engine-static": (build, JOIN, STATIC, {}, "vector", None),
    "engine-adaptive": (build, JOIN, BOTH, {}, "vector-adaptive", None),
    # -- scalar-fallback screens: the run needs per-row visibility -------
    "single-leg": (
        build, "SELECT a.id FROM A a WHERE a.x >= 1", BOTH, {},
        "scalar", "single-leg pipeline",
    ),
    "invariant-oracle": (
        build, JOIN, BOTH, {"oracle": True}, "scalar", "invariant oracle armed",
    ),
    "fault-plan": (
        build, JOIN, BOTH, {"fault_plan": FaultPlan.from_json('{"seed": 1}')},
        "scalar", "fault injection armed",
    ),
    "key-boundary": (
        build, JOIN,
        AdaptiveConfig(
            mode=ReorderMode.BOTH, batched=True, switch_at_key_boundary=True
        ),
        {}, "scalar", "switch_at_key_boundary peeks the live cursor",
    ),
    "hot-observability": (
        build, JOIN, BOTH, {"obs": QueryObservability.armed}, "scalar",
        "hot observability armed",
    ),
    # -- gates: a shape the kernels do not cover -------------------------
    "row-backend": (
        lambda: build("row"), JOIN, BOTH, {}, "scalar", LEG + "row-backend table",
    ),
    "row-backend-static": (
        lambda: build("row"), JOIN, STATIC, {}, "scalar", LEG + "row-backend table",
    ),
    "hash-probed": (
        build, JOIN,
        AdaptiveConfig(
            mode=ReorderMode.BOTH, batched=True,
            hash_probe_policy=HashProbePolicy.ALWAYS,
        ),
        {}, "scalar", LEG + "hash-probed or uncompiled access",
    ),
    "non-indexed-probe": (
        lambda: build(indexes=()), JOIN, BOTH, {}, "scalar", LEG + "non-indexed probe",
    ),
    "residual-join": (
        build,
        "SELECT a.id FROM A a, B b WHERE b.aid = a.id AND b.v = a.x",
        BOTH, {}, "scalar", LEG + "residual join predicates",
    ),
    "non-columnar-index": (
        lambda: build(mixed_backend({("A", "id"), ("B", "aid")})),
        JOIN, BOTH, {}, "scalar", LEG + "non-columnar index",
    ),
    "non-columnar-driving-index": (
        lambda: build(mixed_backend({("A", "x")})),
        "SELECT a.id, b.v FROM A a, B b WHERE b.aid = a.id AND a.x = 1",
        BOTH, {}, "scalar", "leg 'a': non-columnar driving index",
    ),
    "non-vectorizable-locals": (
        build,
        "SELECT a.id, b.v FROM A a, B b WHERE b.aid = a.id AND a.big >= 10",
        BOTH, {}, "scalar", "leg 'a': non-vectorizable local predicates",
    ),
    "untranslatable-key": (
        lambda: build(a_ids=[2**70, *range(1, 50)]), JOIN, BOTH, {},
        "scalar", LEG + "untranslatable key column",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_dispatch(case):
    make_db, sql, config, kwargs, engine, gate = CASES[case]
    db = make_db()
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
    # monitored cascade made them, whatever ``batched`` asked for.
    record = recorder.finish_query(bundle, result, sql=sql, config=config)
    granularity = "chunk" if engine == "vector-adaptive" else "exact"
    assert record.monitor_granularity == granularity
    assert {d.monitor_granularity for d in record.decisions} <= {granularity}
    # Whatever ran, it returned the oracle's rows.
    oracle = db.execute(sql, AdaptiveConfig(mode=ReorderMode.NONE))
    assert oracle.stats.engine == "scalar"
    assert sorted(result.rows) == sorted(oracle.rows)


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
        mode=ReorderMode.BOTH, batched=True, check_frequency=2,
        switch_benefit_threshold=0.0,
        hash_probe_policy=HashProbePolicy.FALLBACK,
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
    oracle = db.execute(sql, AdaptiveConfig(mode=ReorderMode.NONE))
    assert sorted(result.rows) == sorted(oracle.rows) and oracle.rows


def test_nothing_names_the_deleted_pool_modules():
    """One way to run a query: the intra-query fork pool's two modules and
    the chunk-semantics reference loop are gone, and nothing under src /
    tests / scripts / benchmarks says their names (the pattern is assembled
    so this file does not either)."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    loop = (
        "_run_" + "fast", "probe_batch_" + "fast", "fast_group_" + "records",
        "Driving" + "Shadow", "_refill_" + "(driving|inner)", "_fast_" + "ctx",
        "lookup_rids_" + "batch",
    )
    gone = re.compile(
        "executor" + r".parallel|monitor" + "_merge|" + "|".join(loop)
    )
    hits = []
    for top in ("src", "tests", "scripts", "benchmarks"):
        for path in (root / top).rglob("*"):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            try:
                text = path.read_text()
            except UnicodeDecodeError:
                continue
            hits += [
                f"{path.relative_to(root)}:{number}"
                for number, line in enumerate(text.splitlines(), 1)
                if gone.search(line)
            ]
    assert hits == []
    modules = {path.stem for path in (root / "src/repro/executor").iterdir()}
    assert not modules & {"parallel", "monitor" + "_merge"}
