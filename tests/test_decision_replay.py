"""The engine against the scalar oracle replaying the engine's decisions.

The paper's correctness argument (Sec 4.1 depleted state, Sec 4.2 frozen
scan positions) is about *what* a reorder does, not *when* it fires: any
schedule of legal switches returns every result row once. So the engine
(the columnar cascade, which decides at chunk boundaries) is held to the
oracle (the row store's scalar machine) by handing the oracle the engine's
own schedule: a recording controller keeps each applied event, a scripted
one applies it before the same driving row. The two must then agree on
the rows in order, the physical work, the final order and every frozen
scan position — whatever the cadence that produced the schedule.

What the monitors saw on the way to those decisions is
``tests/test_vector_fold_equivalence.py``'s job; that no decision moved
between commits, ``tests/test_check_identity.py``'s.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import asdict

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import AdaptiveConfig, BudgetExceeded, ExecutionLimits, ReorderMode
from repro.core.config import HashProbePolicy
from repro.core.controller import AdaptationController
from repro.core.events import EventKind
from repro.dmv import four_table_workload, load_dmv, six_table_workload, templates
from repro.executor import vector
from repro.executor.batch import BatchedPipelineExecutor
from repro.executor.pipeline import PipelineExecutor

from tests.test_cyclic_graphs import build_cyclic_db
from tests.test_vector_limits import hand_off_db

PHYSICAL = (
    "index_descends", "index_entries", "row_fetches", "predicate_evals",
    "rows_emitted",
)
REORDERING = (ReorderMode.BOTH, ReorderMode.INNER_ONLY, ReorderMode.DRIVING_ONLY)


class Recording(AdaptationController):
    """The shipped controller, keeping what it applied: each event with the
    live class selectivities the probes were recompiled under."""

    def __init__(self, config: AdaptiveConfig) -> None:
        super().__init__(config)
        self.script: list = []

    def _keep(self, seen: int) -> None:
        for event in self.pipeline.events[seen:]:
            self.script.append((event, dict(self.pipeline.class_selectivities)))

    def on_suffix_depleted(self, position: int) -> None:
        seen = len(self.pipeline.events)
        super().on_suffix_depleted(position)
        self._keep(seen)

    def on_pipeline_depleted(self) -> bool:
        seen = len(self.pipeline.events)
        switched = super().on_pipeline_depleted()
        self._keep(seen)
        return switched


class Scripted:
    """Decides nothing: applies a recorded script, each event before the
    driving row the recorded run applied it before."""

    def __init__(self, script) -> None:
        self.script = deque(script)
        self.pipeline: PipelineExecutor | None = None

    def on_suffix_depleted(self, position: int) -> None:
        return None

    def on_pipeline_depleted(self) -> bool:
        pipeline = self.pipeline
        switched = False
        while (
            self.script
            and self.script[0][0].driving_rows_produced
            == pipeline.driving_rows_total
        ):
            event, selectivities = self.script.popleft()
            assert tuple(pipeline.order) == event.old_order
            pipeline.class_selectivities = dict(selectivities)
            if event.kind is EventKind.DRIVING_SWITCH:
                pipeline.apply_driving_switch(list(event.new_order))
                switched = True
            else:
                pipeline.apply_inner_order(
                    event.position, list(event.new_order[event.position:])
                )
        return switched


def frozen_positions(executor: PipelineExecutor) -> dict:
    scans = {alias: executor.registry.frozen_scan(alias) for alias in executor.order}
    return {
        alias: (scan.order.describe(), scan.position)
        for alias, scan in scans.items()
        if scan is not None
    }


def machines(row_db, columnar_db, sql, config, order=None, limits=None):
    """``(engine executor, start the oracle)``: the cascade over the columnar
    store under a recording controller, and — once it ran — the scalar
    machine over the row store under that recording."""

    def plan(db):
        planned = db.plan(sql)
        return planned if order is None else planned.with_order(order)

    recording = Recording(config)
    engine = BatchedPipelineExecutor(
        plan(columnar_db), columnar_db.catalog, config, recording, limits=limits
    )
    recording.attach(engine)

    def start_oracle():
        assert [event for event, _ in recording.script] == engine.events
        scripted = Scripted(recording.script)
        oracle = PipelineExecutor(
            plan(row_db), row_db.catalog, config, scripted, limits=limits
        )
        scripted.pipeline = oracle
        return oracle, scripted

    return engine, start_oracle


def assert_replays(row_db, columnar_db, sql, config, order=None, tag=""):
    """Run *sql* on the columnar engine under *config*, replay its applied
    decisions on the row store's scalar oracle, and hold the two equal.

    Returns ``(rows, engine executor, oracle executor)``. The script is
    applied between driving rows, which is where the cascade decides; a run
    its gates put on the scalar machine may also have reordered mid-row
    (position >= 2), and is then not replayed: the oracle comes back None.
    """
    engine, start_oracle = machines(row_db, columnar_db, sql, config, order)
    rows = engine.run_to_completion()
    if any(event.position > 1 for event in engine.events):
        return rows, engine, None
    oracle, scripted = start_oracle()
    assert oracle.run_to_completion() == rows, tag  # in order
    assert not scripted.script, tag  # every decision found its driving row
    for field in PHYSICAL:
        assert getattr(oracle.work, field) == getattr(engine.work, field), (
            tag, field,
        )
    assert oracle.order == engine.order, tag
    assert oracle.order_history == engine.order_history, tag
    assert frozen_positions(oracle) == frozen_positions(engine), tag
    return rows, engine, oracle


def held(executor) -> tuple[list, BudgetExceeded | None]:
    """The rows the caller holds when the run ends, and what ended it."""
    rows = []
    try:
        for row in executor.rows():
            rows.append(row)
    except BudgetExceeded as error:
        return rows, error
    return rows, None


def assert_budget_cuts_alike(row_db, columnar_db, sql, config, rows, k, tag=""):
    """``max_rows=k`` on both machines, *rows* being the unlimited run's:
    the engine emits the admitted head of the chunk the budget cuts, the
    oracle stops before row ``k + 1`` — the same first *k* rows, the same
    ``BudgetExceeded.rows_emitted``."""
    engine, start_oracle = machines(
        row_db, columnar_db, sql, config, limits=ExecutionLimits(max_rows=k)
    )

    def assert_cut(executor):
        got, error = held(executor)
        assert got == rows[:k], tag
        assert error is not None and "row budget" in error.reason, tag
        assert error.rows_emitted == executor.rows_emitted == k, tag

    assert_cut(engine)
    oracle, scripted = start_oracle()
    assert_cut(oracle)
    assert not scripted.script, tag


# ---------------------------------------------------------------------------
# Both template grids
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def dmv():
    """(row, columnar) at scale 0.02. The plan caches stay on: executors
    are driven by hand here, so no run writes plan feedback, and a
    statement is planned once per store however many modes run it."""
    return tuple(
        load_dmv(scale=0.02, extended=True, backend=backend)[0]
        for backend in ("row", "columnar")
    )


GRID = [
    query.sql
    for query in (
        four_table_workload(queries_per_template=10**9)
        + six_table_workload(count=10**9)
    )
]


@pytest.mark.parametrize("chunk_rows,stride", [(32, 1), (16, 8), (7, 8)])
def test_grid_statements_replay(dmv, chunk_rows, stride, monkeypatch):
    """Every statement of both grids (every eighth at the small chunk
    sizes) in the three reordering modes: zero mismatches, on the cascade
    from the first row to the last, across hundreds of switches."""
    assert len(GRID) == 696
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", chunk_rows)
    events = switches = 0
    for number, sql in enumerate(GRID[::stride]):
        for mode in REORDERING:
            config = AdaptiveConfig(mode=mode)
            tag = f"#{number * stride} {mode.name} chunk={chunk_rows}"
            _, engine, oracle = assert_replays(*dmv, sql, config, tag=tag)
            assert engine.engine_used == "vector-adaptive", tag
            assert engine.vector_gate_reason is None and oracle is not None
            events += len(engine.events)
            switches += engine.driving_switches
    # Not vacuous. A finished scan applies nothing, so what is replayed
    # was decided mid-scan: first chunks of 32 on every statement give 321
    # switches among 715 events (a first chunk of 256 is the whole scan of
    # most statements at this scale: 24 events, no switch).
    assert switches >= 100 // stride and events >= 400 // stride


def test_hand_off_statement_replays():
    """A driving switch rebuilds the plan into a shape the gates refuse
    (``B`` hash-probed once ``C`` drives): the cascade hands its cursors
    to the scalar machine at that chunk boundary, and the whole run —
    both sides of the hand-off — replays on the oracle."""
    sql = (
        "SELECT a.id, b.cid, c.id FROM A a, B b, C c WHERE b.aid = a.id "
        "AND b.cid = c.id AND c.flag = 1 AND a.x >= 0"
    )
    config = AdaptiveConfig(
        mode=ReorderMode.BOTH, check_frequency=2, switch_benefit_threshold=0.0,
        hash_probe_policy=HashProbePolicy.FALLBACK,
    )
    _, engine, oracle = assert_replays(
        hand_off_db("row"), hand_off_db("columnar"), sql, config
    )
    assert engine.engine_used == "scalar" and engine.driving_switches >= 1
    assert engine.vector_gate_reason.endswith("hash-probed or uncompiled access")
    assert oracle is not None and oracle.rows_emitted > 0


# ---------------------------------------------------------------------------
# Generated queries
# ---------------------------------------------------------------------------
def _eq(column, values):
    return [f"{column} = {value!r}" for value in values]


def _between(column, ranges):
    return [f"{column} BETWEEN {low} AND {high}" for low, high in ranges]


#: schema -> (alias -> (table, projected column), join edges, alias -> local
#: predicates). An edge is ``(left, right, unless)``: stated unless the alias
#: *unless* is joined too. The DMV locals are the templates' columns and
#: value pools plus a single-row leg (``o.id = 17``) and an empty result
#: (``d.salary < 0``); the hand-off schema adds the shape the mask compiler
#: refuses (``a.big``: a boxed column) and a join column with no index
#: (``b.cid``: scanned per probe, or hash-probed under FALLBACK); the
#: absent-keys schema joins on columns holding NULLs and keys the probed
#: index does not have (the kernels' two padding slots).
SCHEMAS = {
    "dmv": (
        {"o": ("Owner", "id"), "c": ("Car", "id"), "d": ("Demographics", "age"),
         "a": ("Accidents", "id"), "l": ("Location", "id"), "t": ("Time", "id")},
        # Owner / Car / Demographics: two edges state the triangle, the
        # ownerid equivalence class derives the third.
        [("c.ownerid", "o.id", None), ("o.id", "d.ownerid", None),
         ("c.ownerid", "d.ownerid", "o"), ("c.id", "a.carid", None),
         ("a.locationid", "l.id", None), ("a.timeid", "t.id", None)],
        {
            "o": _eq("o.country1", templates.COUNTRIES1)
            + _eq("o.country3", [code for code, _ in templates.COUNTRY3_CITY])
            + _eq("o.city", templates.CITIES) + ["o.id = 17"],
            "c": _eq("c.make", templates.SINGLE_MAKES)
            + _eq("c.model", templates.MODELS)
            + _between("c.year", templates.YEAR_RANGES)
            + [f"(c.make = {a!r} OR c.make = {b!r})" for a, b in templates.MAKE_PAIRS],
            "d": [f"d.salary < {cut}" for cut in templates.SALARY_CUTS]
            + _between("d.salary", templates.SALARY_BANDS)
            + [f"d.age < {cut}" for cut in templates.AGE_CUTS] + ["d.salary < 0"],
            "a": [f"a.damage > {cut}" for cut in templates.DAMAGE_CUTS]
            + _eq("a.year", templates.ACCIDENT_YEARS)
            + [f"a.year >= {year}" for year in templates.ACCIDENT_MIN_YEARS],
            "l": _eq("l.state", templates.STATES) + ["l.urban = 1"],
            "t": _eq("t.year", templates.TIME_YEARS_POOL)
            + _eq("t.month", templates.MONTHS),
        },
    ),
    # Sec 4.3.4: a cycle on distinct column pairs (no class collapses it).
    "cycle": (
        {"a": ("T1", "pay"), "b": ("T2", "m"), "c": ("T3", "j")},
        [("a.k", "b.k", None), ("a.j", "c.j", None), ("b.m", "c.m", None)],
        {"a": ["a.k < 10", "a.j >= 5"], "b": ["b.m < 12", "b.k = 3"],
         "c": ["c.j BETWEEN 2 AND 15", "c.m < 0"]},
    ),
    "hand-off": (
        {"a": ("A", "id"), "b": ("B", "cid"), "c": ("C", "id")},
        [("b.aid", "a.id", None), ("b.cid", "c.id", None)],
        {"a": ["a.x >= 3", "a.x = 5", "a.big >= 10", "a.id < 40"],
         "b": ["b.cid < 900", "b.aid >= 1500"],
         "c": ["c.flag = 1", "c.id = 400", "c.id < 0", "c.id >= 1000"]},
    ),
    "absent-keys": (
        {"s": ("src", "tag"), "d": ("dst", "tag"), "f": ("far", "tag")},
        [("s.k", "d.k", None), ("s.m", "f.k", None)],
        {"s": ["s.tag >= 0", "s.tag < 100"], "d": ["d.tag < 12", "d.tag >= 2"],
         "f": ["f.tag < 170", "f.tag >= 10"]},
    ),
}


@pytest.fixture(scope="module")
def stores(dmv):
    from tests.test_row_ranks import chain_twins  # it imports this module

    return {
        "dmv": dmv,
        "cycle": tuple(build_cyclic_db(backend=b) for b in ("row", "columnar")),
        "hand-off": tuple(hand_off_db(b) for b in ("row", "columnar")),
        "absent-keys": chain_twins()[::-1],
    }


def generate(schema: str, rng: random.Random) -> str:
    """A connected join over 2-6 of the schema's tables, 0-2 local
    predicates a leg, one column of every leg projected."""
    tables, edges, local_pools = SCHEMAS[schema]
    ends = [{left.split(".")[0], right.split(".")[0]} for left, right, _ in edges]
    chosen = {rng.choice(sorted(tables))}
    for _ in range(rng.randint(1, 5)):
        frontier = set().union(*(pair for pair in ends if pair & chosen)) - chosen
        if frontier:
            chosen.add(rng.choice(sorted(frontier)))
    aliases = sorted(chosen)
    where = [
        f"{left} = {right}"
        for (left, right, unless), pair in zip(edges, ends)
        if pair <= chosen and unless not in chosen
    ]
    for alias in aliases:
        where += rng.sample(local_pools[alias], rng.choice((0, 1, 1, 2)))
    return (
        "SELECT " + ", ".join(f"{a}.{tables[a][1]}" for a in aliases)
        + " FROM " + ", ".join(f"{tables[a][0]} {a}" for a in aliases)
        + " WHERE " + " AND ".join(where)
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    schema=st.sampled_from(["dmv"] * 4 + ["cycle", "hand-off", "absent-keys"]),
    seed=st.integers(min_value=0, max_value=10**6),
    fallback=st.booleans(),
)
# Two sargable locals on one indexed column: the scan's ranges came from
# the second, and the first was taken for the pushed one and never tested.
@example(schema="dmv", seed=84048, fallback=False)
def test_generated_queries_equal_the_oracle(stores, schema, seed, fallback):
    """Engine vs oracle on generated joins: sorted rows in all five modes,
    the full WorkMeter in NONE, the decision replay in the three
    reordering modes — on the cascade, gated off it, and handed off it —
    and, in one of them, a row budget that cuts a chunk."""
    rng = random.Random(seed)
    row_db, columnar_db = stores[schema]
    sql = generate(schema, rng)
    chunk_rows = rng.choice((7, 64, 256))
    knobs = dict(
        check_frequency=rng.choice((2, 10)),
        switch_benefit_threshold=rng.choice((0.0, 0.15)),
        hash_probe_policy=(
            HashProbePolicy.FALLBACK if fallback else HashProbePolicy.OFF
        ),
    )
    cut_mode = rng.choice(REORDERING)
    oracle = row_db.execute(
        row_db.plan(sql),
        AdaptiveConfig(
            mode=ReorderMode.NONE, hash_probe_policy=knobs["hash_probe_policy"]
        ),
    )
    assert oracle.stats.engine == "scalar"
    want = sorted(oracle.rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vector, "MONITORED_CHUNK_ROWS", chunk_rows)
        for mode in ReorderMode:
            config = AdaptiveConfig(mode=mode, **knobs)
            if mode in REORDERING:
                rows, _, replayed = assert_replays(
                    row_db, columnar_db, sql, config, tag=sql
                )
                if mode is cut_mode and replayed is not None and len(rows) > 1:
                    # Any k below the total lands in some chunk's output.
                    k = rng.randrange(1, len(rows))
                    assert_budget_cuts_alike(
                        row_db, columnar_db, sql, config, rows, k, tag=(k, sql)
                    )
            else:
                static = columnar_db.execute(columnar_db.plan(sql), config)
                rows = static.rows
                if mode is ReorderMode.NONE:
                    assert asdict(static.stats.work) == asdict(
                        oracle.stats.work
                    ), sql
            assert sorted(rows) == want, (mode.name, sql)
