"""A static run's step program against the row store's scalar oracle.

A plan's prepared record compiles each inner leg's step once: whether it
gathers or expands, whether it can miss at all, how it charges the
meter, where its key sits among the chunk's ancestors and which
ancestors are still read after it (later probe keys, residual outer
aliases, the projection — every alias when the invariant oracle is
armed). Whatever the step program skips must not show: rows in order,
every ``WorkMeter`` field and each leg's flow counters equal the scalar
oracle's, in mode NONE, in mode BOTH (replayed on the oracle under the
decisions the engine applied) and for a learned plan, on

* every statement of both grids, static;
* the invariant oracle armed (every alias's RIDs recorded, and a
  duplicate still caught);
* a chain whose flow empties mid-way;
* a projection that reads only the driving alias.

Cyclic residual joins and a hash-probed leg are held to the oracle the
same way by ``tests/test_cascade_step.py::test_hashed_and_cyclic_statements``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import AdaptiveConfig, ReorderMode
from repro.dmv import four_table_workload, load_dmv, six_table_workload
from repro.errors import OracleViolation
from repro.executor import vector

from tests.test_cascade_step import assert_adaptive_replays, executors, recordings

SCALE = 0.02
NONE = AdaptiveConfig(mode=ReorderMode.NONE)
BOTH = AdaptiveConfig(mode=ReorderMode.BOTH)
FOUR = [q.sql for q in four_table_workload(queries_per_template=10**9)]
SIX = [q.sql for q in six_table_workload(count=10**9)]
FLOW = ("rows_in", "index_matches", "rows_out", "rows_scanned", "rows_survived")

__all__ = ["executors", "recordings"]  # fixtures of assert_adaptive_replays


@pytest.fixture(scope="module")
def pair():
    return tuple(
        load_dmv(scale=SCALE, extended=True, backend=backend)[0]
        for backend in ("row", "columnar")
    )


def flows(result) -> dict:
    """Each leg's flow counters, as an observed run's record holds them."""
    return {
        alias: tuple(getattr(flow, name) for name in FLOW)
        for alias, flow in result.obs.flows.items()
    }


def assert_static_equals_the_oracle(row_db, columnar_db, sql, **armed):
    """*sql*, mode NONE, observed, on the engine and on the row store's
    oracle running a twin of the plan the engine ran."""
    got = columnar_db.execute(sql, NONE, obs=True, **armed)
    twin = dataclasses.replace(got.plan)  # the engine's plan keeps its record
    want = row_db.execute(twin, NONE, obs=True, **armed)
    where = sql
    assert (got.stats.engine, want.stats.engine) == ("vector", "scalar"), where
    assert got.rows == want.rows, where
    assert dataclasses.asdict(got.stats.work) == dataclasses.asdict(
        want.stats.work
    ), where
    assert flows(got) == flows(want), where
    return got, want


def test_every_grid_statement_static_equals_the_oracle(pair):
    row_db, columnar_db = pair
    rows = 0
    for sql in FOUR + SIX:
        columnar_db.execute(sql, NONE)  # a warm run: off the prepared record
        got, _ = assert_static_equals_the_oracle(row_db, columnar_db, sql)
        rows += len(got.rows)
    assert rows  # not vacuous


def test_the_armed_oracle_records_every_alias(pair):
    """A grid projection reads some of the six aliases; the armed oracle
    still gets every alias's RID of every row, the scalar oracle's RID
    tuples."""
    row_db, columnar_db = pair
    checked = 0
    for sql in SIX[::15]:
        got, want = assert_static_equals_the_oracle(
            row_db, columnar_db, sql, oracle=True
        )
        assert got.oracle.signatures == want.oracle.signatures, sql
        assert got.oracle.emits == len(got.rows), sql
        for signature in got.oracle.signatures:
            assert {alias for alias, _ in signature} == set(got.plan.order)
        checked += bool(got.rows)
    assert checked  # not vacuous


def test_the_armed_oracle_still_catches_a_duplicate(pair, monkeypatch):
    """A chunk that emits one joined tuple twice trips the oracle."""
    _, columnar_db = pair
    sql = next(s for s in SIX if columnar_db.execute(s, NONE).rows)
    expand = vector._expand

    def doubling(*args):
        ancestors, flow = expand(*args)
        if flow:
            ancestors = [
                np.concatenate((rids[:flow], rids[:1])) for rids in ancestors
            ]
            flow += 1
        return ancestors, flow

    monkeypatch.setattr(vector, "_expand", doubling)
    with pytest.raises(OracleViolation, match="duplicate output row"):
        columnar_db.execute(sql, NONE, oracle=True)


def test_a_chain_whose_flow_empties_midway(pair, executors, recordings):
    """A leg with rows in and none out, legs after it with none in: the
    step program stops there and charges what the oracle charges."""
    row_db, columnar_db = pair
    emptied = []
    for sql in SIX[::3]:
        got, _ = assert_static_equals_the_oracle(row_db, columnar_db, sql)
        counters = [flows(got)[alias] for alias in got.plan.order[1:]]
        if any(
            rows_in and not rows_out and later[0] == 0
            for (rows_in, _, rows_out, *_), later in zip(counters, counters[1:])
        ):
            emptied.append(sql)
    assert emptied  # not vacuous
    for sql in emptied[:3]:
        assert_adaptive_replays(row_db, columnar_db, sql, executors, recordings)


def test_a_projection_of_one_alias(pair, executors, recordings):
    """Each alias of a three-table join projected alone, the driving one
    among them: the projection reads no other alias's RIDs."""
    row_db, columnar_db = pair
    for alias, column in (("o", "name"), ("c", "make"), ("d", "salary")):
        sql = (
            f"SELECT {alias}.{column} FROM Owner o, Car c, Demographics d "
            "WHERE c.ownerid = o.id AND o.id = d.ownerid AND c.year > 2000"
        )
        for _ in range(2):
            got, _ = assert_static_equals_the_oracle(row_db, columnar_db, sql)
        assert got.rows  # not vacuous
        assert_adaptive_replays(row_db, columnar_db, sql, executors, recordings)
