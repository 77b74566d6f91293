"""Differential tests: the engine against the scalar oracle.

The engine may coarsen *when* a monitored run checks and reorders (chunk
boundaries instead of every ``c`` rows), never *what* a query returns or
what a fixed plan costs. Against the row store's scalar executor, for
chunks of 1 / 7 / 256 rows (``vector.MONITORED_CHUNK_ROWS`` patched), the
cascade on the columnar store must give

* the identical result multiset in every :class:`ReorderMode`;
* the identical full :class:`WorkMeter` in mode NONE, where no decision
  can differ.

That a monitored cascade run equals the oracle *under the cascade's own
decisions* (rows in order, physical work, frozen positions) is
``tests/test_decision_replay.py``'s job.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro import AdaptiveConfig, ReorderMode
from repro.dmv import four_table_workload, load_dmv, six_table_workload
from repro.executor import vector

CHUNK_ROWS = (1, 7, 256)


@pytest.fixture(scope="module")
def dbs():
    """No plan cache: every execution of a text is a first, monitored one
    (a learned text would run its lesson as a static plan)."""
    return {
        backend: load_dmv(
            scale=0.02, extended=True, backend=backend, plan_cache_size=0
        )[0]
        for backend in ("row", "columnar")
    }


@pytest.fixture(scope="module")
def workload():
    return six_table_workload(count=2) + four_table_workload(
        queries_per_template=1
    )


@pytest.mark.parametrize("mode", list(ReorderMode), ids=lambda m: m.name.lower())
def test_chunk_semantics_match_the_scalar_oracle(
    dbs, workload, mode, monkeypatch
):
    config = AdaptiveConfig(mode=mode)
    for query in workload:
        oracle = dbs["row"].execute(query.sql, config)
        assert oracle.stats.engine == "scalar"
        oracle_rows = sorted(oracle.rows)
        for chunk_rows in CHUNK_ROWS:
            monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", chunk_rows)
            engine = dbs["columnar"].execute(query.sql, config)
            tag = f"{query.qid} chunk={chunk_rows}"
            # Not vacuous: the path under test is the one that ran.
            assert engine.stats.engine == (
                "vector-adaptive" if mode.monitors else "vector"
            ), tag
            assert sorted(engine.rows) == oracle_rows, tag
            if mode is ReorderMode.NONE:
                assert asdict(engine.stats.work) == asdict(
                    oracle.stats.work
                ), tag


#: Two- and three-table shapes the grids above do not hold.
SMALL_JOINS = [
    "SELECT o.name, c.make FROM Car c, Owner o "
    "WHERE c.ownerid = o.id AND c.year >= 2005",
    "SELECT o.name, c.make FROM Demographics d, Owner o, Car c "
    "WHERE d.ownerid = o.id AND c.ownerid = o.id AND d.salary > 50000",
]


def test_chunk_granularity_rows_match_exact(dbs):
    """Chunk-granularity monitoring never changes result rows."""
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    for sql in SMALL_JOINS + [q.sql for q in six_table_workload(count=2)]:
        exact = dbs["row"].execute(sql, config)
        chunk = dbs["columnar"].execute(sql, config)
        assert chunk.stats.engine == "vector-adaptive", sql[:60]
        assert sorted(chunk.rows) == sorted(exact.rows), sql[:60]
