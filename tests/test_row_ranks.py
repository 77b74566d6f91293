"""Join keys as precomputed rank gathers (``ColumnarIndex.row_ranks``).

A probed index keeps, per source column that probes it, the rank of every
source row's key in its distinct-key sidecar (-1 NULL, -2 not in the
index), so a chunk's key translation is one gather. Three layers:

* the array against the scalar ``rank.get(row[key_slot])``, row by row,
  for every key type and every refusal;
* its lifetime: ``INSERT`` into either table and ``create_index`` are
  followed by a rebuild, and the engine still returns the row oracle's
  rows, in order, for the same ``WorkMeter``;
* a driving switch that starts probing through a new (column, index) pair
  builds that pair's array at the boundary, mid-query;
* absent keys (-1 / -2) at every inner leg of a three-table chain gather
  zeros from the kernels' two padding slots: engine == oracle in mode NONE,
  == the oracle replaying its decisions through a reorder and a switch;
* the padding costs 16 bytes an array: nothing is copied to make room for
  it, and nothing published can be written to.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from repro import AdaptiveConfig, Database, ReorderMode
from repro.core.controller import AdaptationController
from repro.dmv import load_dmv, six_table_workload
from repro.executor import vector
from repro.executor.batch import BatchedPipelineExecutor
from repro.executor.vector import _make_translator
from repro.storage.columnar import ColumnarIndex, _np

from tests.test_decision_replay import assert_replays

NULL, MISSING = -1, -2
NONE = AdaptiveConfig(mode=ReorderMode.NONE)


def two_tables(source_type, probed_type, source_keys, probed_keys):
    """``src(k)`` probing ``dst(k)`` through the index on ``dst.k``."""
    db = Database(backend="columnar")
    db.create_table("src", [("k", source_type), ("tag", "int")])
    db.create_table("dst", [("k", probed_type), ("tag", "int")])
    db.insert("src", [(key, n) for n, key in enumerate(source_keys)])
    db.insert("dst", [(key, n) for n, key in enumerate(probed_keys)])
    db.create_index("dst", "k")
    return db


def source_and_index(db):
    column = db.catalog.table("src").column_store(0)
    return column, db.catalog.index_on("dst", "k")


def scalar_ranks(db) -> list[int]:
    """What the scalar probe resolves per source row, in the array's codes."""
    _, index = source_and_index(db)
    rank, _, _ = index._sidecar()
    out = []
    for row in db.catalog.table("src").raw_rows():
        key = row[0]
        out.append(NULL if key is None else rank.get(key, MISSING))
    return out


def keys_of(kind: str, rng: random.Random, count: int, domain: int) -> list:
    """Random keys with duplicates and NULLs."""
    make = {
        "int": lambda v: v - domain // 2,  # negatives too
        "float": lambda v: v / 4 - 3.0,
        "string": lambda v: f"key{v:03d}",
    }[kind]
    return [
        None if rng.random() < 0.15 else make(rng.randrange(domain))
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# The array is the scalar lookup, for every row
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["int", "float", "string"])
@pytest.mark.parametrize("seed", range(4))
def test_gather_equals_scalar_rank_lookup_for_every_row(kind, seed):
    rng = random.Random(seed)
    # A wider source domain than the index holds: some keys are missing.
    db = two_tables(
        kind, kind, keys_of(kind, rng, 300, 60), keys_of(kind, rng, 120, 40)
    )
    column, index = source_and_index(db)
    ranks = index.row_ranks(column)
    expected = scalar_ranks(db)
    assert ranks.dtype == _np.int64 and ranks.tolist() == expected
    assert {NULL, MISSING} <= set(expected) and max(expected) > 0  # not vacuous
    assert len(index._keys) < len(index._entries)  # duplicate keys, one rank
    # The cascade's translator is a gather over that array.
    rids = _np.array(rng.choices(range(300), k=64), dtype=_np.int64)
    translate = _make_translator(column, index)
    assert translate(rids).tolist() == [expected[rid] for rid in rids.tolist()]
    assert index.row_ranks(column) is ranks  # built once


@pytest.mark.parametrize("kind", ["int", "float", "string"])
@pytest.mark.parametrize("probed_keys", [[], [None, None, None]])
def test_empty_index_misses_every_key_and_keeps_nulls(kind, probed_keys):
    rng = random.Random(5)
    db = two_tables(kind, kind, keys_of(kind, rng, 50, 10), probed_keys)
    column, index = source_and_index(db)
    assert not index._sidecar()[0]
    expected = scalar_ranks(db)
    assert index.row_ranks(column).tolist() == expected
    assert set(expected) == {NULL, MISSING}


def test_int_source_against_a_float_index():
    db = two_tables("int", "float", [1, 2, None, 3, 7], [1.0, 2.5, 3.0, 3.0])
    column, index = source_and_index(db)
    assert index.row_ranks(column).tolist() == scalar_ranks(db) == [
        0, MISSING, NULL, 2, MISSING
    ]


def test_refused_shapes_stay_refused():
    """No array, no translator: the cascade's gate reads as before."""
    # A boxed (overflowed) INT source column.
    boxed = two_tables("int", "int", [1, 2**70, None, 3], [1, 3, 3])
    column, index = source_and_index(boxed)
    assert column.boxed is not None
    assert index.row_ranks(column) is None
    assert _make_translator(column, index) is None
    # A numeric source against a non-numeric key domain, and the reverse.
    mixed = two_tables("int", "string", [1, 2, None], ["a", "b"])
    assert mixed.catalog.index_on("dst", "k").row_ranks(
        mixed.catalog.table("src").column_store(0)
    ) is None
    reverse = two_tables("string", "int", ["a", None], [1, 2])
    assert _make_translator(*source_and_index(reverse)) is None
    # A boxed probed column has no numeric key array either.
    wide = two_tables("int", "int", [1, 2, None], [1, 2**70])
    assert _make_translator(*source_and_index(wide)) is None


def test_refusal_reaches_the_gate_reason():
    db = two_tables("int", "int", [1, 2**70, 3], [1, 3, 3])
    db.create_index("src", "k")  # whichever leg the optimizer probes
    db.analyze()
    result = db.execute(
        "SELECT s.tag, d.tag FROM src s, dst d WHERE s.k = d.k", NONE
    )
    assert result.stats.engine == "scalar"
    assert "untranslatable key column" in result.stats.vector_gate
    assert sorted(result.rows) == [(0, 0), (2, 1), (2, 2)]


def test_footprint_counts_the_rank_arrays():
    rng = random.Random(1)
    db = two_tables("int", "int", keys_of("int", rng, 500, 30), range(30))
    column, index = source_and_index(db)
    index._sidecar()
    before = index.kernel_footprint()
    ranks = index.row_ranks(column)
    assert ranks.nbytes == 8 * 500
    assert index.kernel_footprint() == before + ranks.nbytes
    assert db.storage_stats()["kernel_plan_bytes"] >= ranks.nbytes


# ---------------------------------------------------------------------------
# Lifetime: DML and DDL are followed by a rebuild
# ---------------------------------------------------------------------------
JOIN = "SELECT s.tag, d.tag FROM src s, dst d WHERE s.k = d.k AND s.tag >= 0"


def twins(source_keys, probed_keys, indexed=True, chain=None):
    """The same two tables on the columnar engine and the row oracle.

    ``dst`` is the smaller one: the optimizer drives it and probes ``src``
    through the index on ``src.k`` with the keys of ``dst.k``.

    *chain* = ``(links, far_keys)`` makes them a three-table chain: ``src``
    gets a third column ``m`` (one link per row) that joins ``far(k, tag)``,
    and every join column and ``tag`` is indexed.
    """
    dbs = []
    for backend in ("columnar", "row"):
        db = Database(backend=backend)
        columns = [("k", "int"), ("tag", "int")]
        db.create_table("src", columns + ([("m", "int")] if chain else []))
        db.create_table("dst", columns)
        source_rows = [(key, n) for n, key in enumerate(source_keys)]
        if chain:
            links, far_keys = chain
            source_rows = [row + (m,) for row, m in zip(source_rows, links)]
            db.create_table("far", columns)
            db.insert("far", [(key, n) for n, key in enumerate(far_keys)])
        db.insert("src", source_rows)
        db.insert("dst", [(key, n) for n, key in enumerate(probed_keys)])
        if indexed:
            db.create_index("src", "k")
            db.create_index("dst", "k")
        if chain:
            db.create_index("src", "m")
            for name in ("src", "dst", "far"):
                db.create_index(name, "tag")
            db.create_index("far", "k")
        db.analyze()
        dbs.append(db)
    return dbs


def assert_engine_equals_oracle(columnar, row):
    got = columnar.execute(JOIN, NONE)
    want = row.execute(JOIN, NONE)
    assert got.stats.engine == "vector", got.stats.vector_gate
    assert got.rows == want.rows  # in order
    assert dataclasses.asdict(got.stats.work) == dataclasses.asdict(
        want.stats.work
    )
    assert got.plan.order == want.plan.order == ("d", "s")
    return got


def held_ranks(db):
    """The array ``src.k``'s index holds for the keys of ``dst.k``."""
    column = db.catalog.table("dst").column_store(0)
    index = db.catalog.index_on("src", "k")
    rows, ranks, _ = index._row_ranks[column]
    assert rows == len(ranks) == len(column)
    rank = index._sidecar()[0]
    assert ranks.tolist() == [
        NULL if key is None else rank.get(key, MISSING)
        for key in column.values_list()
    ]
    return ranks


def test_insert_into_either_table_is_followed_by_a_rebuild():
    rng = random.Random(11)
    columnar, row = twins(keys_of("int", rng, 200, 40), keys_of("int", rng, 90, 30))
    first = assert_engine_equals_oracle(columnar, row)
    ranks = held_ranks(columnar)
    assert_engine_equals_oracle(columnar, row)
    assert held_ranks(columnar) is ranks  # a repeat gathers, no rebuild

    # The source column grows: a NULL and a missing key among the new rows.
    grown = [(None, 900), (10**6, 901), (3, 902), (-4, 903)]
    for db in (columnar, row):
        db.insert("dst", grown)
    assert_engine_equals_oracle(columnar, row)
    rebuilt = held_ranks(columnar)
    assert len(rebuilt) == len(ranks) + len(grown)
    assert rebuilt[-3] == MISSING
    # The probed index grows: that key is present now.
    for db in (columnar, row):
        db.insert("src", [(10**6, 950), (3, 951), (None, 952)])
    third = assert_engine_equals_oracle(columnar, row)
    again = held_ranks(columnar)
    assert again is not rebuilt and again[-3] >= 0
    assert len(third.rows) > len(first.rows)


def test_create_index_opens_a_new_pair():
    """Without an index to probe through the join column is hash-probed,
    which the cascade refuses; once there is an index, the next execution probes through the new (column, index)
    pair and builds its array."""
    rng = random.Random(12)
    # dst small enough that driving it and probing src's index beats
    # driving src and hash-probing dst.k, which stays unindexed.
    columnar, row = twins(
        keys_of("int", rng, 150, 25), keys_of("int", rng, 20, 25), indexed=False
    )
    before = columnar.execute(JOIN, NONE)
    assert before.stats.engine == "scalar"
    assert before.stats.vector_gate.endswith("hash-probed or uncompiled access")
    for db in (columnar, row):
        db.create_index("src", "k")
    after = assert_engine_equals_oracle(columnar, row)
    assert sorted(after.rows) == sorted(before.rows)
    held_ranks(columnar)


# ---------------------------------------------------------------------------
# A driving switch probes through a pair no one has built yet
# ---------------------------------------------------------------------------
def test_driving_switch_builds_the_new_pair_at_the_boundary(monkeypatch):
    columnar, _ = load_dmv(
        scale=0.02, extended=True, backend="columnar", plan_cache_size=0
    )
    row, _ = load_dmv(scale=0.02, extended=True, plan_cache_size=0)
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 16)
    config = AdaptiveConfig(
        mode=ReorderMode.BOTH, check_frequency=2, switch_benefit_threshold=0.0
    )
    builds: list[tuple[str, int]] = []
    running: list = []
    build = ColumnarIndex._build_row_ranks

    def watching(index, source_column):
        builds.append((index.name, running[0].driving_rows_total))
        return build(index, source_column)

    monkeypatch.setattr(ColumnarIndex, "_build_row_ranks", watching)
    mid_query = 0
    for query in six_table_workload(count=40):
        del builds[:], running[:]
        controller = AdaptationController(config)
        executor = BatchedPipelineExecutor(
            columnar.plan(query.sql), columnar.catalog, config, controller
        )
        controller.attach(executor)
        running.append(executor)
        rows = executor.run_to_completion()
        assert executor.engine_used == "vector-adaptive", query.sql
        boundaries = {event.driving_rows_produced for event in executor.events}
        for name, driving_rows in builds:
            if driving_rows:  # not the starting order's
                mid_query += 1
                assert driving_rows in boundaries, (query.sql, name)
        if any(driving_rows for _, driving_rows in builds):
            assert executor.driving_switches or executor.inner_reorders
            # The oracle applying the same decisions: same rows in order,
            # same physical work.
            replayed, again, oracle = assert_replays(row, columnar, query.sql, config)
            assert replayed == rows and again.events == executor.events
            assert oracle is not None
    assert mid_query > 0, "no applied change opened a new (column, index) pair"


# ---------------------------------------------------------------------------
# Absent keys at both inner legs of a three-table chain
# ---------------------------------------------------------------------------
ABSENT = [None, 10**6, None, 10**6 + 1]  # a chunk of 4 that finds nothing
CHAIN = (
    "SELECT {columns} FROM src s, dst d, far f "
    "WHERE s.k = d.k AND s.m = f.k AND s.tag >= 0"
)
#: 0 / 1 / 2 local tests at an inner leg (padded ``ev`` / ``pa`` of
#: multi-test kernels are gathered).
LOCALS = {
    "d": ["", " AND d.tag < 12", " AND d.tag >= 2 AND d.tag < 12"],
    "f": ["", " AND f.tag < 170", " AND f.tag < 170 AND f.tag >= 10"],
}
TESTS_PER_LEG = list(itertools.product(range(3), repeat=2))


def chain_twins():
    """``s`` joins ``d`` on ``s.k`` and ``f`` on ``s.m``; NULL and dangling
    keys in all three key columns, and runs of four rows (a chunk of four)
    none of whose keys is in the probed index."""
    rng = random.Random(19)
    source_keys = keys_of("int", rng, 120, 60)
    links = keys_of("int", rng, 120, 60)
    source_keys[8:16] = ABSENT * 2
    links[8:16] = ABSENT[::-1] * 2
    probed_keys = keys_of("int", rng, 150, 40)
    # What ``d`` probes ``s`` with first, once it drives.
    probed_keys[:4] = [None if key is None else -key for key in ABSENT]
    return twins(
        source_keys, probed_keys, chain=(links, keys_of("int", rng, 200, 40))
    )


def assert_both_legs_probe_absent_keys(columnar):
    source = columnar.catalog.table("src")
    for probed, slot in (("dst", 0), ("far", 2)):
        index = columnar.catalog.index_on(probed, "k")
        _, ranks, misses = index._row_ranks[source.column_store(slot)]
        assert misses and {NULL, MISSING} <= set(ranks.tolist())
        assert set(ranks[8:16].tolist()) == {NULL, MISSING}


@pytest.mark.parametrize("tests_d, tests_f", TESTS_PER_LEG)
def test_static_chain_with_absent_keys_equals_the_oracle(
    tests_d, tests_f, monkeypatch
):
    """Mode NONE in slices of four driving rows — two of them find nothing
    at either leg — for every projection shape: rows in order and every
    WorkMeter field of the row store's scalar machine."""
    monkeypatch.setattr(vector, "STATIC_SLICE_ROWS", 4)
    columnar, row = chain_twins()
    where = LOCALS["d"][tests_d] + LOCALS["f"][tests_f]
    # All three legs, without the middle one, the driving leg alone.
    for columns in ("s.tag, d.tag, f.tag", "s.tag, f.tag", "s.tag"):
        sql = CHAIN.format(columns=columns) + where
        order = ("s", "d", "f")
        got = columnar.execute(columnar.plan(sql).with_order(order), NONE)
        want = row.execute(row.plan(sql).with_order(order), NONE)
        assert got.stats.engine == "vector", got.stats.vector_gate
        assert got.rows == want.rows and got.rows  # in order
        assert dataclasses.asdict(got.stats.work) == dataclasses.asdict(
            want.stats.work
        )
    assert_both_legs_probe_absent_keys(columnar)


@pytest.mark.parametrize("tests_d, tests_f", TESTS_PER_LEG)
def test_adaptive_chain_with_absent_keys_equals_the_reference_loop(
    tests_d, tests_f, monkeypatch
):
    """Mode BOTH in chunks of four from a bad starting order: the inner
    legs swap, and with a range on ``d.tag`` the driving leg moves to ``d``
    — whose first chunk probes the frozen ``s`` (a positional kernel's
    derived counts) with keys it does not hold. Rows in order, physical
    work, final order and frozen positions of the row store's oracle
    replaying the same decisions, and its local-predicate counters."""
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 4)
    config = AdaptiveConfig(
        mode=ReorderMode.BOTH, check_frequency=2, switch_benefit_threshold=0.0
    )
    columnar, row = chain_twins()
    sql = (
        CHAIN.format(columns="s.tag, d.tag, f.tag")
        + LOCALS["d"][tests_d]
        + LOCALS["f"][tests_f]
    )
    rows, engine, oracle = assert_replays(
        row, columnar, sql, config, order=("s", "f", "d")
    )
    assert engine.engine_used == "vector-adaptive", engine.vector_gate_reason
    assert {alias: leg.local_counts for alias, leg in engine.legs.items()} == {
        alias: leg.local_counts for alias, leg in oracle.legs.items()
    }
    assert rows and engine.inner_reorders
    if tests_d:
        assert engine.driving_switches and engine.order[0] == "d"
    assert_both_legs_probe_absent_keys(columnar)


# ---------------------------------------------------------------------------
# The padding costs nothing
# ---------------------------------------------------------------------------
def test_padding_is_sixteen_bytes_an_array_and_nothing_is_writeable():
    """After the six-table grid every per-key array is distinct keys + 2
    long and ends in two zeros, arrays equal by construction are one array,
    and the footprint is the unpadded one plus 16 bytes per array."""
    db, _ = load_dmv(scale=0.02, extended=True, backend="columnar")
    for query in six_table_workload(count=10**9):
        db.execute(query.sql, NONE)
    kernels = 0
    for name in db.catalog.table_names():
        for index in db.catalog.indexes_of(name).values():
            if index._gen is None:
                continue
            nkeys = len(index._keys)
            sidecar = [index._ent_rids, index._bounds_np, index._totals_np]
            padded = {id(index._totals_np)}  # distinct keys + 2 long
            offsets = {id(index._bounds_np)}  # distinct keys + 3 long
            unique = {id(array): array for array in sidecar}
            if index._keys_np is not None:
                unique[id(index._keys_np)] = index._keys_np
            for _, ranks, _ in index._row_ranks.values():
                unique[id(ranks)] = ranks
            assert len(index._bounds_np) == nkeys + 3
            for kernel in index._kernels.values():
                kernels += 1
                before = len(unique)
                per_key = [kernel.totals, kernel.evals, kernel.counts]
                per_key += [*kernel.ev, *kernel.pa]
                for array in per_key:
                    assert len(array) == nkeys + 2
                    assert array[-2:].tolist() == [0, 0]
                    padded.add(id(array))
                assert len(kernel.pass_offsets) == nkeys + 3
                offsets.add(id(kernel.pass_offsets))
                assert kernel.totals is index._totals_np
                tests = len(kernel.pa)
                if tests:
                    assert kernel.ev[0] is kernel.totals
                    assert kernel.counts is kernel.pa[-1]
                    for slot in range(1, tests):
                        assert kernel.ev[slot] is kernel.pa[slot - 1]
                    assert (kernel.evals is kernel.totals) == (tests == 1)
                else:
                    assert kernel.counts is kernel.totals
                    assert kernel.pass_offsets is index._bounds_np
                    assert kernel.pass_rids is index._ent_rids
                for array in (*per_key, kernel.pass_offsets, kernel.pass_rids):
                    unique[id(array)] = array
                # What a kernel adds to its sidecar: the zero evals of a
                # test-free one; else a pass count per test, offsets, RIDs
                # and - past one test - the summed evals.
                assert len(unique) - before == (
                    tests + 2 + (tests > 1) if tests else 1
                )
            for array in unique.values():
                assert not array.flags.writeable
            footprint = index.kernel_footprint()
            assert footprint == sum(a.nbytes for a in unique.values())
            # Against the layout without padding (keys / keys + 1 long):
            # 16 B per per-key and per offsets array, nothing else.
            unpadded = sum(
                8 * nkeys
                if id(array) in padded
                else 8 * (nkeys + 1)
                if id(array) in offsets
                else array.nbytes
                for array in unique.values()
            )
            assert footprint - unpadded == 16 * len(padded | offsets)
            assert footprint - unpadded <= 16 * len(unique)
    assert kernels >= 5
    kernel = next(iter(db.catalog.index_on("Owner", "id")._kernels.values()))
    with pytest.raises(ValueError):
        kernel.totals[-1] = 1  # an absent key would start matching
