"""Property test: kernel chunk folds == scalar per-probe chunk folds.

The chunked vectorized adaptive engine never runs a scalar probe: each
leg's per-chunk :class:`~repro.core.monitor.AggregatedWindow` fold —
``(n, index matches, output rows, work units)`` — is derived from the
columnar index's group-kernel aggregates (``totals`` / ``evals`` /
``pass_offsets`` / ``ev`` / ``pa`` summed over the chunk's key ranks).
The engine's correctness contract is that those folds are *numerically
identical* to what ``AggregatedWindow.observe_chunk`` would receive from
summing scalar per-probe samples: every cost constant is an exact binary
fraction, so the quarter-integer float work sums are equal bit for bit
under any regrouping.

This test checks that equivalence by driving the shipped
``vector._expand`` over a one-leg plan (:func:`one_leg_plan`) against an
independent scalar reimplementation of the probe (entry walk +
short-circuit local evals), over randomized leg shapes: random table
sizes, NULL keys in the indexed column, NULL cells under the local
predicates, probe sequences mixing present keys, missing keys, and NULL
keys, and random chunk boundaries (so window eviction folds whole
aggregates on both sides).
"""

from __future__ import annotations

import dataclasses
import random
from types import SimpleNamespace

import pytest

from repro.core.monitor import AggregatedWindow, LegMonitor
from repro.db import Database
from repro.executor.vector import _expand, _make_translator
from repro.query.predicates import Between, Comparison, IsNull, Op
from repro.storage.columnar import _np
from repro.storage.compiled import compile_row_test
from repro.storage.counters import (
    INDEX_DESCEND_COST,
    INDEX_ENTRY_COST,
    PREDICATE_EVAL_COST,
    ROW_FETCH_COST,
    WorkMeter,
)

COMPARE_OPS = (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE)
STRINGS = ("alpha", "beta", "gamma", "")
KEY_SPACE = 15


def random_rows(rng: random.Random, nrows: int) -> list[tuple]:
    rows = []
    for _ in range(nrows):
        k = None if rng.random() < 0.10 else rng.randint(0, KEY_SPACE)
        a = None if rng.random() < 0.15 else rng.randint(-20, 20)
        b = None if rng.random() < 0.15 else round(rng.uniform(-50.0, 50.0), 3)
        s = None if rng.random() < 0.15 else rng.choice(STRINGS)
        rows.append((k, a, b, s))
    return rows


def random_predicate(rng: random.Random):
    column = rng.choice(("a", "b", "s"))
    if column == "s":
        value = rng.choice(STRINGS)
    elif column == "b":
        value = round(rng.uniform(-50.0, 50.0), 3)
    else:
        value = rng.randint(-20, 20)
    shape = rng.randrange(3)
    if shape == 0:
        return Comparison(column, rng.choice(COMPARE_OPS), value)
    if shape == 1 and column != "s":
        low, high = sorted((value, -value if column == "a" else 0.0))
        return Between(column, low, high)
    return IsNull(column, negated=rng.random() < 0.5)


def random_probe_keys(rng: random.Random, n: int) -> list:
    keys = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.10:
            keys.append(None)  # NULL key: descend only, no entries
        elif roll < 0.30:
            keys.append(rng.randint(KEY_SPACE + 10, KEY_SPACE + 20))  # miss
        else:
            keys.append(rng.randint(0, KEY_SPACE))
    return keys


def rids_by_key(index) -> dict:
    """key -> RIDs in entry order, read off the index's sorted entries."""
    lookup: dict = {}
    for key, rid in index._entries:
        lookup.setdefault(key, []).append(rid)
    return lookup


def scalar_probe(key, lookup, raw, tests, is_after=None):
    """One scalar indexed probe, reimplemented independently: descend, walk
    the key's entries in entry order, fetch each candidate row, run the
    local tests with short-circuit eval counting.

    Returns (descends, entries, fetches, evals, per-test [evaluated,
    passed] deltas, matching RIDs in entry order): locals short-circuit,
    then — for a frozen leg — one positional eval per row that passed
    them all.
    """
    deltas = [[0, 0] for _ in tests]
    if key is None:
        return 1, 0, 0, 0, deltas, []
    rids = lookup.get(key, ())
    evals = 0
    matched = []
    for rid in rids:
        row = raw[rid]
        for slot, test in enumerate(tests):
            evals += 1
            deltas[slot][0] += 1
            if not test(row):
                break
            deltas[slot][1] += 1
        else:
            if is_after is None:
                matched.append(rid)
                continue
            evals += 1
            if is_after(rid, row):
                matched.append(rid)
    return 1, len(rids) or 1, len(rids), evals, deltas, matched


def scalar_sample(key, lookup, raw, tests):
    """One scalar probe's (index matches, output rows, work units)."""
    descends, entries, fetched, evals, _, matched = scalar_probe(
        key, lookup, raw, tests
    )
    work = (
        descends * INDEX_DESCEND_COST
        + entries * INDEX_ENTRY_COST
        + fetched * ROW_FETCH_COST
        + evals * PREDICATE_EVAL_COST
    )
    return fetched, len(matched), work


#: Every key :func:`random_probe_keys` draws, one ``src`` row each: a chunk
#: of probe keys is then a chunk of ``src`` RIDs, as the cascade sees it.
SOURCE_KEYS = [None, *range(KEY_SPACE + 1), *range(KEY_SPACE + 10, KEY_SPACE + 21)]
SOURCE_RID = {key: rid for rid, key in enumerate(SOURCE_KEYS)}


def one_leg_plan(db, index, kernel, ntests):
    """``src(k)`` driving, ``t`` probed through *kernel*: the one-leg plan
    ``vector._adaptive_plan`` would hand ``_expand``, and its leg."""
    if "src" not in db.catalog.table_names():
        db.create_table("src", [("k", "int")])
        db.insert("src", [(key,) for key in SOURCE_KEYS])
    source = db.catalog.table("src").column_store(0)
    leg = SimpleNamespace(
        alias="t",
        monitoring_enabled=True,
        monitor=LegMonitor(window=37, aggregated=True),
        local_counts=[[0, 0] for _ in range(ntests)],
        incoming_since_check=0,
        rows_in=0,
        index_matches=0,
        rows_out=0,
    )
    translate = _make_translator(source, index)
    assert translate is not None
    plan = [
        (
            leg,
            SimpleNamespace(key_alias="src"),
            kernel,
            translate,
            index.misses_keys_of(source),
        )
    ]
    return leg, plan


def check_leg(rng, db, index, kernel, lookup, raw, tests, is_after=None):
    """Probe chunks through the shipped ``_expand`` over *kernel* and
    through the scalar probe; compare the emitted RIDs, every meter field,
    the local counts, the flow counters and the window fold at each chunk
    boundary."""
    leg, plan = one_leg_plan(db, index, kernel, len(tests))
    meter = WorkMeter()
    scalar_meter = WorkMeter()
    window_scalar = AggregatedWindow(size=37)
    scalar_counts = [[0, 0] for _ in tests]
    incoming = candidates = produced_total = 0
    for _ in range(rng.randint(1, 6)):  # several chunks: exercise eviction
        chunk = random_probe_keys(rng, rng.randint(1, 60))
        if rng.random() < 0.15:  # a chunk no key of which is in the index
            chunk = [key for key in chunk if key not in lookup] or [None]
        flow = len(chunk)
        incoming += flow
        survivors = _np.asarray(
            [SOURCE_RID[key] for key in chunk], dtype=_np.int64
        )
        ancestors, produced = _expand(meter, plan, "src", survivors)
        leg.monitor.flush_chunk()

        scalar_rows = []
        sum_matches = 0
        sum_work = 0.0
        for source_rid, key in zip(survivors.tolist(), chunk):
            descends, entries, fetched, evals, deltas, matched = scalar_probe(
                key, lookup, raw, tests, is_after
            )
            scalar_meter.index_descends += descends
            scalar_meter.index_entries += entries
            scalar_meter.row_fetches += fetched
            scalar_meter.predicate_evals += evals
            scalar_meter.monitor_updates += 1
            for slot, (evaluated, passed) in enumerate(deltas):
                scalar_counts[slot][0] += evaluated
                scalar_counts[slot][1] += passed
            scalar_rows += [(source_rid, rid) for rid in matched]
            sum_matches += fetched
            sum_work += (
                descends * INDEX_DESCEND_COST
                + entries * INDEX_ENTRY_COST
                + fetched * ROW_FETCH_COST
                + evals * PREDICATE_EVAL_COST
            )
        window_scalar.observe_chunk(
            flow, sum_matches, len(scalar_rows), sum_work
        )
        candidates += sum_matches
        produced_total += len(scalar_rows)

        # Bit-identical at every chunk boundary, not just at the end.
        assert sorted(ancestors) == ["src", "t"]
        assert produced == len(scalar_rows)
        assert (
            list(zip(ancestors["src"].tolist(), ancestors["t"].tolist()))
            == scalar_rows
        )
        assert dataclasses.asdict(meter) == dataclasses.asdict(scalar_meter)
        # Per-test (evaluated, passed) local-predicate counters agree too —
        # these feed the controller's rank-rule selectivity estimates.
        assert leg.local_counts == scalar_counts
        assert leg.incoming_since_check == incoming
        # The flow counters EXPLAIN ANALYZE reads: RuntimeLeg.probe's.
        assert (leg.rows_in, leg.index_matches, leg.rows_out) == (
            incoming, candidates, produced_total,
        )
        window = leg.monitor.window
        assert len(window) == len(window_scalar)
        assert window.sum_matches == window_scalar.sum_matches
        assert window.sum_output == window_scalar.sum_output
        assert window.sum_work == window_scalar.sum_work


@pytest.mark.parametrize("seed", range(25))
def test_kernel_chunk_folds_match_scalar_probe_folds(seed):
    rng = random.Random(5_151_000 + seed)
    db = Database(backend="columnar")
    db.create_table(
        "t", [("k", "int"), ("a", "int"), ("b", "float"), ("s", "string")]
    )
    db.insert("t", random_rows(rng, rng.randint(1, 150)))
    db.create_index("t", "k")
    table = db.catalog.table("t")
    index = db.catalog.index_on("t", "k")
    schema = table.schema
    raw = table.raw_rows()

    predicates = [random_predicate(rng) for _ in range(rng.randrange(3))]
    local_tests = []
    for predicate in predicates:
        test = compile_row_test(predicate, schema)
        assert test is not None
        test.predicate = predicate  # as RuntimeLeg attaches it
        local_tests.append((predicate, test))
    kernel = index.cascade_groups(local_tests)
    assert kernel is not None, "vectorizable leg refused a kernel"
    tests = [test for _, test in local_tests]
    check_leg(rng, db, index, kernel, rids_by_key(index), raw, tests)


# ---------------------------------------------------------------------------
# Positional kernels: a frozen leg's kernel == the scalar probe with the
# duplicate-prevention predicate applied after the locals.
#
# After a driving switch the old driving leg is probed as an inner leg and
# must only return rows *after* its frozen scan position. The engine derives
# that leg's kernel from the cached base kernel (a mask over ``pass_rids``);
# the scalar probe evaluates ``position_of(rid, row) > after`` once per
# locally-passing candidate, between the locals and any residual joins.
# ---------------------------------------------------------------------------

from repro.executor.vector import _positional_kernel  # noqa: E402
from repro.query.predicates import PositionalPredicate  # noqa: E402
from repro.storage.cursor import ScanOrder  # noqa: E402

SCAN_STRINGS = ("ant", "bee", "cat", "dog", "")


def _positional_rows(rng: random.Random, nrows: int) -> list[tuple]:
    """``random_rows`` plus two scan-key columns with few distinct values
    (frozen positions land inside runs of equal keys) and NULLs."""
    rows = []
    for row in random_rows(rng, nrows):
        sk_num = None if rng.random() < 0.10 else rng.randint(0, 4)
        sk_str = None if rng.random() < 0.10 else rng.choice(SCAN_STRINGS)
        rows.append(row + (sk_num, sk_str))
    return rows


@pytest.mark.parametrize("scan_order", ["rid", "sk_num", "sk_str"])
@pytest.mark.parametrize("seed", range(8))
def test_positional_kernel_matches_scalar_frozen_probe(seed, scan_order):
    rng = random.Random(9_393_000 + seed)
    db = Database(backend="columnar")
    db.create_table(
        "t",
        [
            ("k", "int"),
            ("a", "int"),
            ("b", "float"),
            ("s", "string"),
            ("sk_num", "int"),
            ("sk_str", "string"),
        ],
    )
    db.insert("t", _positional_rows(rng, rng.randint(2, 150)))
    db.create_index("t", "k")
    table = db.catalog.table("t")
    index = db.catalog.index_on("t", "k")
    raw = table.raw_rows()

    # The old driving scan's order. In index order the leg keeps the local
    # predicate the scan pushed down, which is what keeps NULL scan keys
    # away from the positional comparison.
    predicates = [random_predicate(rng) for _ in range(rng.randrange(3))]
    if scan_order == "rid":
        order = ScanOrder(table)
        positions = [(rid,) for rid in range(len(raw))]
    else:
        db.create_index("t", scan_order)
        scan_index = db.catalog.index_on("t", scan_order)
        order = ScanOrder(table, scan_index)
        positions = list(scan_index._entries)
        predicates.insert(
            rng.randrange(len(predicates) + 1),
            IsNull(scan_order, negated=True),
        )
    local_tests = []
    for predicate in predicates:
        test = compile_row_test(predicate, table.schema)
        assert test is not None
        test.predicate = predicate
        local_tests.append((predicate, test))
    base = index.cascade_groups(local_tests)
    tests = [test for _, test in local_tests]
    lookup = rids_by_key(index)
    kernels_before = dict(index._kernels)
    one_leg_plan(db, index, base, len(tests))  # src's rank array: resident
    footprint_before = index.kernel_footprint()
    base_evals = base.evals.copy()
    base_offsets = base.pass_offsets.copy()

    # Frozen once mid-scan (inside a run of equal keys more often than
    # not), a second time further on, and finally at the very last
    # position, where nothing survives.
    if not positions:
        return
    first = rng.randrange(len(positions))
    second = rng.randrange(first, len(positions))
    for offset in (first, second, len(positions) - 1):
        after = positions[offset]
        positional = PositionalPredicate(order=order, after=after)
        kernel = _positional_kernel(base, positional, len(table))
        assert kernel is not None
        # The scalar side compares positions the way the paper states the
        # predicate, not through PositionalPredicate.test.
        if scan_order == "rid":
            def is_after(rid, row, r=after[0]):
                return rid > r
        else:
            slot = table.schema.position_of(scan_order)

            def is_after(rid, row, v=after[0], r=after[1], slot=slot):
                return row[slot] > v or (row[slot] == v and rid > r)

        check_leg(rng, db, index, kernel, lookup, raw, tests, is_after)
        if offset == len(positions) - 1:
            assert len(kernel.pass_rids) == 0  # empty surviving suffix
        # Derived per query: shares the base's access/local arrays, leaves
        # the base and the index's kernel memo untouched.
        assert kernel.totals is base.totals
        assert kernel.ev is base.ev and kernel.pa is base.pa
    assert (base.evals == base_evals).all()
    assert (base.pass_offsets == base_offsets).all()
    assert index._kernels == kernels_before
    assert index.kernel_footprint() == footprint_before


def test_positional_kernel_tie_at_the_rid_boundary():
    """``key == v`` rows split on the RID; NULL scan keys never get there."""
    db = Database(backend="columnar")
    db.create_table("t", [("k", "int"), ("sk", "string")])
    db.insert("t", [(7, "b"), (7, "b"), (7, "b"), (7, "c"), (7, None), (7, "a")])
    db.create_index("t", "k")
    db.create_index("t", "sk")
    table = db.catalog.table("t")
    predicate = IsNull("sk", negated=True)
    test = compile_row_test(predicate, table.schema)
    test.predicate = predicate
    index = db.catalog.index_on("t", "k")
    base = index.cascade_groups([(predicate, test)])
    rank = index._sidecar()[0]
    order = ScanOrder(table, db.catalog.index_on("t", "sk"))
    kernel = _positional_kernel(
        base, PositionalPredicate(order=order, after=("b", 1)), len(table)
    )
    j = rank[7]
    assert kernel.pass_rids[
        kernel.pass_offsets[j] : kernel.pass_offsets[j + 1]
    ].tolist() == [2, 3]
    assert int(kernel.totals[j]) == 6
    # Six local evals, then one positional eval for each of the five rows
    # with a scan key.
    assert int(kernel.evals[j]) == int(base.evals[j]) + 5 == 11


# ---------------------------------------------------------------------------
# Driving walk: slices of the scan == the row-at-a-time cursor.
#
# The cascades take the driving scan in slices (``_DrivingWalk.take``) and
# charge each slice as one aggregate. Everything a decision, a freeze, a
# resume or a hand-off to the reference loop can read afterwards — the meter,
# the driving monitor's ring, the cursor's position and progress — must be
# what pulling the same rows one ``__next__`` at a time leaves behind, at
# every slice boundary, for multi-range scans included.
# ---------------------------------------------------------------------------

import dataclasses  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from repro.core.monitor import DrivingMonitor  # noqa: E402
from repro.executor.vector import _DrivingWalk  # noqa: E402
from repro.storage.cursor import (  # noqa: E402
    IndexScanCursor,
    KeyRange,
    TableScanCursor,
)


def _row_at_a_time(cursor, leg, mask, limit):
    """Pull rows until *limit* survivors (None: to exhaustion), charging
    and recording what ``RuntimeLeg.driving_rows`` does."""
    survivors = []
    while limit is None or len(survivors) < limit:
        try:
            rid, _row = next(cursor)
        except StopIteration:
            break
        leg.meter.charge_predicate_eval(1)
        survived = bool(mask[rid])
        leg.driving_monitor.record_scanned(survived)
        leg.meter.charge_monitor_update()
        leg.rows_scanned += 1
        if survived:
            leg.rows_survived += 1
            survivors.append(rid)
    return survivors


def _scan_state(cursor, leg):
    monitor = leg.driving_monitor
    return (
        dataclasses.asdict(leg.meter),
        cursor.last_position,
        [getattr(monitor, name) for name in DrivingMonitor.__slots__],
        (leg.rows_scanned, leg.rows_survived),
    )


@pytest.mark.parametrize("kind", ["table", "index"])
@pytest.mark.parametrize("seed", range(20))
def test_driving_walk_slices_match_row_at_a_time_cursor(seed, kind):
    rng = random.Random(4_848_000 + seed)
    dbs, cursors, legs = [], [], []
    rows = random_rows(rng, rng.randint(1, 120))
    ranges = None
    for _ in range(2):  # the sliced scan and its row-at-a-time twin
        db = Database(backend="columnar")
        db.create_table(
            "t", [("k", "int"), ("a", "int"), ("b", "float"), ("s", "string")]
        )
        db.insert("t", rows)
        db.create_index("t", "k")
        table = db.catalog.table("t")
        index = db.catalog.index_on("t", "k")
        if not dbs:
            if kind == "index":
                # Disjoint ranges, some empty, some unbounded.
                cuts = sorted(rng.sample(range(-2, KEY_SPACE + 4), 6))
                ranges = [
                    KeyRange(low=None if rng.random() < 0.2 else cuts[0],
                             high=cuts[1], high_inclusive=rng.random() < 0.5),
                    KeyRange(low=cuts[2], high=cuts[3],
                             low_inclusive=rng.random() < 0.5),
                    KeyRange(low=cuts[4],
                             high=None if rng.random() < 0.2 else cuts[5]),
                ][: rng.randint(1, 3)]
        if kind == "index":
            index._sidecar()
            cursor = IndexScanCursor(index, list(ranges))
        else:
            cursor = TableScanCursor(table)
        dbs.append(db)
        cursors.append(cursor)
        legs.append(
            SimpleNamespace(
                meter=table.meter,
                driving_monitor=DrivingMonitor(rng.choice((3, 7, 1000))),
                monitoring_enabled=True,
                rows_scanned=0,
                rows_survived=0,
            )
        )
    legs[1].driving_monitor = DrivingMonitor(legs[0].driving_monitor.window)
    mask = _np.asarray([rng.random() < 0.4 for _ in rows], dtype=bool)
    sliced, single = cursors
    finished = False
    while not finished:
        # A run of slices, then (as after a hand-off to the reference loop) a
        # stretch of plain __next__ calls on the same cursor, and again.
        walk = _DrivingWalk(legs[0], sliced, [mask])
        for _ in range(rng.randint(1, 3)):
            limit = rng.randint(1, 4)
            got = walk.take(limit).tolist()
            want = _row_at_a_time(single, legs[1], mask, limit)
            assert got == want
            if len(want) < limit:
                # The twin ran off the end of its scan looking for more
                # survivors: the walk's trailing rows are due as well.
                walk.finish()
                finished = True
            assert _scan_state(sliced, legs[0]) == _scan_state(single, legs[1])
            if finished:
                assert sliced.exhausted and single.exhausted
                break
        else:
            limit = rng.randint(1, 3)
            assert _row_at_a_time(sliced, legs[0], mask, limit) == (
                _row_at_a_time(single, legs[1], mask, limit)
            )
            assert _scan_state(sliced, legs[0]) == _scan_state(single, legs[1])
            finished = sliced.exhausted
