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
from repro.executor.vector import _compile_step, _expand, _Probe, _residual_cells
from repro.query.predicates import Between, Comparison, IsNull, Op
from repro.storage.columnar import _np
from repro.storage.counters import (
    HASH_BUILD_ENTRY_COST,
    HASH_MATCH_COST,
    HASH_PROBE_COST,
    INDEX_DESCEND_COST,
    INDEX_ENTRY_COST,
    PREDICATE_EVAL_COST,
    ROW_FETCH_COST,
    WorkMeter,
)

from tests.conftest import table_rows

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
    """key -> RIDs in entry order, read off the index's (key, rid) order."""
    lookup: dict = {}
    for position in range(len(index)):
        key, rid = index._entry(position)
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


def one_leg_plan(db, index, kernel, ntests, probe=None):
    """``src(k)`` driving, ``t`` probed through *kernel* (and *probe*): the
    one-leg plan ``vector._adaptive_plan`` would hand ``_expand`` (its
    step, keeping both aliases' RIDs; the legs by position; the hash
    builds charged), and its leg."""
    if "src" not in db.catalog.table_names():
        db.create_table("src", [("k", "int")])
        db.insert("src", [(key,) for key in SOURCE_KEYS])
    source = db.catalog.table("src").column_store(0)
    leg = SimpleNamespace(
        alias="t",
        monitoring_enabled=True,
        monitor=LegMonitor(window=37),
        local_counts=[[0, 0] for _ in range(ntests)],
        incoming_since_check=0,
        rows_in=0,
        index_matches=0,
        rows_out=0,
    )
    step = _compile_step(
        "t",
        SimpleNamespace(key_alias="src"),
        kernel,
        index.row_ranks(source).take,
        index.lowest_rank_of(source),
        probe,
        0,
        (0,),
        True,
    )
    return leg, SimpleNamespace(steps=[step], legs=[None, leg], built=set())


def expand(meter, plan, survivors):
    """The shipped ``_expand`` over :func:`one_leg_plan`'s *plan*, as a
    monitored run calls it."""
    return _expand(meter, plan.steps, plan.legs, survivors, plan.built, True)


def check_leg(rng, db, index, kernel, lookup, raw, tests, is_after=None):
    """Probe chunks through the shipped ``_expand`` over *kernel* and
    through the scalar probe; compare the emitted RIDs, every meter field,
    the local counts, the flow counters and the window fold at each chunk
    boundary. The last chunk probes only keys that match, and
    ``kernel.unique`` must be what a brute-force count of each key's
    matching rows says."""
    leg, plan = one_leg_plan(db, index, kernel, len(tests))
    passing = {
        key: len(scalar_probe(key, lookup, raw, tests, is_after)[5])
        for key in lookup
    }
    assert kernel.unique == (max(passing.values(), default=0) <= 1)
    matching = [key for key, count in passing.items() if count]
    meter = WorkMeter()
    scalar_meter = WorkMeter()
    window_scalar = AggregatedWindow(size=37)
    scalar_counts = [[0, 0] for _ in tests]
    incoming = candidates = produced_total = 0
    chunks = rng.randint(1, 6)  # several chunks: exercise eviction
    for number in range(chunks + 1):
        if number == chunks:
            # Every probe matches: a unique kernel gathers no ancestor.
            if not matching:
                break
            chunk = rng.choices(matching, k=rng.randint(1, 60))
        else:
            chunk = random_probe_keys(rng, rng.randint(1, 60))
            if rng.random() < 0.15:  # no key of this chunk is in the index
                chunk = [key for key in chunk if key not in lookup] or [None]
        flow = len(chunk)
        incoming += flow
        survivors = _np.asarray(
            [SOURCE_RID[key] for key in chunk], dtype=_np.int64
        )
        ancestors, produced = expand(meter, plan, survivors)

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
        assert len(ancestors) == 2  # src, t
        assert produced == len(scalar_rows)
        assert (
            list(zip(ancestors[0].tolist(), ancestors[1].tolist()))
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


def unique_key_rows(rng: random.Random) -> list[tuple]:
    """``random_rows`` whose keys are each held at most once: a random
    subset of the key space, plus some NULL keys, in random order."""
    keys = rng.sample(range(KEY_SPACE + 1), rng.randint(1, KEY_SPACE + 1))
    keys += [None] * rng.randrange(4)
    rng.shuffle(keys)
    rows = random_rows(rng, len(keys))
    return [(key, *row[1:]) for key, row in zip(keys, rows)]


def check_random_leg(rng, rows, npredicates):
    """:func:`check_leg` over ``t(k, a, b, s)`` holding *rows*, probed on
    ``k`` through the kernel of *npredicates* random local predicates."""
    db = Database(backend="columnar")
    db.create_table(
        "t", [("k", "int"), ("a", "int"), ("b", "float"), ("s", "string")]
    )
    db.insert("t", rows)
    db.create_index("t", "k")
    table = db.catalog.table("t")
    index = db.catalog.index_on("t", "k")
    schema = table.schema
    raw = table_rows(table)

    predicates = [random_predicate(rng) for _ in range(npredicates)]
    local_tests = []
    for predicate in predicates:
        local_tests.append((predicate, predicate.bind(schema)))
    kernel = index.cascade_groups(local_tests)
    assert kernel is not None, "vectorizable leg refused a kernel"
    tests = [test for _, test in local_tests]
    check_leg(rng, db, index, kernel, rids_by_key(index), raw, tests)
    return kernel


@pytest.mark.parametrize("seed", range(25))
def test_kernel_chunk_folds_match_scalar_probe_folds(seed):
    rng = random.Random(5_151_000 + seed)
    rows = random_rows(rng, rng.randint(1, 150))
    check_random_leg(rng, rows, rng.randrange(3))


@pytest.mark.parametrize("npredicates", [0, 1, 2])
@pytest.mark.parametrize("seed", range(8))
def test_unique_key_gathers_match_scalar_probe_folds(seed, npredicates):
    """A key held at most once: ``_expand``'s gather step, not the CSR
    expansion, against the same scalar probe."""
    rng = random.Random(7_272_000 + seed)
    kernel = check_random_leg(rng, unique_key_rows(rng), npredicates)
    assert kernel.unique


# ---------------------------------------------------------------------------
# Hash probes and residual joins: the steps a leg's ``_Probe`` adds.
#
# A hash-probed leg (no index on its join column) probes the buckets of a
# build over the rows passing its locals: the leg's first probe with flow
# charges the build — a fetch per table row, the locals' short-circuit evals
# over every row, an entry per passing row with a key — and, monitored, adds
# table-wide local counts; every probe then charges a probe and its bucket's
# matches. Residual join terms run after the locals, one eval per candidate
# still alive, a NULL on either side never matching.
# ---------------------------------------------------------------------------


def local_tests_of(table, predicates) -> list:
    pairs = []
    for predicate in predicates:
        pairs.append((predicate, predicate.bind(table.schema)))
    return pairs


def scalar_hash_build(raw, tests):
    """The build, reimplemented: ``(buckets, fetches, evals, entries,
    per-test [evaluated, passed])`` over every row, RID order."""
    buckets: dict = {}
    counts = [[0, 0] for _ in tests]
    evals = entries = 0
    for rid, row in enumerate(raw):
        for slot, test in enumerate(tests):
            evals += 1
            counts[slot][0] += 1
            if not test(row):
                break
            counts[slot][1] += 1
        else:
            if row[0] is not None:
                buckets.setdefault(row[0], []).append(rid)
                entries += 1
    return buckets, len(raw), evals, entries, counts


def check_probed_leg(rng, plan, leg, scalar, chunk_keys):
    """Chunks of src RIDs through the shipped ``_expand`` and through
    *scalar* (``source rid -> (meter deltas, matches, output RIDs, work)``,
    one call per probe); compare emitted RIDs, every meter field, the
    local counts, the flow counters and the window at every boundary."""
    meter = WorkMeter()
    scalar_meter = WorkMeter()
    window_scalar = AggregatedWindow(size=37)
    incoming = candidates = produced_total = 0
    for _ in range(rng.randint(2, 6)):  # several chunks: eviction
        survivors = _np.asarray(chunk_keys(), dtype=_np.int64)
        ancestors, produced = expand(meter, plan, survivors)
        scalar_rows = []
        sum_matches = 0
        sum_work = 0.0
        for source_rid in survivors.tolist():
            deltas, matches, matched, work = scalar(source_rid)
            for field, value in deltas.items():
                setattr(scalar_meter, field, getattr(scalar_meter, field) + value)
            scalar_meter.monitor_updates += 1
            scalar_rows += [(source_rid, rid) for rid in matched]
            sum_matches += matches
            sum_work += work
        flow = len(survivors)
        window_scalar.observe_chunk(flow, sum_matches, len(scalar_rows), sum_work)
        incoming += flow
        candidates += sum_matches
        produced_total += len(scalar_rows)
        assert produced == len(scalar_rows)
        assert (
            list(zip(ancestors[0].tolist(), ancestors[1].tolist()))
            == scalar_rows
        )
        assert dataclasses.asdict(meter) == dataclasses.asdict(scalar_meter)
        assert leg.incoming_since_check == incoming
        assert (leg.rows_in, leg.index_matches, leg.rows_out) == (
            incoming, candidates, produced_total,
        )
        window = leg.monitor.window
        assert len(window) == len(window_scalar)
        assert window.sum_matches == window_scalar.sum_matches
        assert window.sum_output == window_scalar.sum_output
        assert window.sum_work == window_scalar.sum_work
    return produced_total


@pytest.mark.parametrize("seed", range(10))
def test_hash_probed_leg_folds_match_scalar_hash_probe_folds(seed):
    """No index on ``t.k``: the cascade probes the hash build's buckets.
    The first probe carries the build's work into its chunk's fold and the
    build's table-wide counts into the leg's local counts; no probe
    evaluates a local predicate after that."""
    rng = random.Random(4_848_000 + seed)
    db = Database(backend="columnar")
    db.create_table(
        "t", [("k", "int"), ("a", "int"), ("b", "float"), ("s", "string")]
    )
    db.insert("t", random_rows(rng, rng.randint(1, 150)))
    table = db.catalog.table("t")
    raw = table_rows(table)
    local_tests = local_tests_of(
        table, [random_predicate(rng) for _ in range(rng.randrange(3))]
    )
    tests = [test for _, test in local_tests]
    build = table.hash_build("k", local_tests)
    assert table.hash_build("k", local_tests) is build  # one per version
    assert "k" not in db.catalog.indexes_of("t")  # unregistered
    buckets, fetches, evals, entries, build_counts = scalar_hash_build(
        raw, tests
    )
    assert (build.rows, build.evals, build.entries) == (fetches, evals, entries)
    leg, plan = one_leg_plan(
        db, build.index, build.kernel, len(tests), _Probe(build, ())
    )
    built = []

    def scalar(source_rid):
        key = SOURCE_KEYS[source_rid]
        bucket = buckets.get(key, []) if key is not None else []
        deltas = {"hash_probes": 1, "hash_matches": len(bucket)}
        work = HASH_PROBE_COST + len(bucket) * HASH_MATCH_COST
        if not built:  # the leg's first probe builds
            built.append(True)
            deltas.update(
                row_fetches=fetches,
                predicate_evals=evals,
                hash_build_entries=entries,
            )
            work += (
                fetches * ROW_FETCH_COST
                + evals * PREDICATE_EVAL_COST
                + entries * HASH_BUILD_ENTRY_COST
            )
        return deltas, len(bucket), bucket, work

    def chunk_keys():
        return [SOURCE_RID[key] for key in random_probe_keys(rng, rng.randint(1, 60))]

    check_probed_leg(rng, plan, leg, scalar, chunk_keys)
    # Table-wide, once: what the build counted, not what the probes saw.
    assert leg.local_counts == build_counts
    assert plan.built == {("t", "k")}
    assert build.kernel.unique == (
        max(map(len, buckets.values()), default=0) <= 1
    )


@pytest.mark.parametrize("nterms", [1, 2])
@pytest.mark.parametrize("seed", range(8))
def test_residual_join_folds_match_scalar_residual_probe_folds(seed, nterms):
    """Residual join terms on an index-probed leg, NULL cells on both
    sides and strings the leg never holds included: the mask over the
    expanded tuples charges what ``_passes_residuals`` charges, term by
    term, and the fold's output is the masked count."""
    rng = random.Random(3_737_000 + seed)
    db = Database(backend="columnar")
    db.create_table(
        "t", [("k", "int"), ("a", "int"), ("b", "float"), ("s", "string")]
    )
    rows = [
        (k, None if a is None else a % 3, b, s)
        for k, a, b, s in random_rows(rng, rng.randint(1, 150))
    ]
    db.insert("t", rows)
    db.create_index("t", "k")
    # Three src rows per key, with the outer cells the residuals compare.
    db.create_table("src", [("k", "int"), ("ra", "int"), ("rs", "string")])
    source_rows = [
        (
            key,
            None if rng.random() < 0.2 else rng.randint(0, 2),
            None if rng.random() < 0.2 else rng.choice((*STRINGS, "zeta")),
        )
        for key in SOURCE_KEYS
        for _ in range(3)
    ]
    db.insert("src", source_rows)
    table = db.catalog.table("t")
    source = db.catalog.table("src")
    index = db.catalog.index_on("t", "k")
    raw = table_rows(table)
    local_tests = local_tests_of(
        table, [random_predicate(rng) for _ in range(rng.randrange(2))]
    )
    tests = [test for _, test in local_tests]
    # (outer slot, own slot) per term, in the probe config's order.
    terms = rng.sample([(1, 1), (2, 3)], nterms)
    probe = _Probe(
        None,
        tuple(
            (0, *_residual_cells(source, outer, table, own))
            for outer, own in terms
        ),
    )
    leg, plan = one_leg_plan(
        db, index, index.cascade_groups(local_tests), len(tests), probe
    )
    lookup = rids_by_key(index)
    scalar_counts = [[0, 0] for _ in tests]

    def scalar(source_rid):
        outer_row = source_rows[source_rid]
        descends, entries, fetched, evals, counts, matched = scalar_probe(
            outer_row[0], lookup, raw, tests
        )
        for slot, (evaluated, passed) in enumerate(counts):
            scalar_counts[slot][0] += evaluated
            scalar_counts[slot][1] += passed
        out = []
        for rid in matched:
            for outer, own in terms:
                evals += 1
                cell = raw[rid][own]
                if cell is None or cell != outer_row[outer]:
                    break
            else:
                out.append(rid)
        deltas = {
            "index_descends": descends,
            "index_entries": entries,
            "row_fetches": fetched,
            "predicate_evals": evals,
        }
        work = (
            descends * INDEX_DESCEND_COST
            + entries * INDEX_ENTRY_COST
            + fetched * ROW_FETCH_COST
            + evals * PREDICATE_EVAL_COST
        )
        return deltas, fetched, out, work

    def chunk_keys():
        return rng.choices(range(len(source_rows)), k=rng.randint(1, 60))

    check_probed_leg(rng, plan, leg, scalar, chunk_keys)
    assert leg.local_counts == scalar_counts
    assert leg.rows_out < leg.index_matches  # not vacuous: the mask cut


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


def _positional_rows(rng: random.Random, rows: list[tuple]) -> list[tuple]:
    """*rows* plus two scan-key columns with few distinct values (frozen
    positions land inside runs of equal keys) and NULLs."""
    out = []
    for row in rows:
        sk_num = None if rng.random() < 0.10 else rng.randint(0, 4)
        sk_str = None if rng.random() < 0.10 else rng.choice(SCAN_STRINGS)
        out.append(row + (sk_num, sk_str))
    return out


def check_frozen_leg(rng, rows, scan_order):
    """:func:`check_leg` over positional kernels of ``t`` holding *rows*
    (with :func:`_positional_rows`' scan keys), frozen three times along
    *scan_order*."""
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
    db.insert("t", _positional_rows(rng, rows))
    db.create_index("t", "k")
    table = db.catalog.table("t")
    index = db.catalog.index_on("t", "k")
    raw = table_rows(table)

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
        positions = [scan_index._entry(p) for p in range(len(scan_index))]
        predicates.insert(
            rng.randrange(len(predicates) + 1),
            IsNull(scan_order, negated=True),
        )
    local_tests = []
    for predicate in predicates:
        local_tests.append((predicate, predicate.bind(table.schema)))
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


@pytest.mark.parametrize("scan_order", ["rid", "sk_num", "sk_str"])
@pytest.mark.parametrize("seed", range(8))
def test_positional_kernel_matches_scalar_frozen_probe(seed, scan_order):
    rng = random.Random(9_393_000 + seed)
    check_frozen_leg(rng, random_rows(rng, rng.randint(2, 150)), scan_order)


@pytest.mark.parametrize("scan_order", ["rid", "sk_num"])
@pytest.mark.parametrize("seed", range(4))
def test_unique_key_positional_kernel_matches_scalar_frozen_probe(
    seed, scan_order
):
    """A restriction of a unique kernel is unique: the gather step over a
    frozen leg."""
    rng = random.Random(6_161_000 + seed)
    check_frozen_leg(rng, unique_key_rows(rng), scan_order)


def test_positional_kernel_tie_at_the_rid_boundary():
    """``key == v`` rows split on the RID; NULL scan keys never get there."""
    db = Database(backend="columnar")
    db.create_table("t", [("k", "int"), ("sk", "string")])
    db.insert("t", [(7, "b"), (7, "b"), (7, "b"), (7, "c"), (7, None), (7, "a")])
    db.create_index("t", "k")
    db.create_index("t", "sk")
    table = db.catalog.table("t")
    predicate = IsNull("sk", negated=True)
    test = predicate.bind(table.schema)
    index = db.catalog.index_on("t", "k")
    base = index.cascade_groups([(predicate, test)])
    order = ScanOrder(table, db.catalog.index_on("t", "sk"))
    kernel = _positional_kernel(
        base, PositionalPredicate(order=order, after=("b", 1)), len(table)
    )
    assert index.distinct_key_count() == 1
    j = 0  # key 7's rank
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
# charge each slice as one aggregate; the walk is the engine's scan, so a
# freeze keeps it and a resume takes from it again. Everything a decision,
# a freeze or a resume can read afterwards — the meter, the scan's last
# position and remaining fraction — must be what pulling the same rows one
# ``__next__`` at a time leaves behind on the row store's twin cursor, at
# every slice boundary, for multi-range scans included. The driving
# monitor folds each slice as one window entry; the twin folds the same
# rows' flags as one aggregate at the same boundary, so its counts and
# window agree exactly too.
# ---------------------------------------------------------------------------

import dataclasses  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from repro.core.monitor import DrivingMonitor  # noqa: E402
from repro.core.ranks import remaining_scan_fraction  # noqa: E402
from repro.executor.vector import _DrivingWalk  # noqa: E402
from repro.storage.cursor import (  # noqa: E402
    IndexScanCursor,
    KeyRange,
    ScanOrder,
    TableScanCursor,
    scan_ranges,
)


def _row_at_a_time(cursor, leg, mask, limit):
    """Pull rows until *limit* survivors (None: to exhaustion), charging
    what ``RuntimeLeg.driving_rows`` does; the rows' flags are folded at
    the boundaries where a walk folds them: through the last survivor (one
    ``take``), then whatever trails it (``finish``).
    """
    survivors = []
    flags = []
    while limit is None or len(survivors) < limit:
        try:
            rid, _row = next(cursor)
        except StopIteration:
            break
        leg.meter.charge_predicate_eval(1)
        survived = bool(mask[rid])
        flags.append(survived)
        leg.meter.charge_monitor_update()
        leg.rows_scanned += 1
        if survived:
            leg.rows_survived += 1
            survivors.append(rid)
    head = len(flags) - flags[::-1].index(True) if survivors else 0
    for part in (flags[:head], flags[head:]):
        if part:
            leg.driving_monitor.record_chunk(len(part), sum(part))
    return survivors


def _scan_state(scan, leg):
    monitor = leg.driving_monitor
    return (
        dataclasses.asdict(leg.meter),
        scan.last_position,
        remaining_scan_fraction(scan),
        (
            monitor.entries_scanned,
            monitor.rows_survived,
            len(monitor.window),
            monitor.window.sum_matches,
        ),
        (leg.rows_scanned, leg.rows_survived),
    )


@pytest.mark.parametrize("kind", ["table", "index"])
@pytest.mark.parametrize("seed", range(20))
def test_driving_walk_slices_match_row_at_a_time_cursor(seed, kind):
    rng = random.Random(4_848_000 + seed)
    dbs, tables, indexes, legs = [], [], [], []
    rows = random_rows(rng, rng.randint(1, 120))
    ranges = None
    # The walk over the columnar store and its row-at-a-time twin cursor on
    # the row store.
    for backend in ("columnar", "row"):
        db = Database(backend=backend)
        db.create_table(
            "t", [("k", "int"), ("a", "int"), ("b", "float"), ("s", "string")]
        )
        db.insert("t", rows)
        db.create_index("t", "k")
        tables.append(db.catalog.table("t"))
        indexes.append(db.catalog.index_on("t", "k") if kind == "index" else None)
        if not dbs and kind == "index":
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
        dbs.append(db)
        legs.append(
            SimpleNamespace(
                meter=tables[-1].meter,
                driving_monitor=DrivingMonitor(rng.choice((3, 7, 1000))),
                monitoring_enabled=True,
                rows_scanned=0,
                rows_survived=0,
            )
        )
    legs[1].driving_monitor = DrivingMonitor(legs[0].driving_monitor.window.size)
    mask = _np.asarray([rng.random() < 0.4 for _ in rows], dtype=bool)
    walk = _DrivingWalk(
        ScanOrder(tables[0], indexes[0]),
        None if ranges is None else scan_ranges(ranges),
        [mask],
    ).restarted(legs[0].meter, legs[0], True)
    if kind == "index":
        single = IndexScanCursor(indexes[1], list(ranges))
    else:
        single = TableScanCursor(tables[1])
    finished = False
    while not finished:
        # A run of slices, then (as after a driving switch and a switch
        # back) the same walk taken from again, and again.
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
            assert _scan_state(walk, legs[0]) == _scan_state(single, legs[1])
            if finished:
                assert single.exhausted and walk.taken == len(walk.rids)
                break
