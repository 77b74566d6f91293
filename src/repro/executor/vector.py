"""The vectorized join cascade: whole chunks of a query as array computations.

What a nested-loop join costs in Python is the state machine itself. On
a columnar store the join collapses into a layered array computation per
driving chunk:

1. the driving scan becomes an index-entry (or RID-range) slice plus a
   boolean mask for the residual local predicates;
2. each inner leg gathers the *ranks* of its probe keys in the probed
   index's distinct keys from the row-rank array the index keeps
   for the key's source column (:meth:`ColumnarIndex.row_ranks`: built
   once per (source column, index) pair, not per chunk), then expands the
   flow through the leg's group kernel (:func:`_expand`): where no key has
   more than one passing row (``kernel.unique``, the FK -> PK lookup) one
   gather of the kernel's per-key first passing RID, a compare and a
   ``nonzero``, else one ``cumsum`` and one ``repeat`` — exactly the rows,
   in exactly the depth-first nested-loop order, of the scalar machine. A
   NULL key's rank is -1 and a missing key's -2; the kernel's per-key
   arrays end in two padding slots (zero counts, -1 first RIDs), so an
   absent key gathers "no entries, no matches" like any other key and no
   step masks it out. A step gathers only the arrays its charges need:
   none for an untested kernel's zero evals, none for the entries of a
   key index (one entry a key) probed from a column whose every key it
   holds. A hash-probed leg (no index on its join column, the Sec 6
   extension) expands the same way through the buckets of its hash build
   (:meth:`ColumnarTable.hash_build`), and residual join predicates
   (cyclic join graphs, Sec 4.3.4) are a mask over the expanded tuples
   (:class:`_Probe`);
3. work-meter charges are computed from the same per-key kernel aggregates
   the scalar probes charge (descend per probe, ``max(entries, 1)`` per
   present/missing key, fetch per candidate row, short-circuit-exact local
   evals; a hash probe and its bucket's matches, the build once), gathered
   through every rank of the chunk and summed per leg;
4. the chunk's projected rows leave as one list (:func:`_project`):
   ``run_to_completion`` extends its result with it, ``rows()`` streams it
   row by row.

One chunk loop (:func:`_run_cascade`) runs static plans
(:data:`STATIC_SLICE_ROWS` slices) and the monitored modes (kernel-folded
monitoring and boundary rank checks; chunks that start at
:data:`MONITORED_CHUNK_ROWS` and double while the checks change nothing;
nothing applied at a boundary that ends the driving scan).

Every statement a columnar database accepts runs here, from its first row
to its last: only a columnar database builds the executor that calls
:func:`cascade`, so every table and index here is columnar, and planning
refused what no mask reproduces (DESIGN.md Sec 2). A frozen leg's
positional predicate is a mask over the leg's group kernel
(:func:`_positional_kernel`). Resumed driving cursors are supported:
:class:`_DrivingWalk` reads the rest of the scan off the cursor's own
state, with the exact skip/termination rules of
:class:`~repro.storage.cursor.IndexScanCursor`, which is how the cascade
survives a driving switch.

The cascade is only observably different from the scalar machine in
*intermediate* meter states, which are visible at chunk boundaries alone:
a fault plan is consulted once per chunk at its sites (``cursor-advance``
per driving slice, ``index-lookup`` or ``hash-probe`` and ``monitor``
per inner leg), the
invariant oracle records each emitted tuple's RIDs off the chunk's
ancestor arrays, observability reads the legs' flow counters (bumped once
per chunk here) at cold sites only, and execution limits are enforced at
those boundaries — rows exactly, work / deadline / cancellation at most one
chunk late.
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple, Sequence

from repro.errors import StorageError
from repro.storage.columnar import _np
from repro.storage.compiled import vector_spec
from repro.storage.counters import (
    HASH_BUILD_ENTRY_COST,
    HASH_MATCH_COST,
    HASH_PROBE_COST,
    INDEX_DESCEND_COST,
    INDEX_ENTRY_COST,
    PREDICATE_EVAL_COST,
    ROW_FETCH_COST,
)
from repro.storage.cursor import IndexScanCursor

# What a step calls per leg, as the C functions numpy's Python wrappers
# call: on arrays of a few dozen elements the wrapper is most of the call.
if _np is not None:
    _sum = _np.add.reduce
    try:  # numpy >= 2
        from numpy._core.multiarray import count_nonzero as _count_nonzero
    except ImportError:  # pragma: no cover - numpy 1.x
        from numpy.core.multiarray import count_nonzero as _count_nonzero


#: Driving survivors the static cascade expands per slice. A static plan
#: never changes, so its slices exist only to bound what one expansion
#: holds in flight (slice x fan-out x legs int64 arrays) and how late a
#: deadline or cancellation is seen (one slice: tens of milliseconds).
#: 65,536 is far above every driving scan up to DMV scale 1.0 (3,734
#: survivors at the benchmark's scale 0.1), so those queries stay one
#: slice and pay the boundary once; the per-slice fixed cost (a few dozen
#: numpy calls per leg) is under 1% of a full slice's expansion.
STATIC_SLICE_ROWS = 1 << 16

#: Driving survivors in the first chunk of a monitored run: windows fold and
#: reorder checks fire once per chunk, and a chunk doubles after every
#: boundary that changed nothing, up to the slice.
#: Read at call time, like its neighbour.
MONITORED_CHUNK_ROWS = 256


def cascade(executor, legs: dict, start, cursor) -> Iterator[list]:
    """A generator running the open pipeline vectorized, to its end: one
    list of projected rows per chunk that emits any.

    One chunk loop (:func:`_run_cascade`) serves every mode and picks the
    chunk lengths. What the plan and the data alone decide is not derived
    here: a pipeline that starts as its plan describes runs the plan's
    prepared cascade *start* (:func:`cascade_start`), and a pipeline a
    caller moved first (no *start*) finds group kernels and the join keys'
    rank arrays memoized by the probed indexes. *legs* drive from *cursor*;
    or, with no cursor, they are :class:`~repro.executor.access.LegFlow`.
    """
    order = executor.order
    driving = legs[order[0]]
    if start is None:
        inner = _adaptive_plan(order, legs)
        return _run_cascade(executor, _driving_walk(driving, cursor), inner)
    template, walk = start
    inner = [
        (legs[alias], config, kernel, translate, lowest, probe)
        for alias, config, kernel, translate, lowest, probe in template
    ]
    return _run_cascade(executor, walk.restarted(driving, cursor), inner)


def cascade_start(order: Sequence[str], legs: dict) -> tuple:
    """The cascade's start for *legs* in *order*, as its plan describes it.

    ``(template, walk)``: per inner leg ``(alias, probe config, kernel,
    key-rank gather, lowest rank, probe)`` — :func:`_adaptive_plan`'s entry
    with the alias for the leg — and the fresh driving scan's walk with no
    leg or cursor of its own (:meth:`_DrivingWalk.restarted` gives it one).
    Part of a plan's prepared record: every execution that starts as the
    plan describes installs it, on any thread, so nothing here is ever
    written.
    """
    inner = _adaptive_plan(order, legs)
    leg = legs[order[0]]
    walk = _driving_walk(leg, leg.open_driving_cursor())
    walk.leg = walk.cursor = None
    for array in (walk.rids, walk.alive, walk.survivor_at):
        if array is not None:
            array.setflags(write=False)
    template = tuple((leg.alias, *rest) for leg, *rest in inner)
    return template, walk


class _DrivingWalk:
    """The rest of a driving scan as arrays, consumed a slice at a time.

    ``rids`` is every RID the cursor has yet to visit, in scan order (RID
    order, or the (key, RID) order of the cursor's ranges), read off the
    cursor's own state — so a fresh and a resumed cursor both work.
    ``survivor_at`` holds
    the walk offsets whose rows pass the residual local predicates (``None``
    when there are none to apply: every row survives).

    :meth:`take` consumes the walk through its next survivors and charges
    what :meth:`RuntimeLeg.driving_rows` charges for the same rows, as one
    aggregate: a fetch, an index-entry touch and ``len(residual tests)``
    predicate evals per row walked, one descend per key range entered, the
    driving monitor's fold (one window entry per take: rows walked, rows
    surviving) and the leg's scanned / survived counters. It then puts the
    cursor exactly where the row-at-a-time walk would have left it, so a
    driving switch freezes the right position and a resumed cursor
    continues with no charge repeated or lost. A walk with no cursor
    charges the same and positions nothing.
    """

    __slots__ = (
        "leg",
        "cursor",
        "rids",
        "alive",
        "survivor_at",
        "ntests",
        "taken",
        "survivors",
        "survivors_taken",
        "spans",
        "span_starts",
        "spans_entered",
    )

    def __init__(self, leg, cursor, masks: list) -> None:
        self.leg = leg
        self.cursor = cursor
        self.ntests = len(masks)
        self.taken = 0
        self.survivors_taken = 0
        if isinstance(cursor, IndexScanCursor):
            ent_rids = cursor.index._ent_rids
            self.spans = cursor.remaining_spans()
            pieces = []
            self.span_starts = []
            walked = 0
            for _, lo, hi in self.spans:
                self.span_starts.append(walked)
                if hi > lo:
                    pieces.append(ent_rids[lo:hi])
                    walked += hi - lo
            # The range the cursor is already reading owes no descend.
            self.spans_entered = (
                1 if self.spans and self.spans[0][0] == cursor._range_no else 0
            )
            if len(pieces) == 1:
                self.rids = pieces[0]
            elif pieces:
                self.rids = _np.concatenate(pieces)
            else:
                self.rids = _np.zeros(0, dtype=_np.int64)
        else:
            self.spans = self.span_starts = None
            self.spans_entered = 0
            pending = cursor.remaining_rids()
            self.rids = _np.arange(
                pending.start, pending.stop, dtype=_np.int64
            )
        if masks:
            alive = masks[0][self.rids]
            for mask in masks[1:]:
                alive &= mask[self.rids]
            self.alive = alive
            self.survivor_at = alive.nonzero()[0]
        else:
            self.alive = None
            self.survivor_at = None
        self.survivors = len(
            self.rids if self.survivor_at is None else self.survivor_at
        )

    def restarted(self, leg, cursor) -> "_DrivingWalk":
        """This walk from its start again, over *leg*'s fresh *cursor*.

        The arrays — what :meth:`__init__` derives from the scan — are this
        walk's, shared and never written; only the progress is new. How an
        execution starts from its plan's prepared walk
        (:func:`cascade_start`).
        """
        walk = _DrivingWalk.__new__(_DrivingWalk)
        walk.leg = leg
        walk.cursor = cursor
        walk.rids = self.rids
        walk.alive = self.alive
        walk.survivor_at = self.survivor_at
        walk.ntests = self.ntests
        walk.survivors = self.survivors
        walk.spans = self.spans
        walk.span_starts = self.span_starts
        walk.taken = walk.survivors_taken = walk.spans_entered = 0
        return walk

    def take(self, limit: int | None = None):
        """RIDs of the next *limit* survivors (all that are left when None).

        Consumes the walk through the last of them — not the non-survivors
        behind it, which belong to the next call (or to :meth:`finish`).
        Empty when no survivor is left.
        """
        first = self.survivors_taken
        left = self.survivors - first
        count = left if limit is None else min(limit, left)
        if count <= 0:
            return self.rids[:0]
        self.survivors_taken = last = first + count
        self.leg.rows_survived += count
        if self.survivor_at is None:
            self._consume(last)
            return self.rids[first:last]
        self._consume(int(self.survivor_at[last - 1]) + 1)
        return self.rids[self.survivor_at[first:last]]

    def finish(self) -> None:
        """Walk whatever trails the last survivor and exhaust the cursor."""
        self._consume(len(self.rids))
        if self.spans is not None:
            # Ranges with nothing (more) to yield are still entered on the
            # way to learning the scan is over.
            self.leg.meter.index_descends += len(self.spans) - self.spans_entered
            self.spans_entered = len(self.spans)
        if self.cursor is not None:
            self.cursor.exhausted = True

    def _consume(self, end: int) -> None:
        start = self.taken
        walked = end - start
        if walked <= 0:
            return
        self.taken = end
        leg = self.leg
        meter = leg.meter
        meter.row_fetches += walked
        if self.ntests:
            meter.predicate_evals += walked * self.ntests
        leg.rows_scanned += walked
        monitor = leg.driving_monitor
        if leg.monitoring_enabled and monitor is not None:
            alive = self.alive
            monitor.record_chunk(
                walked,
                walked
                if alive is None
                else int(_count_nonzero(alive[start:end])),
            )
            meter.monitor_updates += walked
        cursor = self.cursor
        if self.spans is None:
            if cursor is not None:
                cursor.skip(walked)
            return
        meter.index_entries += walked
        entered = self.spans_entered
        starts = self.span_starts
        while entered < len(starts) and starts[entered] < end:
            entered += 1
        meter.index_descends += entered - self.spans_entered
        self.spans_entered = entered
        if cursor is not None:
            # The last span entered is the one holding entry ``end - 1``.
            range_no, lo, hi = self.spans[entered - 1]
            cursor.skip_to(range_no, lo + end - starts[entered - 1], hi)


def _driving_walk(leg, cursor) -> _DrivingWalk:
    """The walk over *leg*'s open driving *cursor*."""
    pushed = leg.pushed_driving_predicate()
    table = leg.table
    masks = [
        table.mask_for_spec(vector_spec(predicate, table.schema))
        for predicate, _ in leg.local_tests
        if predicate is not pushed
    ]
    return _DrivingWalk(leg, cursor, masks)


class _Probe(NamedTuple):
    """What an inner leg's step does beyond an index probe: probe the
    leg's :class:`~repro.storage.columnar.HashBuild` (``build``; the Sec 6
    extension), and mask ``residuals`` (Sec 4.3.4): per residual join, in
    the probe config's order, ``(outer alias, outer cells, outer valid,
    own cells, own valid)`` of :func:`_residual_cells`."""

    build: Any
    residuals: tuple

    def step(self, meter, leg, ancestors, flow, touched, evals, missing, total):
        """Charge the chunk's probes of *leg* and mask its residuals:
        ``(ancestors, rows out, work)`` — the scalar probe's charges summed.
        The leg's first hash probe of the execution builds (as
        ``RuntimeLeg._hash_table_for`` does): its work lands in this
        chunk's fold, its table-wide local counts in the leg's. Each
        residual term costs an eval per tuple still alive, term by term
        (``RuntimeLeg._passes_residuals``).
        """
        build = self.build
        if build is None:  # an index probe: _expand's charges but the evals
            entries = touched + missing
            meter.index_descends += flow
            meter.index_entries += entries
            meter.row_fetches += touched
            work = (
                flow * INDEX_DESCEND_COST
                + entries * INDEX_ENTRY_COST
                + touched * ROW_FETCH_COST
            )
        else:
            meter.hash_probes += flow
            meter.hash_matches += touched
            work = flow * HASH_PROBE_COST + touched * HASH_MATCH_COST
            if build.index.column not in leg._hash_tables:
                leg._hash_tables[build.index.column] = build
                meter.row_fetches += build.rows
                meter.predicate_evals += build.evals
                meter.hash_build_entries += build.entries
                work += (
                    build.rows * ROW_FETCH_COST
                    + build.evals * PREDICATE_EVAL_COST
                    + build.entries * HASH_BUILD_ENTRY_COST
                )
                if leg.monitoring_enabled:
                    for counts, (evaluated, passed) in zip(
                        leg.local_counts, build.local_counts
                    ):
                        counts[0] += evaluated
                        counts[1] += passed
        out = total
        if self.residuals and total:
            rids = ancestors[leg.alias]
            alive = None
            for alias, outer, outer_ok, own, own_ok in self.residuals:
                evals += out
                outer_rids = ancestors[alias]
                equal = outer.take(outer_rids) == own.take(rids)
                if outer_ok is not None:
                    equal &= outer_ok.take(outer_rids)
                    equal &= own_ok.take(rids)
                alive = equal if alive is None else alive & equal
                out = int(_count_nonzero(alive))
            if out < total:
                keep = alive.nonzero()[0]
                ancestors = {alias: arr.take(keep) for alias, arr in ancestors.items()}
        meter.predicate_evals += evals
        return ancestors, out, work + evals * PREDICATE_EVAL_COST


def _residual_cells(outer_table, outer_slot: int, table, slot: int) -> tuple:
    """``(outer cells, outer valid, own cells, own valid)`` of one residual
    join, whole columns in a key space where ``==`` is the join's test."""
    outer = outer_table.column_store(outer_slot)
    own = table.column_store(slot)
    if own.kind == "str":
        # Outer strings as the leg's own codes: -2 where the leg's column
        # never holds the string, -3 for NULL; the leg's NULL is -1.
        lut = _np.full(len(outer.decode) + 1, -2, dtype=_np.int64)
        for code, text in enumerate(outer.decode):
            lut[code] = own.encode.get(text, -2)
        lut[-1] = -3
        return lut[outer.np_codes()], None, own.np_codes(), None
    return (*outer.np_values(), *own.np_values())


def _adaptive_plan(order: Sequence[str], legs: dict) -> list:
    """Per-leg kernels and key gathers for *legs* in *order*.

    Recomputed whenever the order or a probe epoch changes: an applied
    inner reorder permutes the cascade mid-scan, and a driving switch
    freezes the old driving leg behind a positional predicate — its kernel
    is then derived from the cached base kernel (:func:`_positional_kernel`)
    and lives only as long as this plan does. Kernels, hash builds and rank
    arrays are memoized by their index (a hash build by its table), so a
    rebuild is dictionary lookups unless the new order probes through a
    (column, index) pair nobody has yet. The plan's own starting order is
    derived once, into its prepared record (:func:`cascade_start`).

    One entry per inner leg: ``(leg, probe config, kernel, key-rank gather,
    lowest rank, probe)`` — the lowest rank the gather can yield
    (:meth:`~repro.storage.columnar.ColumnarIndex.lowest_rank_of`: -2 where
    a key can miss), the probe a :class:`_Probe` for a hash-probed leg or
    one with residual joins, None for a plain index probe.
    """
    inner: list = []
    for position in range(1, len(order)):
        leg = legs[order[position]]
        config = leg.probe_config
        table = leg.table
        build = None
        if config.hash_column is None:
            index = config.access_index
            kernel = index.cascade_groups(leg.local_tests)
        else:
            build = table.hash_build(config.hash_column, leg.local_tests)
            index, kernel = build.index, build.kernel
        if leg.positional is not None:
            kernel = _positional_kernel(kernel, leg.positional, len(table))
        residuals = tuple(
            (alias, *_residual_cells(legs[alias].table, outer_slot, table, slot))
            for (alias, outer_slot), (_, slot) in zip(
                config.residual_sources, config.residual_joins
            )
        )
        probe = (
            None
            if build is None and not residuals
            else _Probe(build, residuals)
        )
        source = legs[config.key_alias].table.column_store(config.key_slot)
        inner.append((
            leg,
            config,
            kernel,
            index.row_ranks(source).take,
            index.lowest_rank_of(source),
            probe,
        ))
    return inner


def _positional_kernel(base, positional, table_len: int):
    """*base* restricted to the rows after a frozen scan position.

    The frozen position is an offset into the leg's old scan order, so the
    positional predicate is a boolean mask over ``base.pass_rids``: in RID
    order ``rid > r``; in index order the entries after
    ``bisect_right(entries, (v, r))`` of the scan-order index, whatever the
    key type. Rows with a NULL scan key are in no entry and stay masked
    out — they never reach the positional test anyway, the pushed local
    predicate rejects them first (``RuntimeLeg._passes_residuals``).
    """
    index = positional.order.index
    if index is None:
        keep = base.pass_rids > positional.after[0]
    else:
        after = _np.zeros(table_len, dtype=bool)
        after[index._ent_rids[index._bisect_after(positional.after):]] = True
        keep = after[base.pass_rids]
    return base.restricted(keep)


def _plan_signature(executor) -> tuple:
    """Cheap change detector: any reorder or probe recompile moves this."""
    return (
        tuple(executor.order),
        tuple(leg.probe_epoch for leg in executor.legs.values()),
    )


def _expand(meter, inner: list, driving_alias: str, survivors) -> tuple[dict, int]:
    """One chunk's layered expansion: ``(ancestors, flow)``.

    ``ancestors[alias]`` maps every joined tuple the chunk produces to its
    RID at that alias, in depth-first nested-loop order. Each inner leg
    charges the scalar probes' work as kernel aggregates (descend per outer
    row; a key the index holds walks its full group — entries, fetches,
    short-circuit local evals; a missing key touches one entry; a NULL key
    descends only), adds the chunk's rows in / candidates / rows out to the
    leg's flow counters and, when monitored, folds the same aggregate into
    its window as the chunk's one entry. A hash-probed leg or one with
    residual joins charges through its :class:`_Probe` instead — the one
    test a leg's step adds.

    One path serves every key. A NULL key's rank is -1 and a missing key's
    -2, and every per-key kernel array ends in two padding slots
    (:class:`~repro.storage.columnar._Kernel`): zeros, so an absent key
    gathers no entries, no evals and no matches, and -1 in ``first_rids``,
    so it gathers "no match" — and, having no match, no tuple of the
    output reads the ``pass_offsets`` entry its rank wraps to. Only the
    missing keys' one entry each is counted apart, and only where the
    (source column, index) pair has a missing key at all.

    Two steps make the leg's tuples. A unique kernel (no key with more
    than one passing row) gathers its ``first_rids``: the outer rows whose
    gather is not -1 keep their place, their one match each is what they
    gathered — restricting the ancestors only when some probe missed. Any
    other kernel takes the CSR expansion. Charges, counters and folds are
    the same for both, and each reads only the arrays it needs: a
    test-free kernel's entries are its matches, and an untested kernel's
    evals are zero (:attr:`_Kernel.untested`), so neither is gathered.
    """
    flow = len(survivors)
    ancestors: dict[str, Any] = {driving_alias: survivors}
    for leg, pconfig, kernel, translate, lowest, probe in inner:
        if flow == 0:
            ancestors[leg.alias] = _np.zeros(0, dtype=_np.int64)
            continue
        ranks = translate(ancestors[pconfig.key_alias])
        missing = int(_count_nonzero(ranks == -2)) if lowest == -2 else 0
        first_rids = kernel.first_rids
        if first_rids is not None:
            # A gather: outer row i's one match, if any, is its key's first
            # passing row. Nothing to restrict when every probe matched.
            rids = first_rids.take(ranks)
            parent = (rids >= 0).nonzero()[0]
            total = len(parent)
            if total < flow:
                rids = rids.take(parent)
            else:
                parent = None
        else:
            # CSR gather: tuple t of outer row i comes ``ends[i] - t``
            # tuples before the end of row i's output, and reads pass_rids
            # that far before the end of row i's slice.
            matches = kernel.counts.take(ranks)
            ends = matches.cumsum()
            total = int(ends[-1])
            iota = _np.arange(max(flow, total))
            parent = iota[:flow].repeat(matches)
            shift = kernel.pass_offsets[1:].take(ranks)
            shift -= ends
            positions = shift.take(parent)
            positions += iota[:total]
            rids = kernel.pass_rids.take(positions)
        # Arrays a kernel shares are gathered once (a test-free kernel's
        # counts are its totals, a one-test kernel's evals too), and none
        # where every probe reads its key's one entry.
        if lowest >= 0 and kernel.one_entry:
            touched = flow
        elif kernel.totals is kernel.counts:
            touched = total
        else:
            touched = int(_sum(kernel.totals.take(ranks)))
        if kernel.untested:
            evals = 0
        elif kernel.evals is kernel.totals:
            evals = touched
        else:
            evals = int(_sum(kernel.evals.take(ranks)))
        if parent is not None:
            ancestors = {alias: arr.take(parent) for alias, arr in ancestors.items()}
        ancestors[leg.alias] = rids
        if probe is None:
            entries = touched + missing
            meter.index_descends += flow
            meter.index_entries += entries
            meter.row_fetches += touched
            meter.predicate_evals += evals
            out = total
        else:
            ancestors, out, work = probe.step(
                meter, leg, ancestors, flow, touched, evals, missing, total
            )
        leg.rows_in += flow
        leg.index_matches += touched
        leg.rows_out += out
        if leg.monitoring_enabled:
            meter.monitor_updates += flow
            if probe is None:
                work = (
                    flow * INDEX_DESCEND_COST
                    + entries * INDEX_ENTRY_COST
                    + touched * ROW_FETCH_COST
                    + evals * PREDICATE_EVAL_COST
                )
            # The lean aggregate: (incoming, index matches, output,
            # work), one window entry per chunk.
            leg.monitor.window.observe_chunk(flow, touched, out, work)
            # Test i evaluates the rows test i - 1 passed (``ev[i] is
            # pa[i - 1]``, ``ev[0] is totals``): one gather per test, and
            # none for the last unless a positional test follows it.
            passed = touched
            for counts, column in zip(leg.local_counts, kernel.pa):
                counts[0] += passed
                passed = (
                    total
                    if column is kernel.counts
                    else int(_sum(column.take(ranks)))
                )
                counts[1] += passed
            leg.incoming_since_check += flow
        flow = out
    return ancestors, flow


def _project(bound: dict, projection: Sequence, ancestors: dict, count: int) -> list:
    """The first *count* joined tuples of a chunk as projected result rows
    (*bound*: the prepared record's ``{alias: LegBinding}``)."""
    if not projection:  # degenerate empty projection
        return [()] * count
    return list(zip(*(
        bound[alias].table.cells(slot, ancestors[alias][:count])
        for alias, slot in projection
    )))


def _run_cascade(executor, walk: _DrivingWalk, inner: list):
    """Chunk loop: limits -> walk -> expand -> emit -> checks, folding inline.

    Runs the query to its end: every plan a check can rebuild is one the
    cascade runs (windows and counters are consistent at every boundary:
    each fold is applied where its numbers are computed). It yields one
    list of rows per chunk that emits any; an unmonitored run's boundary
    ends at the row budget (nothing checks, nothing can move the plan).

    Observable-parity contract with the scalar machine (for monitored
    plans: the scalar machine applying the same decisions at the same
    driving-row counts, ``tests/test_decision_replay.py``):

    * each chunk is the next ``chunk_rows`` survivors of the driving walk
      (:class:`_DrivingWalk`), which charges the scan work and the driving
      monitor for exactly the rows ``RuntimeLeg.driving_rows`` would have
      pulled to produce them and repositions the cursor, so freeze/resume
      positions are identical — including the trailing non-survivor scan
      landing *after* the final boundary's checks;
    * each inner leg's meter charges and window fold are the kernel sums
      of what the scalar probes charge row by row (:func:`_expand`; all
      cost constants exact binary fractions, so the float work sums are
      bit-identical under regrouping);
    * one window fold per leg per chunk — the driving leg's in the walk's
      take, each inner leg's in :func:`_expand` — so a window is within
      one fold's skew of the scalar machine's per-row window;
    * the rank-rule checks at chunk boundaries — one inner check at
      position 1 and one driving check per chunk. An applied inner
      reorder permutes the remaining legs mid-scan; a driving switch swaps
      the driving walk and puts the frozen leg behind a positional kernel
      (plan rebuild). These are the only calls into the controller, so
      any :class:`AdaptationHooks` implementation mutates the plan only
      where the cascade rebuilds it.

    Two rules the scalar machine does not share (it cannot see past its
    cursor; the replay contract holds whenever a decision is applied):

    * a boundary the walk reaches with no survivor left applies nothing —
      no reorder, no switch, no plan rebuild, no event. Only a text's
      first monitored run in its mode (``executor.learns_at_end``) still
      evaluates the two checks there, counted and charged, and the
      order they propose goes to the write-back (``proposed_order``);
    * chunk length follows the mode: a static plan takes
      :data:`STATIC_SLICE_ROWS` slices; a monitored one starts at
      :data:`MONITORED_CHUNK_ROWS` and doubles after every boundary that
      left :func:`_plan_signature` unchanged, up to the slice — an applied
      change keeps the length, it does not reset it.

    Execution limits are a chunk-boundary concern: cancellation, deadline
    and work budget are tested once per chunk, before the walk takes it
    (the scalar machine's position-0 safe point), so they are seen at most
    one chunk late and ``BudgetExceeded.work_units`` / ``driving_rows`` are
    exact to a chunk. The row budget is exact: a chunk that would overrun
    it emits only the rows still admitted, then raises — the caller holds
    precisely ``max_rows`` rows and ``rows_emitted`` says so. Either way
    the exception unwinds from a consistent state: folds applied, cursor
    at the chunk's end.
    """
    config = executor.config
    mode = config.mode
    check_freq = config.check_frequency
    controller = executor.controller
    meter = executor.catalog.meter
    faulty = executor.catalog.faults is not None
    limits = executor._enforcer
    oracle = executor.oracle
    monitored = mode.monitors
    reorders_inner = monitored and mode.reorders_inner
    reorders_driving = monitored and mode.reorders_driving
    # Only a check can move the plan, and only a monitored run checks.
    legs_map = executor.legs if monitored else None
    bound = executor.prepared.bindings.legs
    projection = executor.prepared.bindings.projection_slots
    plan_sig = _plan_signature(executor) if monitored else None
    slice_rows = STATIC_SLICE_ROWS
    chunk_rows = min(MONITORED_CHUNK_ROWS, slice_rows) if monitored else slice_rows
    while True:
        if limits is not None:
            limits.check()
        if faulty:
            executor.consult("cursor-advance")
        survivors = walk.take(chunk_rows)
        taken = len(survivors)
        if not taken:
            # No survivor left: the trailing non-survivors are scanned
            # after the last boundary's checks, as the scalar machine's
            # final next() does.
            walk.finish()
            executor.depleted_from = 0
            return
        executor.depleted_from = None
        executor.driving_rows_since_check += taken
        executor.driving_rows_total += taken

        if faulty:
            for leg, config, *_ in inner:  # before each leg's charges and fold
                executor.consult(
                    "index-lookup" if config.hash_column is None else "hash-probe"
                )
                if leg.monitoring_enabled:
                    try:
                        executor.consult("monitor")
                    except StorageError as exc:  # advisory, as a probe's is
                        leg._degrade_monitoring(exc)
        ancestors, flow = _expand(meter, inner, walk.leg.alias, survivors)
        admitted = flow if limits is None else limits.admit_rows(flow)
        meter.rows_emitted += admitted
        executor.rows_emitted += admitted
        if admitted:
            if oracle is not None:
                for rids in zip(*(ancestors[a][:admitted].tolist() for a in ancestors)):
                    oracle.record_emit(dict(zip(ancestors, rids)))
            yield _project(bound, projection, ancestors, admitted)

        # -- chunk boundary: the two checks ------------------------------
        if admitted < flow:
            limits.check_emit()  # raises: the row budget is spent
        if not monitored:
            continue
        if walk.survivors_taken == walk.survivors:
            # A finished scan applies nothing: whatever the checks find,
            # no row is left to run it on. A statement's first monitored
            # run still asks, for its next execution's sake.
            if not executor.learns_at_end:
                continue
            executor.scan_finished = True
        if (
            reorders_inner
            and len(executor.order) > 2
            and legs_map[executor.order[1]].incoming_since_check >= check_freq
        ):
            executor.depleted_from = 1
            controller.on_suffix_depleted(1)
        executor.depleted_from = 0
        if reorders_driving and executor.driving_rows_since_check >= check_freq:
            controller.on_pipeline_depleted()
        sig = _plan_signature(executor)
        if sig != plan_sig:
            inner = _adaptive_plan(executor.order, legs_map)
            # Whatever the controller returned: the plan says who drives.
            if walk.leg is not legs_map[executor.order[0]]:
                # A fresh (or resumed) driving cursor: a new walk.
                walk = _driving_walk(
                    legs_map[executor.order[0]], executor.driving_cursor
                )
            plan_sig = sig
        elif chunk_rows < slice_rows:
            # Nothing moved: ask half as often from here on.
            chunk_rows = min(2 * chunk_rows, slice_rows)
