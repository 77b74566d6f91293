"""The vectorized join cascade: whole chunks of a query as array computations.

What a nested-loop join costs in Python is the state machine itself. When
every leg is columnar and every probe is a pure indexed equality lookup,
the join collapses into a layered array computation per driving chunk:

1. the driving scan becomes an index-entry (or RID-range) slice plus a
   boolean mask for the residual local predicates;
2. each inner leg gathers the *ranks* of its probe keys in the probed
   index's distinct-key sidecar from the row-rank array the index keeps
   for the key's source column (:meth:`ColumnarIndex.row_ranks`: built
   once per (source column, index) pair, not per chunk), then expands the
   flow through the leg's group kernel with one ``cumsum`` and one
   ``repeat`` per leg (:func:`_expand`) — exactly the rows, in exactly the
   depth-first nested-loop order, of the scalar machine. A NULL key's rank
   is -1 and a missing key's -2; the kernel's per-key arrays end in two
   zero slots, so an absent key gathers "no entries, no matches" like any
   other count and no step masks it out;
3. work-meter charges are computed from the same per-key kernel aggregates
   the scalar probes charge (descend per probe, ``max(entries, 1)`` per
   present/missing key, fetch per candidate row, short-circuit-exact local
   evals), gathered through every rank of the chunk and summed per leg.

One chunk loop (:func:`_run_cascade`) runs static plans
(:data:`STATIC_SLICE_ROWS` slices) and the monitored modes (kernel-folded
monitoring and boundary rank checks; chunks that start at
:data:`MONITORED_CHUNK_ROWS` and double while the checks change nothing,
slices once the statement's plan-cache entry is settled; nothing applied
at a boundary that ends the driving scan).

Gates are strict — any unsupported shape returns ``None`` and the scalar
machine runs instead. The store is not one of them: only a columnar
database builds the executor that calls :func:`cascade`, so every table and
index here is columnar. The cascade requires index-equality probes with no
residual joins and vectorizable local predicates everywhere. A frozen
leg's positional predicate is not a gate: it is a mask over the leg's group
kernel (:func:`_positional_kernel`). Resumed driving cursors are supported:
:class:`_DrivingWalk` reads the rest of the scan off the cursor's own
state, with the exact skip/termination rules of
:class:`~repro.storage.cursor.IndexScanCursor`, which is how the cascade
survives a driving switch.

The cascade is only observably different from the scalar machine in
*intermediate* meter states, which are visible at chunk boundaries alone:
no faults, no oracle (the callers' entry conditions), observability reads
the legs' flow counters (bumped once per chunk here) at cold sites only,
and execution limits are enforced at those boundaries — rows exactly,
work / deadline / cancellation at most one chunk late.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.storage.columnar import ColumnarIndex, _np
from repro.storage.compiled import vector_spec
from repro.storage.counters import (
    INDEX_DESCEND_COST,
    INDEX_ENTRY_COST,
    PREDICATE_EVAL_COST,
    ROW_FETCH_COST,
)
from repro.storage.cursor import IndexScanCursor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executor.batch import BatchedPipelineExecutor


def _make_translator(source_column, index: ColumnarIndex) -> Callable | None:
    """Source-column RIDs -> ranks in *index* (-1 null, -2 missing), or None.

    A gather over the row-rank array *index* keeps for *source_column*
    (:meth:`ColumnarIndex.row_ranks`): the scalar
    ``rank.get(row[key_slot])`` per element, precomputed for every row.
    """
    row_ranks = index.row_ranks(source_column)
    return None if row_ranks is None else row_ranks.take


#: Driving survivors the static cascade expands per slice. A static plan
#: never changes, so its slices exist only to bound what one expansion
#: holds in flight (slice x fan-out x legs int64 arrays) and how late a
#: deadline or cancellation is seen (one slice: tens of milliseconds).
#: 65,536 is far above every driving scan up to DMV scale 1.0 (3,734
#: survivors at the benchmark's scale 0.1), so those queries stay one
#: slice and pay the boundary once; the per-slice fixed cost (a few dozen
#: numpy calls per leg) is under 1% of a full slice's expansion.
STATIC_SLICE_ROWS = 1 << 16

#: Driving survivors in the first chunk of a monitored run whose plan is
#: not settled: windows fold and reorder checks fire once per chunk, and a
#: chunk doubles after every boundary that changed nothing, up to the slice.
#: Read at call time, like its neighbour.
MONITORED_CHUNK_ROWS = 256


def cascade(executor: "BatchedPipelineExecutor") -> Iterator | None:
    """A generator running the open pipeline vectorized, or None to fall back.

    One chunk loop (:func:`_run_cascade`) serves every mode and picks the
    chunk lengths. The generator returns
    True when the query completed, False when a plan rebuilt mid-query is
    one the gates refuse and the caller must continue on the scalar machine
    with the partially consumed cursors.

    Must be called after ``_open_driving``/``_compile_all_probes``. Every
    gate failure returns None with ``executor.vector_gate_reason`` set and
    no state mutated, so the caller's fallback proceeds untouched. What the
    data alone decides is
    not derived here: group kernels and the join keys' rank arrays are
    memoized by the probed indexes (:func:`_adaptive_plan` looks them up),
    the starting probes come compiled with the plan.
    """
    planned = _cascade_plan(executor)
    if planned is None:
        return None
    return _run_cascade(executor, *planned)


def _cascade_plan(executor) -> tuple["_DrivingWalk", list] | None:
    """(driving walk, inner-leg plan) for the open pipeline, or None.

    The gates both cascades share; a failure names itself on
    ``executor.vector_gate_reason`` and mutates nothing else.
    """
    # Inner legs (kernels + key gathers) before the driving leg (the scan
    # as arrays): a refused plan should not pay for the walk.
    inner, reason = _adaptive_plan(executor)
    if reason is None:
        walk, reason = _driving_walk(
            executor.legs[executor.order[0]], executor.driving_cursor
        )
    if reason is not None:
        executor.vector_gate_reason = reason
        return None
    return walk, inner


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
    driving monitor's per-row records and the leg's scanned / survived
    counters. It then puts the cursor exactly where the row-at-a-time walk
    would have left it, so a driving switch
    freezes the right position and a resumed (or handed-off) cursor
    continues with no charge repeated or lost.
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
            self.spans = None
            pending = cursor.remaining_rids()
            self.rids = _np.arange(
                pending.start, pending.stop, dtype=_np.int64
            )
        if masks:
            alive = masks[0][self.rids]
            for mask in masks[1:]:
                alive &= mask[self.rids]
            self.alive = alive
            self.survivor_at = _np.flatnonzero(alive)
        else:
            self.alive = None
            self.survivor_at = None
        self.survivors = len(
            self.rids if self.survivor_at is None else self.survivor_at
        )

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
            monitor.observe_many(
                [1] * walked
                if self.alive is None
                else self.alive[start:end].tolist()
            )
            meter.monitor_updates += walked
        if self.spans is None:
            self.cursor.skip(walked)
            return
        meter.index_entries += walked
        entered = self.spans_entered
        starts = self.span_starts
        while entered < len(starts) and starts[entered] < end:
            entered += 1
        meter.index_descends += entered - self.spans_entered
        self.spans_entered = entered
        # The last span entered is the one holding entry ``end - 1``.
        range_no, lo, hi = self.spans[entered - 1]
        self.cursor.skip_to(range_no, lo + end - starts[entered - 1], hi)


def _driving_walk(leg, cursor) -> tuple[_DrivingWalk | None, str | None]:
    """The walk over *leg*'s open driving *cursor*, or a gate reason."""
    alias = leg.alias
    if isinstance(cursor, IndexScanCursor):
        cursor.index._sidecar()
    pushed = leg.pushed_driving_predicate()
    table = leg.table
    masks = []
    for predicate, _ in leg.local_tests:
        if predicate is pushed:
            continue
        spec = vector_spec(predicate, table.schema)
        mask = table.mask_for_spec(spec) if spec is not None else None
        if mask is None:
            return None, f"leg {alias!r}: non-vectorizable local predicates"
        masks.append(mask)
    return _DrivingWalk(leg, cursor, masks), None


def _adaptive_plan(executor) -> tuple[list | None, str | None]:
    """Per-leg kernels and key gathers for the *current* order, or a gate reason.

    Recomputed whenever the order or a probe epoch changes: an applied
    inner reorder permutes the cascade mid-scan, and a driving switch
    freezes the old driving leg behind a positional predicate — its kernel
    is then derived from the cached base kernel (:func:`_positional_kernel`)
    and lives only as long as this plan does. Kernels and rank arrays are
    memoized by their index, so a rebuild is dictionary lookups unless the
    new order probes through a (column, index) pair nobody has yet.

    One entry per inner leg: ``(leg, probe config, kernel, key-rank gather,
    whether the gather can yield a missing key's -2)``.
    """
    order = executor.order
    inner: list = []
    for position in range(1, len(order)):
        alias = order[position]
        leg = executor.legs[alias]
        config = leg.probe_config
        if config is None or config.hash_column is not None:
            return None, f"leg {alias!r}: hash-probed or uncompiled access"
        if config.residual_joins:
            return None, f"leg {alias!r}: residual join predicates"
        index = config.access_index
        kernel = index.cascade_groups(leg.local_tests)
        if kernel is None:
            return None, f"leg {alias!r}: non-vectorizable local predicates"
        if leg.positional is not None:
            kernel = _positional_kernel(kernel, leg.positional, len(leg.table))
        source = executor.legs[config.key_alias].table.column_store(
            config.key_slot
        )
        translate = _make_translator(source, index)
        if translate is None:
            return None, f"leg {alias!r}: untranslatable key column"
        inner.append(
            (leg, config, kernel, translate, index.misses_keys_of(source))
        )
    return inner, None


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
        index._sidecar()
        after = _np.zeros(table_len, dtype=bool)
        offset = bisect_right(index._entries, positional.after)
        after[index._ent_rids[offset:]] = True
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
    leg's flow counters and, when monitored, defers the same aggregate as
    its window fold for the chunk.

    One path serves every key. A NULL key's rank is -1 and a missing key's
    -2, and every per-key kernel array ends in two zero slots
    (:class:`~repro.storage.columnar._Kernel`), so an absent key gathers no
    entries, no evals and no matches — and, having no match, no tuple of
    the output reads the ``pass_offsets`` entry its rank wraps to. Only the
    missing keys' one entry each is counted apart, and only where the
    (source column, index) pair has a missing key at all.
    """
    flow = len(survivors)
    ancestors: dict[str, Any] = {driving_alias: survivors}
    for leg, pconfig, kernel, translate, may_miss in inner:
        if flow == 0:
            ancestors[leg.alias] = _np.zeros(0, dtype=_np.int64)
            continue
        ranks = translate(ancestors[pconfig.key_alias])
        missing = int(_np.count_nonzero(ranks == -2)) if may_miss else 0
        matches = kernel.counts.take(ranks)
        ends = matches.cumsum()
        total = int(ends[-1])
        # Arrays a kernel shares are gathered once (a test-free kernel's
        # counts are its totals, a one-test kernel's evals too).
        touched = (
            total
            if kernel.totals is kernel.counts
            else int(kernel.totals.take(ranks).sum())
        )
        evals = (
            touched
            if kernel.evals is kernel.totals
            else int(kernel.evals.take(ranks).sum())
        )
        entries = touched + missing
        meter.index_descends += flow
        meter.index_entries += entries
        meter.row_fetches += touched
        meter.predicate_evals += evals
        leg.rows_in += flow
        leg.index_matches += touched
        leg.rows_out += total
        if leg.monitoring_enabled:
            meter.monitor_updates += flow
            # The lean aggregate: (incoming, index matches, output,
            # work) — deferred, applied as one window entry per chunk.
            leg.monitor.defer_chunk(
                flow,
                touched,
                total,
                flow * INDEX_DESCEND_COST
                + entries * INDEX_ENTRY_COST
                + touched * ROW_FETCH_COST
                + evals * PREDICATE_EVAL_COST,
            )
            # Test i evaluates the rows test i - 1 passed (``ev[i] is
            # pa[i - 1]``, ``ev[0] is totals``): one gather per test, and
            # none for the last unless a positional test follows it.
            passed = touched
            for counts, column in zip(leg.local_counts, kernel.pa):
                counts[0] += passed
                passed = (
                    total
                    if column is kernel.counts
                    else int(column.take(ranks).sum())
                )
                counts[1] += passed
            leg.incoming_since_check += flow
        # CSR gather: tuple t of outer row i comes ``ends[i] - t`` tuples
        # before the end of row i's output, and reads pass_rids that far
        # before the end of row i's slice.
        iota = _np.arange(max(flow, total))
        parent = iota[:flow].repeat(matches)
        shift = kernel.pass_offsets[1:].take(ranks)
        shift -= ends
        positions = shift.take(parent)
        positions += iota[:total]
        ancestors = {alias: arr.take(parent) for alias, arr in ancestors.items()}
        ancestors[leg.alias] = kernel.pass_rids.take(positions)
        flow = total
    return ancestors, flow


def _project(legs_map, projection: Sequence, ancestors: dict, count: int):
    """The first *count* joined tuples of a chunk as projected result rows."""
    if not projection:  # degenerate empty projection
        return repeat((), count)
    return zip(*(
        legs_map[alias].table.cells(slot, ancestors[alias][:count])
        for alias, slot in projection
    ))


def _run_cascade(executor, walk: _DrivingWalk, inner: list):
    """Chunk loop: limits -> consume -> expand -> emit -> fold -> checks.

    Returns True when the query completed, False to hand the partially
    consumed cursors back to the scalar machine at a chunk boundary
    (windows flushed, counters consistent).

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
    * one window fold per leg per chunk, applied at the boundary before
      any check or snapshot can read a window (``_flush_chunk_folds``);
    * the rank-rule checks at chunk boundaries — one inner check at
      position 1 and one driving check per chunk. An applied inner
      reorder permutes the remaining legs mid-scan; a driving switch swaps
      the driving walk and puts the frozen leg behind a positional kernel
      (plan rebuild).

    Two rules the scalar machine does not share (it cannot see past its
    cursor; the replay contract holds whenever a decision is applied):

    * a boundary the walk reaches with no survivor left applies nothing —
      no reorder, no switch, no plan rebuild, no event. Only the first
      monitored run of a plan-cache entry (``executor.learns_at_end``)
      still evaluates the two checks there, counted and charged, and the
      order they propose goes to the write-back (``proposed_order``);
    * chunk length follows what the plan knows: a static or settled plan
      takes :data:`STATIC_SLICE_ROWS` slices; any other starts at
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
    the exception unwinds from a consistent state: folds flushed, cursor
    at the chunk's end.
    """
    config = executor.config
    mode = config.mode
    check_freq = config.check_frequency
    controller = executor.controller
    meter = executor.catalog.meter
    limits = executor._enforcer
    monitored = mode.monitors
    reorders_inner = mode.reorders_inner
    reorders_driving = mode.reorders_driving
    legs_map = executor.legs

    projection = executor.projection_slots
    plan_sig = _plan_signature(executor)
    slice_rows = STATIC_SLICE_ROWS
    chunk_rows = (
        min(MONITORED_CHUNK_ROWS, slice_rows)
        if monitored and not executor.settled
        else slice_rows
    )
    while True:
        if limits is not None:
            limits.check()
        survivors = walk.take(chunk_rows)
        taken = len(survivors)
        if not taken:
            # No survivor left: the trailing non-survivors are scanned
            # after the last boundary's checks, as the scalar machine's
            # final next() does.
            walk.finish()
            executor.depleted_from = 0
            executor._flush_chunk_folds()
            return True
        executor.depleted_from = None
        executor.driving_rows_since_check += taken
        executor.driving_rows_total += taken

        ancestors, flow = _expand(meter, inner, executor.order[0], survivors)
        admitted = flow if limits is None else limits.admit_rows(flow)
        meter.rows_emitted += admitted
        executor.rows_emitted += admitted
        if admitted:
            yield from _project(legs_map, projection, ancestors, admitted)

        # -- chunk boundary: flush folds, then the two checks ------------
        executor._flush_chunk_folds()
        if admitted < flow:
            limits.check_emit()  # raises: the row budget is spent
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
        switched = (
            reorders_driving
            and executor.driving_rows_since_check >= check_freq
            and controller.on_pipeline_depleted()
        )
        sig = _plan_signature(executor)
        if sig != plan_sig:
            inner, reason = _adaptive_plan(executor)
            if reason is None and switched:
                # A fresh (or resumed) driving cursor: a new walk.
                walk, reason = _driving_walk(
                    legs_map[executor.order[0]], executor.driving_cursor
                )
            if reason is not None:
                # A shape the gates refuse (hash-probed leg, residual join
                # predicates, non-vectorizable locals): hand the cursors
                # back to the scalar machine mid-query.
                executor.vector_gate_reason = reason
                return False
            plan_sig = sig
        elif chunk_rows < slice_rows:
            # Nothing moved: ask half as often from here on.
            chunk_rows = min(2 * chunk_rows, slice_rows)
