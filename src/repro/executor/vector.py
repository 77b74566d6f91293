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
   step masks it out. A hash-probed leg (no index on its join column, the
   Sec 6 extension) expands the same way through the buckets of its hash
   build (:meth:`ColumnarTable.hash_build`), and residual join predicates
   (cyclic join graphs, Sec 4.3.4) are a mask over the expanded tuples
   (:class:`_Probe`);
3. work-meter charges are computed from the same per-key kernel aggregates
   the scalar probes charge (descend per probe, ``max(entries, 1)`` per
   present/missing key, fetch per candidate row, short-circuit-exact local
   evals; a hash probe and its bucket's matches, the build once), gathered
   through every rank of the chunk, summed over the chunk's legs and
   charged once;
4. the chunk's projected rows leave as one list (:func:`_project`, through
   a column taker per output column): ``run_to_completion`` extends its
   result with it, ``rows()`` streams it row by row.

What a leg's step needs that no order decides is built once per
statement, into the plan's step memo (:func:`leg_step`, through
:func:`~repro.executor.pipeline.memo_step`): per leg, set of legs bound
before it and access predicate, its probe config, group kernel or hash
build, key-rank gather, residual cells, and what those settle — gather or
expand; whether a probe can miss at all (an untested one-entry kernel
probed by keys it all holds needs no hit test); which kernel arrays its
charges gather. A step program (:class:`_Step` per inner leg) is then
assembled from memo entries in one backward pass (:func:`assemble`):
where each key sits among the chunk's ancestors, and which ancestors are
still read after each step — later probe keys, residual outer aliases and
the projection, every alias when the invariant oracle is armed — so a
restriction re-gathers only those, and a step whose own RIDs nobody reads
gathers none; a frozen leg's kernel is restricted by its positional
predicate there. The plan's own order is assembled once, into its
prepared record (:func:`cascade_start`); a monitored run re-assembles
after each change a check applies, and a corrected plan assembles its
record from the memo its base plan filled.

One chunk loop (:func:`cascade`) runs static plans
(:data:`STATIC_SLICE_ROWS` slices) and the monitored modes (kernel-folded
monitoring and boundary rank checks; chunks that start at
:data:`MONITORED_CHUNK_ROWS` and double while the checks change nothing;
nothing applied at a boundary that ends the driving scan), and one
:func:`_expand` runs every step.

Every statement a columnar database accepts runs here, from its first row
to its last: only a columnar database builds the executor that calls
:func:`cascade`, so every table and index here is columnar, and planning
refused what no mask reproduces (DESIGN.md Sec 2). The driving scan is a
walk over the index's (or table's) arrays (:class:`_DrivingWalk`), which
is the engine's whole scan state: a driving switch freezes it and a
switch back takes from it again, and a frozen leg's positional predicate
is a mask over the leg's group kernel (:func:`_positional_kernel`).

The cascade is only observably different from the scalar machine in
*intermediate* meter states, which are visible at chunk boundaries alone:
a fault plan is consulted once per chunk at its sites (``cursor-advance``
per driving slice, ``index-lookup`` or ``hash-probe`` and ``monitor``
per inner leg), the
invariant oracle records each emitted tuple's RIDs off the chunk's
ancestor arrays, observability reads the legs' flow counters (bumped once
per chunk here; an unobserved static run keeps none) at cold sites only,
and execution limits are enforced at those boundaries — rows exactly,
work / deadline / cancellation at most one chunk late.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterator, NamedTuple, Sequence

from repro.errors import StorageError
from repro.executor.access import driving_index
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
from repro.storage.cursor import ScanOrder, scan_ranges

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


def cascade_start(plan, program: dict, bindings) -> tuple:
    """The cascade's start for *plan* as it describes it: its probe
    *program* (inner alias -> step memo entry) under its *bindings*.

    ``(steps, walk, takers)``: the assembled step program and column
    takers (:func:`assemble`), and its driving scan's walk with no meter
    or leg of its own (:meth:`_DrivingWalk.restarted` gives a run its
    own). Part of a plan's prepared record: every execution that starts
    as the plan describes installs it, on any thread, so nothing here is
    ever written.
    """
    order = plan.order
    steps, takers = assemble(order, program, {}, bindings)
    walk = _driving_walk(plan.legs[order[0]], bindings.legs[order[0]])
    for array in (walk.rids, walk.alive, walk.survivor_at):
        if array is not None:
            array.setflags(write=False)
    return tuple(steps), walk, takers


class _DrivingWalk:
    """A driving scan as arrays, consumed a slice at a time: the engine's
    scan.

    ``rids`` is every RID the scan visits, in scan order (RID order, or
    the (key, RID) order of its key ranges' index entries), read off its
    spec once (:func:`_driving_walk`). ``survivor_at`` holds the walk
    offsets whose rows pass the residual local predicates (``None`` when
    there are none to apply: every row survives).

    :meth:`take` consumes the walk through its next survivors and charges
    what ``RuntimeLeg.driving_rows`` charges for the same rows, as one
    aggregate: a fetch, an index-entry touch and ``len(residual tests)``
    predicate evals per row walked, one descend per key range entered, the
    driving monitor's fold (one window entry per take: rows walked, rows
    surviving) and the leg's scanned / survived counters.

    The walk is the scan's whole state. It answers what the position
    registry freezes (``order``, :attr:`last_position`) and what the cost
    model reads (:meth:`range_spans`, :meth:`scan_offset`) exactly as the
    row store's cursor pulled through the same rows answers them, and a
    frozen walk resumes by being taken from again, with no charge
    repeated or lost. A walk with no leg counts no flow; one with no meter
    (a prepared record's) is never taken from.
    """

    __slots__ = (
        "order",
        "meter",
        "leg",
        "monitored",
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

    def __init__(self, order, ranges, masks: list) -> None:
        """The whole scan in *order* (a :class:`~repro.storage.cursor.
        ScanOrder`): of its index's entries in the key *ranges*, walk
        order, or of the whole table in RID order; *masks*: the residual
        local predicates' row masks."""
        self.order = order
        self.meter = self.leg = None
        self.monitored = False
        self.ntests = len(masks)
        self.taken = self.survivors_taken = self.spans_entered = 0
        index = order.index
        if index is None:
            self.spans = [(0, len(order.table))]
        else:
            self.spans = [
                index._range_bounds(r.low, r.high, r.low_inclusive, r.high_inclusive)
                for r in ranges
            ]
        pieces = []
        self.span_starts = []
        walked = 0
        for lo, hi in self.spans:
            self.span_starts.append(walked)
            if hi > lo:
                pieces.append(
                    _np.arange(lo, hi, dtype=_np.int64)
                    if index is None
                    else index._ent_rids[lo:hi]
                )
                walked += hi - lo
        if len(pieces) == 1:
            self.rids = pieces[0]
        elif pieces:
            self.rids = _np.concatenate(pieces)
        else:
            self.rids = _np.zeros(0, dtype=_np.int64)
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

    def restarted(self, meter, leg=None, monitored: bool = False) -> "_DrivingWalk":
        """This walk from its start again, charging *meter*, counting
        *leg*'s flow (None: no flow counted) and, when *monitored*, folding
        into its driving monitor.

        The arrays — what :meth:`__init__` derives from the scan — are this
        walk's, shared and never written; only the progress is new. How an
        execution starts from its plan's prepared walk
        (:func:`cascade_start`).
        """
        walk = _DrivingWalk.__new__(_DrivingWalk)
        walk.order = self.order
        walk.meter = meter
        walk.leg = leg
        walk.monitored = monitored
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
        if self.leg is not None:
            self.leg.rows_survived += count
        if self.survivor_at is None:
            self._consume(last)
            return self.rids[first:last]
        self._consume(int(self.survivor_at[last - 1]) + 1)
        return self.rids[self.survivor_at[first:last]]

    def finish(self) -> None:
        """Walk whatever trails the last survivor, to the scan's end."""
        self._consume(len(self.rids))
        if self.order.index is not None:
            # Ranges with nothing (more) to yield are still entered on the
            # way to learning the scan is over.
            self.meter.index_descends += len(self.spans) - self.spans_entered
            self.spans_entered = len(self.spans)

    def _consume(self, end: int) -> None:
        start = self.taken
        walked = end - start
        if walked <= 0:
            return
        self.taken = end
        meter = self.meter
        meter.row_fetches += walked
        if self.ntests:
            meter.predicate_evals += walked * self.ntests
        leg = self.leg
        if leg is not None:
            leg.rows_scanned += walked
            if self.monitored:
                leg.model_moved = True  # the remaining fraction, S_LPR
                if leg.monitoring_enabled:
                    alive = self.alive
                    leg.driving_monitor.record_chunk(
                        walked,
                        walked
                        if alive is None
                        else int(_count_nonzero(alive[start:end])),
                    )
                    meter.monitor_updates += walked
        if self.order.index is None:
            return
        meter.index_entries += walked
        entered = self.spans_entered
        starts = self.span_starts
        while entered < len(starts) and starts[entered] < end:
            entered += 1
        meter.index_descends += entered - self.spans_entered
        self.spans_entered = entered

    def scan_offset(self) -> int:
        """The entry-list offset (RID in a table scan) every entry before
        which has been walked: the last one walked's, plus one."""
        taken = self.taken
        if not taken:
            return 0
        span = bisect_right(self.span_starts, taken - 1) - 1
        return self.spans[span][0] + taken - self.span_starts[span]

    def range_spans(self) -> list[tuple[int, int]]:
        """Entry-list ``[lo, hi)`` bounds of each key range (one RID span
        in a table scan): uncharged metadata."""
        return self.spans

    @property
    def last_position(self):
        """The scan-order position of the last row walked — ``(rid,)`` in
        RID order, ``(key, rid)`` in index order; None before the first."""
        if not self.taken:
            return None
        at = self.scan_offset() - 1
        index = self.order.index
        return (at,) if index is None else index._entry(at)


def _driving_walk(plan_leg, binding) -> _DrivingWalk:
    """The whole driving scan of *plan_leg* as its
    :class:`~repro.optimizer.plans.DrivingSpec` describes it, over the
    table and indexes of *binding* (its
    :class:`~repro.executor.pipeline.LegBinding`): a walk with no meter
    (:meth:`_DrivingWalk.restarted` runs one)."""
    table = binding.table
    masks = [
        table.mask_for_spec(vector_spec(predicate, table.schema))
        for predicate, _ in binding.local_tests
        if predicate is not binding.pushed
    ]
    index = driving_index(plan_leg, binding.indexes)
    ranges = None if index is None else scan_ranges(plan_leg.driving.ranges)
    return _DrivingWalk(ScanOrder(table, index), ranges, masks)


class _Probe(NamedTuple):
    """What an inner leg's step does beyond an index probe: probe the
    leg's :class:`~repro.storage.columnar.HashBuild` (``build``; the Sec 6
    extension), and mask ``residuals`` (Sec 4.3.4): per residual join, in
    the probe config's order, ``(outer position, outer cells, outer valid,
    own cells, own valid)`` of :func:`_residual_cells` (the outer alias in
    place of its position in a step memo entry)."""

    build: Any
    residuals: tuple

    def charge_hash(self, meter, built: set, alias: str, counts, flow, touched):
        """Charge the chunk's hash probes of leg *alias*; their work. The
        leg's first hash probe of the execution (*built*: the ``(alias,
        column)`` builds it has charged) builds, as
        ``RuntimeLeg._hash_table_for`` does: its work lands in this chunk's
        fold, its table-wide local counts in *counts* (a monitored leg's
        ``local_counts``; None: not monitored)."""
        build = self.build
        meter.hash_probes += flow
        meter.hash_matches += touched
        work = flow * HASH_PROBE_COST + touched * HASH_MATCH_COST
        key = (alias, build.index.column)
        if key not in built:
            built.add(key)
            meter.row_fetches += build.rows
            meter.predicate_evals += build.evals
            meter.hash_build_entries += build.entries
            work += (
                build.rows * ROW_FETCH_COST
                + build.evals * PREDICATE_EVAL_COST
                + build.entries * HASH_BUILD_ENTRY_COST
            )
            if counts is not None:
                for pair, (evaluated, passed) in zip(counts, build.local_counts):
                    pair[0] += evaluated
                    pair[1] += passed
        return work

    def mask(self, ancestors: list, position: int, live: tuple, total, evals):
        """Mask the chunk's *total* tuples with the residual joins:
        ``(rows out, evals)``. Each residual term costs an eval per tuple
        still alive, term by term (``RuntimeLeg._passes_residuals``); the
        tuples that fail leave *ancestors* at *position* and at the
        earlier positions in *live*."""
        rids = ancestors[position]
        out = total
        alive = None
        for outer_at, outer, outer_ok, own, own_ok in self.residuals:
            evals += out
            outer_rids = ancestors[outer_at]
            equal = outer.take(outer_rids) == own.take(rids)
            if outer_ok is not None:
                equal &= outer_ok.take(outer_rids)
                equal &= own_ok.take(rids)
            alive = equal if alive is None else alive & equal
            out = int(_count_nonzero(alive))
        if out < total:
            keep = alive.nonzero()[0]
            for at in (*live, position):
                ancestors[at] = ancestors[at].take(keep)
        return out, evals


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


#: How a step finds its ``touched`` count when it gathers no ``totals``:
#: one entry a probe (a key index probed by keys it all holds), or its
#: matches (a test-free kernel's totals are its counts). And its ``evals``
#: when it gathers none: its ``touched`` (a one-test kernel's).
_FLOW, _TOTAL, _TOUCHED = "flow", "total", "touched"


class _Step(NamedTuple):
    """One inner leg's step, its decisions settled before any chunk runs.

    The first six are what the step reads: the leg's alias, probe config,
    group kernel, key-rank gather (``index.row_ranks(source).take``), the
    lowest rank that gather can yield
    (:meth:`~repro.storage.columnar.ColumnarIndex.lowest_rank_of`: -2
    where a key can miss) and its :class:`_Probe` (a hash-probed leg or
    one with residual joins; None for a plain index probe). The rest is
    what :func:`_expand` would otherwise decide chunk after chunk.

    A step memo entry (:func:`leg_step`) is one with ``key``, ``live``
    and ``keep`` unresolved and each residual's outer alias in place of
    its position: what :func:`assemble` resolves for an order. A row
    database's entry is its probe config alone.
    """

    alias: str
    config: Any
    kernel: Any = None
    translate: Any = None
    lowest: int = 0
    probe: Any = None
    # Position of the probe key's alias among the chunk's ancestors.
    key: int = 0
    # A unique kernel's ``first_rids.take``; None: the CSR expansion.
    gather: Any = None
    # A unique step whose every probe matches (untested one-entry kernel,
    # every key held): no hit test, no restriction.
    total: bool = False
    # Whether a probe can miss its key (counted as one entry each).
    missing: bool = False
    # ``totals.take``, or _FLOW / _TOTAL: how ``touched`` is found.
    touched: Any = None
    # ``evals.take``, or _TOUCHED, or None (an untested kernel: zero).
    evals: Any = None
    # Earlier positions still read after this step (later probe keys and
    # residual outers, the projection; every one under the oracle), and
    # this step's residual outers: what a restriction re-gathers.
    live: tuple = ()
    # Whether this leg's own RIDs are read after the step (or by its
    # residual joins); a step nobody reads skips its RID gather.
    keep: bool = False
    # The fault site its probes consult: "index-lookup" or "hash-probe".
    site: str = "index-lookup"


def leg_step(alias: str, config, legs) -> _Step:
    """Leg *alias*'s step memo entry through *config* (see :class:`_Step`;
    *legs*: the plan's :class:`~repro.executor.pipeline.LegBinding` by
    alias, None on a row database). Kernels, hash builds and rank arrays
    come from their index's (or table's) memos; residual cells are built
    here, once per entry."""
    if legs is None:
        return _Step(alias, config)
    leg = legs[alias]
    table = leg.table
    build = None
    if config.hash_column is None:
        index = config.access_index
        kernel = index.cascade_groups(leg.local_tests)
    else:
        build = table.hash_build(config.hash_column, leg.local_tests)
        index, kernel = build.index, build.kernel
    residuals = tuple(
        (outer, *_residual_cells(legs[outer].table, outer_slot, table, slot))
        for (outer, outer_slot), (_, slot) in zip(
            config.residual_sources, config.residual_joins
        )
    )
    probe = None if build is None and not residuals else _Probe(build, residuals)
    source = legs[config.key_alias].table.column_store(config.key_slot)
    return _compile_step(
        alias, config, kernel, index.row_ranks(source).take,
        index.lowest_rank_of(source), probe, 0, (), False,
    )


def assemble(order, program, positional, bindings, every_alias=False) -> tuple:
    """``(steps, takers)`` for *order*: a :class:`_Step` per inner leg, from
    *program* (inner alias -> its step memo entry), and ``(position,
    column take)`` per output column of *bindings*' projection.

    One backward pass resolves key and residual positions and what is
    read after each step (``live`` / ``keep``; every alias when
    *every_alias*: the invariant oracle records them all). A frozen leg
    (*positional*: alias -> its positional predicate or None) probes its
    kernel restricted past the frozen position (:func:`_positional_kernel`).
    """
    legs = bindings.legs
    at = {alias: position for position, alias in enumerate(order)}
    read = {at[alias] for alias, _ in bindings.projection_slots}
    steps: list = []
    for position in range(len(order) - 1, 0, -1):
        alias = order[position]
        step = program[alias]
        probe = step.probe
        outers: set = set()
        if probe is not None and probe.residuals:
            probe = _Probe(
                probe.build,
                tuple((at[outer], *cells) for outer, *cells in probe.residuals),
            )
            outers = {outer_at for outer_at, *_ in probe.residuals}
        key = at[step.config.key_alias]
        if every_alias:
            live, keep = tuple(range(position)), True
        else:
            live = tuple(sorted(q for q in read | outers if q < position))
            keep = position in read or bool(outers)
            read |= outers
            read.add(key)
        frozen = positional.get(alias)
        if frozen is None:
            steps.append(step._replace(probe=probe, key=key, live=live, keep=keep))
        else:
            kernel = _positional_kernel(step.kernel, frozen, len(legs[alias].table))
            steps.append(_compile_step(
                alias, step.config, kernel, step.translate, step.lowest, probe,
                key, live, keep,
            ))
    steps.reverse()
    takers = tuple(
        (at[alias], legs[alias].table.column_store(slot).take)
        for alias, slot in bindings.projection_slots
    )
    return steps, takers


def held_by(step, legs) -> list[tuple[str, Any]]:
    """``(table name, array)`` per numpy array the step memo entry *step*
    keeps alive (*legs*: the plan's bindings by alias): its kernel, its
    key-rank array and a hash build's index by the probed table, its
    residual cells by the table of their column."""
    own = legs[step.alias].table.name
    held = [(own, array) for array in (*step.kernel.arrays(), step.translate.__self__)]
    probe = step.probe
    if probe is not None:
        if probe.build is not None:
            held += [(own, array) for array in probe.build.index.kernel_arrays()]
        for outer, *cells in probe.residuals:
            tables = (legs[outer].table.name,) * 2 + (own,) * 2
            held += [(t, a) for t, a in zip(tables, cells) if a is not None]
    return held


def _compile_step(
    alias, config, kernel, translate, lowest, probe, key, live, keep
) -> _Step:
    """The :class:`_Step` of a leg: the fields given, and those they
    settle (gather, total, missing, touched, evals, site) derived."""
    one_entry = lowest >= 0 and kernel.one_entry
    if one_entry:
        touched = _FLOW
    elif kernel.totals is kernel.counts:
        touched = _TOTAL
    else:
        touched = kernel.totals.take
    if kernel.untested:
        evals = None
    elif kernel.evals is kernel.totals:
        evals = _TOUCHED
    else:
        evals = kernel.evals.take
    first_rids = kernel.first_rids
    return _Step(
        alias,
        config,
        kernel,
        translate,
        lowest,
        probe,
        key,
        None if first_rids is None else first_rids.take,
        first_rids is not None and kernel.untested and one_entry and not kernel.pa,
        lowest == -2,
        touched,
        evals,
        live,
        keep,
        "index-lookup" if probe is None or probe.build is None else "hash-probe",
    )


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


def _expand(
    meter, steps: Sequence, legs, survivors, built: set, monitored: bool = False
) -> tuple[list, int]:
    """One chunk's layered expansion: ``(ancestors, flow)``.

    ``ancestors[position]`` maps every joined tuple the chunk produces to
    its RID at that position of the order, in depth-first nested-loop
    order — for the positions some later step, the projection or the
    invariant oracle reads (:attr:`_Step.live`, :attr:`_Step.keep`); the
    others are left as they were, or None. Each inner leg charges the
    scalar probes' work as kernel aggregates (descend per outer row; a
    key the index holds walks its full group — entries, fetches,
    short-circuit local evals; a missing key touches one entry; a NULL key
    descends only), summed over the chunk's legs and added to *meter*
    once. *legs* (``legs[position]``; None: no flow counted) take the
    chunk's rows in / candidates / rows out and, when *monitored* (and the
    leg's monitoring has not degraded), the same aggregate into the leg's
    window as the chunk's one entry. A
    hash-probed leg or one with residual joins charges and masks through
    its :class:`_Probe` — the one test a leg's step adds. *built* holds
    the hash builds this execution has charged.

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
    gathered — restricting the ancestors only when some probe missed, and
    testing nothing where no probe can miss (:attr:`_Step.total`; a total
    step whose RIDs nobody reads gathers nothing at all). Any other kernel
    takes the CSR expansion, where each ancestor repeats its outer row
    once per match (a ``repeat``, no parent index). Charges, counters and
    folds are the same for
    both, and each reads only the arrays it needs: a test-free kernel's
    entries are its matches, and an untested kernel's evals are zero
    (:attr:`_Kernel.untested`), so neither is gathered.
    """
    flow = len(survivors)
    ancestors: list = [None] * (len(steps) + 1)
    ancestors[0] = survivors
    descends = entries = fetches = evals_in = updates = 0
    position = 0
    for (
        alias, _, kernel, translate, _, probe, key, gather, total, missing,
        touched_by, evals_by, live, keep, _,
    ) in steps:
        position += 1
        if not flow:
            break
        if total and not keep:
            ranks = None  # every probe matches, and nobody reads the match
            count = flow
        else:
            ranks = translate(ancestors[key])
            if gather is not None:
                # A gather: outer row i's one match, if any, is its key's
                # first passing row. Nothing to restrict when every probe
                # matched.
                rids = gather(ranks)
                count = flow
                if not total:
                    hit = (rids >= 0).nonzero()[0]
                    count = len(hit)
                    if count < flow:
                        if keep:
                            rids = rids.take(hit)
                        for earlier in live:
                            ancestors[earlier] = ancestors[earlier].take(hit)
            else:
                # CSR expansion: outer row i repeats once per match, and
                # its tuple t reads pass_rids ``ends[i] - t`` entries
                # before the end of row i's slice.
                matches = kernel.counts.take(ranks)
                ends = matches.cumsum()
                count = int(ends[-1])
                if keep:
                    shift = kernel.pass_offsets[1:].take(ranks)
                    shift -= ends
                    at = shift.repeat(matches)
                    at += _np.arange(count)
                    rids = kernel.pass_rids.take(at)
                for earlier in live:
                    ancestors[earlier] = ancestors[earlier].repeat(matches)
            if keep:
                ancestors[position] = rids
        missed = int(_count_nonzero(ranks == -2)) if missing else 0
        if touched_by is _FLOW:
            touched = flow
        elif touched_by is _TOTAL:
            touched = count
        else:
            touched = int(_sum(touched_by(ranks)))
        if evals_by is None:
            evals = 0
        elif evals_by is _TOUCHED:
            evals = touched
        else:
            evals = int(_sum(evals_by(ranks)))
        leg = None if legs is None else legs[position]
        watched = monitored and leg.monitoring_enabled
        out = count
        work = None
        if probe is None or probe.build is None:
            descends += flow
            fetches += touched
            entries += touched + missed
        else:
            work = probe.charge_hash(
                meter, built, alias, leg.local_counts if watched else None,
                flow, touched,
            )
        if probe is not None and probe.residuals and count:
            out, evals = probe.mask(ancestors, position, live, count, evals)
        evals_in += evals
        if leg is not None:
            leg.rows_in += flow
            leg.index_matches += touched
            leg.rows_out += out
            if watched:
                leg.model_moved = True
                updates += flow
                if work is None:
                    work = (
                        flow * INDEX_DESCEND_COST
                        + (touched + missed) * INDEX_ENTRY_COST
                        + touched * ROW_FETCH_COST
                    )
                # The lean aggregate: (incoming, index matches, output,
                # work), one window entry per chunk.
                leg.monitor.window.observe_chunk(
                    flow, touched, out, work + evals * PREDICATE_EVAL_COST
                )
                # Test i evaluates the rows test i - 1 passed (``ev[i] is
                # pa[i - 1]``, ``ev[0] is totals``): one gather per test,
                # and none for the last unless a positional test follows.
                passed = touched
                for counts, column in zip(leg.local_counts, kernel.pa):
                    counts[0] += passed
                    passed = (
                        count
                        if column is kernel.counts
                        else int(_sum(column.take(ranks)))
                    )
                    counts[1] += passed
                leg.incoming_since_check += flow
        flow = out
    meter.index_descends += descends
    meter.index_entries += entries
    meter.row_fetches += fetches
    meter.predicate_evals += evals_in
    if updates:
        meter.monitor_updates += updates
    return ancestors, flow


def _project(takers: Sequence, ancestors: list, count: int) -> list:
    """The first *count* joined tuples of a chunk as projected result rows
    (*takers*: ``(position, column take)`` per output column)."""
    if not takers:  # degenerate empty projection
        return [()] * count
    return list(zip(*(take(ancestors[at][:count]) for at, take in takers)))


def cascade(executor) -> Iterator[list]:
    """The chunk loop: limits -> walk -> expand -> emit -> checks, folding
    inline; a generator of one list of projected rows per chunk that emits
    any.

    Runs *executor*'s pipeline to its end: every plan a check can rebuild
    is one the cascade runs (windows and counters are consistent at every
    boundary: each fold is applied where its numbers are computed). What
    the plan and the data alone decide is not derived here: a run starts
    on the step program and driving walk of its plan's prepared cascade
    start (:func:`cascade_start`), and whenever the executor's
    ``order_history`` has grown — only its two ``apply_*`` primitives
    append to it — the program is re-assembled (:func:`assemble`) from
    the step memo entries the executor installed, on the walk of the leg
    that drives now (``executor.scan``: the same, a fresh or a resumed
    one). A monitored run counts its flow in its legs; a static one only
    where it is read (``executor.flows``: an observed run's
    :class:`~repro.executor.access.LegFlow`, else None), and its boundary
    ends at the row budget (nothing checks, nothing can move the plan).

    Observable-parity contract with the scalar machine (for monitored
    plans: the scalar machine applying the same decisions at the same
    driving-row counts, ``tests/test_decision_replay.py``):

    * each chunk is the next ``chunk_rows`` survivors of the driving walk
      (:class:`_DrivingWalk`), which charges the scan work and the driving
      monitor for exactly the rows ``RuntimeLeg.driving_rows`` would have
      pulled to produce them, so freeze/resume positions are identical —
      including the trailing non-survivor scan landing *after* the final
      boundary's checks;
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
      applied nothing, up to the slice — an applied change keeps the
      length, it does not reset it.

    Execution limits are a chunk-boundary concern: cancellation, deadline
    and work budget are tested once per chunk, before the walk takes it
    (the scalar machine's position-0 safe point), so they are seen at most
    one chunk late and ``BudgetExceeded.work_units`` / ``driving_rows`` are
    exact to a chunk. The row budget is exact: a chunk that would overrun
    it emits only the rows still admitted, then raises — the caller holds
    precisely ``max_rows`` rows and ``rows_emitted`` says so. Either way
    the exception unwinds from a consistent state: folds applied, walk at
    the chunk's end.
    """
    config = executor.config
    mode = config.mode
    meter = executor.catalog.meter
    faulty = executor.catalog.faults is not None
    limits = executor._enforcer
    oracle = executor.oracle
    monitored = mode.monitors
    order = executor.order
    prepared = executor.prepared
    steps, walk, takers = prepared.cascade
    if monitored:
        executor.engine_used = "vector-adaptive"
        legs = executor.legs
        executor._drive(order[0])
        walk = executor.scan
    else:
        legs = executor.flows
        walk = walk.restarted(meter, None if legs is None else legs[order[0]])
    if oracle is not None:  # the oracle reads every alias
        steps, takers = assemble(order, prepared.program, {}, prepared.bindings, True)
    # by_position[position]: whose flow each step counts (None: nobody's).
    by_position = None if legs is None else [legs[alias] for alias in order]
    check_freq = config.check_frequency
    controller = executor.controller
    reorders_inner = monitored and mode.reorders_inner
    reorders_driving = monitored and mode.reorders_driving
    history = executor.order_history
    assembled = 1  # the length of the history the steps are assembled for
    built: set = set()  # the hash builds this execution has charged
    slice_rows = STATIC_SLICE_ROWS
    chunk_rows = min(MONITORED_CHUNK_ROWS, slice_rows) if monitored else slice_rows
    while True:
        if len(history) != assembled:
            # An applied change: the program for where the pipeline is now.
            assembled = len(history)
            order = executor.order
            steps, takers = assemble(
                order,
                executor.program,
                {alias: leg.positional for alias, leg in legs.items()},
                prepared.bindings,
                oracle is not None,
            )
            by_position = [legs[alias] for alias in order]
            # Whatever the controller returned: the run says who drives —
            # the same walk, a fresh one or a frozen one resumed.
            walk = executor.scan
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
            for position, step in enumerate(steps, 1):  # before its charges
                executor.consult(step.site)
                if monitored and by_position[position].monitoring_enabled:
                    try:
                        executor.consult("monitor")
                    except StorageError as exc:  # advisory, as a probe's is
                        by_position[position]._degrade_monitoring(exc)
        ancestors, flow = _expand(
            meter, steps, by_position, survivors, built, monitored
        )
        admitted = flow if limits is None else limits.admit_rows(flow)
        meter.rows_emitted += admitted
        executor.rows_emitted += admitted
        if admitted:
            if oracle is not None:
                for rids in zip(*(rids[:admitted].tolist() for rids in ancestors)):
                    oracle.record_emit(dict(zip(order, rids)))
            yield _project(takers, ancestors, admitted)

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
            and legs[executor.order[1]].incoming_since_check >= check_freq
        ):
            executor.depleted_from = 1
            controller.on_suffix_depleted(1)
        executor.depleted_from = 0
        if reorders_driving and executor.driving_rows_since_check >= check_freq:
            controller.on_pipeline_depleted()
        if len(history) == assembled and chunk_rows < slice_rows:
            # Nothing moved: ask half as often from here on.
            chunk_rows = min(2 * chunk_rows, slice_rows)
