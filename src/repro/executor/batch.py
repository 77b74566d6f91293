"""The vectorized (batched) execution path of the pipelined NLJN executor.

The scalar :class:`~repro.executor.pipeline.PipelineExecutor` walks one row
at a time through a Python state machine, so interpreter overhead — not
index work — dominates wall-clock time. This module keeps the state machine
(and therefore every adaptation decision point) but moves the *physical*
work into batches:

* the driving leg is read ahead through an uncharged :class:`DrivingShadow`
  that predicts the next ``batch_size`` surviving rows without touching the
  real cursor, and the first inner leg is resolved for all of them in one
  :meth:`~repro.executor.access.RuntimeLeg.probe_batch` call;
* deeper inner legs batch over the parent's match list the same way;
* ``probe_batch`` sorts the batch's join keys and resolves them with one
  merged left-to-right descent over the index, and an optional per-leg LRU
  :class:`~repro.executor.probecache.ProbeCache` memoizes repeated keys.

**Semantics lock.** Batching must not change results, work accounting, or
adaptation. Three rules enforce that:

1. *Deferred replay* — prepared probes carry their would-be charges and
   monitor observations; :meth:`RuntimeLeg.replay_prepared` applies them at
   the exact logical point the scalar path would have probed, so the meter,
   the Eq 5–11 monitor estimates, ``incoming_since_check``, budget checks,
   and observability hooks see the identical row stream in the identical
   order.
2. *Safe windows* — lookahead never crosses a point where a reorder check
   could fire. With check frequency ``c``, a chunk prepared for position
   ``p`` is capped at ``c`` minus the rows already counted toward the next
   check, so every prepared deque is provably empty whenever the controller
   is allowed to permute the pipeline (Sec 4.1/4.2 preconditions). The
   driving lookahead is capped the same way against driving-switch checks.
3. *Real consumption* — predicted driving rows are only used to prepare
   probes; the rows actually consumed still come from the real charging
   cursor iterator, so scan accounting, monitor records, and freeze/resume
   positions are scalar-identical by construction (the shadow asserts its
   prediction matches the consumed row object).

Configurations the lookahead cannot model (fault injection, the invariant
oracle's RID tracking, the ``switch_at_key_boundary`` variant which peeks
the cursor, unknown controller implementations, single-leg pipelines) fall
back to the scalar ``_run`` wholesale; hash-probed legs fall back to scalar
probes per leg.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.core.controller import AdaptationController
from repro.errors import ExecutionError
from repro.executor.access import RuntimeLeg
from repro.executor.pipeline import PipelineExecutor, _NoAdaptation
from repro.executor.probecache import ProbeCache
from repro.executor.vector import cascade
from repro.robustness.guard import SandboxedController
from repro.storage.cursor import IndexScanCursor
from repro.storage.table import Row


def _index_walk(cursor: IndexScanCursor, scan=None) -> Iterator[int]:
    """The RIDs *cursor* has yet to yield, in its walk order, uncharged.

    Same ranges, start-after skipping and stop-at bounding as the cursor
    itself (``IndexScanCursor.remaining_spans``), relative to its current
    position. With *scan* (a :class:`TurboDrivingScan`) a descend is owed
    per range actually entered, charged with the chunk that consumes from
    it.
    """
    entries = cursor.index._entries
    spans, _ = cursor.remaining_spans()
    for range_no, lo, cut, _ in spans:
        if scan is not None and range_no != cursor._range_no:
            scan._pending_descends += 1
        for position in range(lo, cut):
            yield entries[position][1]


class DrivingShadow:
    """Uncharged lookahead over the driving scan.

    Replicates the cursor's visit order (RID order for table scans, the
    per-range (key, rid) walk for index scans) and the driving-row residual
    local predicates, reading only ``raw_rows()`` and the cursor's own
    uncharged lookahead (``remaining_rids()`` / ``remaining_spans()``) so
    no work is charged and no cursor or monitor state moves. The rows it
    returns are the same objects the real cursor will yield next.
    """

    __slots__ = ("_raw", "_tests", "_iter")

    def __init__(self, leg: RuntimeLeg, cursor) -> None:
        self._raw = leg.table.raw_rows()
        pushed = leg._pushed_predicate(cursor)
        self._tests = [
            test for predicate, test in leg.local_tests if predicate is not pushed
        ]
        if isinstance(cursor, IndexScanCursor):
            self._iter = _index_walk(cursor)
        else:
            # Partition-bounded cursors included: the lookahead must not
            # prepare probes for rows the cursor will never yield.
            self._iter = iter(cursor.remaining_rids())

    def next_survivors(self, limit: int) -> list[Row]:
        """Up to *limit* upcoming rows that survive the residual locals."""
        out: list[Row] = []
        raw = self._raw
        tests = self._tests
        for rid in self._iter:
            row = raw[rid]
            for test in tests:
                if not test(row):
                    break
            else:
                out.append(row)
                if len(out) >= limit:
                    break
        return out


class TurboDrivingScan:
    """Chunked, aggregate-charging driving scan for unobserved static runs.

    Walks the same visit order as the real cursor (RID order or the sorted
    per-range (key, rid) walk) and applies the same residual local
    predicates, but charges each chunk's aggregate work — row fetches, index
    descends/entries, the scalar path's ``len(residual_tests)`` predicate
    evals per scanned row — in one shot when the chunk is produced. Only
    used by the turbo path, where nothing can read the meter mid-run, so
    the aggregate totals are observably identical to the per-row charges of
    :meth:`RuntimeLeg.driving_rows`.
    """

    __slots__ = (
        "_raw",
        "_tests",
        "_ntests",
        "_meter",
        "_iter",
        "_is_index",
        "_pending_descends",
    )

    def __init__(self, leg: RuntimeLeg, cursor) -> None:
        self._raw = leg.table.raw_rows()
        pushed = leg._pushed_predicate(cursor)
        self._tests = [
            test for predicate, test in leg.local_tests if predicate is not pushed
        ]
        self._ntests = len(self._tests)
        self._meter = leg.meter
        self._pending_descends = 0
        self._is_index = isinstance(cursor, IndexScanCursor)
        if self._is_index:
            self._iter = _index_walk(cursor, self)
        else:
            self._iter = iter(cursor.remaining_rids())

    def next_survivors(self, limit: int) -> list[Row]:
        """Up to *limit* surviving rows; charges the chunk's scan work."""
        out: list[Row] = []
        raw = self._raw
        tests = self._tests
        walked = 0
        if tests:
            for rid in self._iter:
                walked += 1
                row = raw[rid]
                for test in tests:
                    if not test(row):
                        break
                else:
                    out.append(row)
                    if len(out) >= limit:
                        break
        else:
            for rid in self._iter:
                walked += 1
                out.append(raw[rid])
                if walked >= limit:
                    break
        meter = self._meter
        meter.row_fetches += walked
        if self._is_index:
            # Each consumed entry was an index-entry touch in the scalar walk.
            meter.index_entries += walked
        if self._ntests:
            meter.predicate_evals += walked * self._ntests
        if self._pending_descends:
            meter.index_descends += self._pending_descends
            self._pending_descends = 0
        return out


class BatchedPipelineExecutor(PipelineExecutor):
    """Drop-in executor running the batched path (scalar fallback built in)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        size = self.config.probe_cache_size
        self.probe_caches: dict[str, ProbeCache] = (
            {alias: ProbeCache(size) for alias in self.plan.order}
            if size > 0
            else {}
        )
        # Why (if) this execution ran scalar; None means fully batched.
        self.batch_fallback_reason: str | None = None

    # ------------------------------------------------------------------
    def _scalar_fallback_reason(self) -> str | None:
        if len(self.order) < 2:
            return "single-leg pipeline"
        if self.oracle is not None:
            return "invariant oracle armed"
        if self.catalog.faults is not None:
            return "fault injection armed"
        if self.config.switch_at_key_boundary:
            return "switch_at_key_boundary peeks the live cursor"
        controller = self.controller
        if isinstance(controller, SandboxedController):
            controller = controller.inner
        if not isinstance(controller, (AdaptationController, _NoAdaptation)):
            # A custom controller may permute the pipeline at points the
            # safe-window bounds don't model; stay scalar for correctness.
            return "unrecognized adaptation controller"
        return None

    def _cache_for(self, alias: str) -> ProbeCache | None:
        cache = self.probe_caches.get(alias)
        if cache is None:
            return None
        leg = self.legs[alias]
        cache.ensure(leg.probe_epoch, leg.table.version)
        return cache

    # ------------------------------------------------------------------
    def _run(self) -> Iterator[tuple]:
        reason = self._scalar_fallback_reason()
        if reason is not None:
            self.batch_fallback_reason = reason
            yield from super()._run()
            return

        self._open_driving(self.order[0])
        self._compile_all_probes()
        if self.obs is not None and self.obs.hot:
            self.vector_gate_reason = "hot observability armed"
        else:
            # Nothing reads the meter, the monitors, or the pipeline
            # mid-chunk: physical charges may be chunk-aggregated. Armed
            # limits do not change that — the cascade enforces them at its
            # chunk boundaries (see vector._run_cascade).
            monitored = self.config.mode.monitors
            handed_off = False
            if monitored and self.config.monitor_granularity != "chunk":
                self.vector_gate_reason = "exact monitor granularity"
            else:
                # The columnar engine: identical rows, order, final totals
                # and (monitored) windows and decisions as the generic
                # loops below. None when a gate fails; False when a plan
                # rebuilt mid-query is refused and the partially consumed
                # cursors come back.
                engine = cascade(self)
                if engine is not None:
                    self.engine_used = (
                        "vector-adaptive" if monitored else "vector"
                    )
                    if (yield from engine):
                        return
                    handed_off = True
            if handed_off or self._enforcer is None:
                if monitored:
                    self.engine_used = (
                        "vector-adaptive+fast" if handed_off else "fast"
                    )
                    yield from self._run_fast()
                else:
                    self.engine_used = "turbo"
                    yield from self._run_turbo()
                return
            # Limits armed on a shape the cascade refuses (vector_gate
            # names its gate): only the loop below has per-row safe points.

        self.engine_used = "batched"
        config = self.config
        mode = config.mode
        batch_size = config.batch_size
        check_freq = config.check_frequency
        controller = self.controller
        meter = self.catalog.meter
        limits = self._enforcer
        obs = self.obs if (self.obs is not None and self.obs.hot) else None
        projector = self._projector

        leg_count = len(self.order)
        last = leg_count - 1
        binding: dict[str, Row] = {}
        # Current match list + cursor per inner position.
        match_rows: list[list[Row]] = [[] for _ in range(leg_count)]
        match_idx: list[int] = [0] * leg_count
        # Prepared (not yet replayed) probes per position, aligned with the
        # upcoming outer rows at position - 1.
        prepared: list[deque] = [deque() for _ in range(leg_count)]
        # Shadow-predicted upcoming driving rows, aligned with prepared[1].
        expected: deque[Row] = deque()
        shadow: DrivingShadow | None = None

        position = 0
        while True:
            if position == 0:
                self.depleted_from = 0
                if controller.on_pipeline_depleted():
                    # Driving switch: every probe was recompiled; the safe
                    # windows guarantee the deques were already empty, but
                    # clear defensively and drop the stale shadow.
                    leg_count = len(self.order)
                    last = leg_count - 1
                    binding.clear()
                    expected.clear()
                    for pending in prepared:
                        pending.clear()
                    shadow = None
                if limits is not None:
                    limits.check()
                if not expected:
                    shadow = self._refill_driving(
                        shadow, expected, prepared, binding,
                        leg_count, batch_size, check_freq, mode, obs,
                    )
                assert self._driving_iter is not None
                row = next(self._driving_iter, None)
                if row is None:
                    return
                self.depleted_from = None
                self.driving_rows_since_check += 1
                self.driving_rows_total += 1
                if obs is not None:
                    obs.on_driving_row(self)
                binding[self.order[0]] = row
                position = 1
                leg = self.legs[self.order[1]]
                if expected:
                    predicted = expected.popleft()
                    if predicted is not row:
                        raise ExecutionError(
                            "batched executor: driving lookahead diverged "
                            f"from the cursor on leg {self.order[0]!r}"
                        )
                    entry, hit = prepared[1].popleft()
                    match_rows[1] = leg.replay_prepared(entry, hit)
                else:
                    match_rows[1] = leg.probe(binding)
                match_idx[1] = 0
                continue

            rows_list = match_rows[position]
            idx = match_idx[position]
            if idx >= len(rows_list):
                # Suffix at >= position is depleted (Sec 4.1).
                self.depleted_from = position
                if obs is not None:
                    obs.on_suffix_depleted(position)
                controller.on_suffix_depleted(position)
                position -= 1
                continue
            match_idx[position] = idx + 1
            row = rows_list[idx]
            self.depleted_from = None
            binding[self.order[position]] = row
            if position == last:
                if limits is not None:
                    limits.check_emit()
                self.rows_emitted += 1
                meter.charge_row_emitted()
                if obs is not None:
                    obs.on_rows_emitted()
                yield projector(binding)
                continue
            position += 1
            leg = self.legs[self.order[position]]
            pending = prepared[position]
            if not pending:
                self._refill_inner(
                    position, binding, match_rows, match_idx, prepared,
                    last, batch_size, check_freq, mode,
                )
            if pending:
                entry, hit = pending.popleft()
                match_rows[position] = leg.replay_prepared(entry, hit)
            else:
                match_rows[position] = leg.probe(binding)
            match_idx[position] = 0

    # ------------------------------------------------------------------
    def _run_turbo(self) -> Iterator[tuple]:
        """Aggregate-charging batched loop for mode NONE without observers.

        Semantically identical to the scalar machine at every *observable*
        point: same result rows in the same order, same final meter totals
        (probe for probe, row for row), same stats counters. The shortcuts —
        chunk-aggregated charges, no controller calls, no per-probe replay —
        are all justified by the entry condition: a static plan (no reorder
        checks can ever fire), no limits, no observability, no oracle, no
        faults, so nothing can read intermediate state. Partial consumption
        of the ``rows()`` generator may observe charges up to one chunk
        ahead of scalar; full runs are exact. Runs on the pipeline ``_run``
        opened, when the cascade's gates refuse it.
        """
        aliases = list(self.order)
        leg_count = len(aliases)
        last = leg_count - 1
        legs = [self.legs[alias] for alias in aliases]
        meter = self.catalog.meter
        projector = self._projector
        batch = self.config.batch_size
        binding: dict[str, Row] = {}
        batchable = [False] * leg_count
        for p in range(1, leg_count):
            pc = legs[p].probe_config
            batchable[p] = pc is not None and pc.hash_column is None
        assert self.driving_cursor is not None
        driving = TurboDrivingScan(legs[0], self.driving_cursor)
        a0 = aliases[0]
        a_last = aliases[last]
        first_leg = legs[1]
        first_batchable = batchable[1]
        # Per-position caches, generation-checked once per driving chunk
        # (probe epochs never move in mode NONE; heap versions only move if
        # the consumer mutates tables between yields, which also requires an
        # index refresh — the chunk-granular ensure covers that window).
        caches: list = [None] * leg_count
        for p in range(1, leg_count):
            if batchable[p]:
                caches[p] = self.probe_caches.get(aliases[p])

        # Upcoming driving rows, aligned with pending[1]'s match lists.
        expected: deque[Row] = deque()
        # Pre-resolved match lists per position, aligned with the parent's
        # upcoming rows (each parent-row visit pops exactly one).
        pending: list[deque] = [deque() for _ in range(leg_count)]
        match_rows: list[list[Row]] = [[] for _ in range(leg_count)]
        match_idx = [0] * leg_count

        position = 0
        while True:
            if position == 0:
                if not expected:
                    chunk = driving.next_survivors(batch)
                    if not chunk:
                        self.depleted_from = 0
                        return
                    for p in range(1, leg_count):
                        cache_p = caches[p]
                        if cache_p is not None:
                            cache_p.ensure(
                                legs[p].probe_epoch, legs[p].table.version
                            )
                    expected.extend(chunk)
                    if first_batchable:
                        pending[1].extend(
                            first_leg.probe_batch_turbo(
                                binding, a0, chunk, caches[1]
                            )
                        )
                row = expected.popleft()
                self.driving_rows_since_check += 1
                self.driving_rows_total += 1
                binding[a0] = row
                if first_batchable:
                    matches = pending[1].popleft()
                else:
                    matches = first_leg.probe(binding)
                if last == 1:
                    if matches:
                        count = len(matches)
                        self.rows_emitted += count
                        meter.rows_emitted += count
                        for inner in matches:
                            binding[a_last] = inner
                            yield projector(binding)
                    continue
                match_rows[1] = matches
                match_idx[1] = 0
                position = 1
                continue

            rows_list = match_rows[position]
            idx = match_idx[position]
            if idx >= len(rows_list):
                position -= 1
                continue
            match_idx[position] = idx + 1
            row = rows_list[idx]
            alias = aliases[position]
            binding[alias] = row
            nxt = position + 1
            leg = legs[nxt]
            if batchable[nxt]:
                pend = pending[nxt]
                if pend:
                    matches = pend.popleft()
                else:
                    remaining = len(rows_list) - idx
                    if remaining == 1:
                        # One remaining outer: the batch scaffolding costs
                        # more than it saves.
                        matches = leg.probe_turbo(binding, caches[nxt])
                    else:
                        outers = rows_list[idx : idx + batch]
                        pend.extend(
                            leg.probe_batch_turbo(
                                binding, alias, outers, caches[nxt]
                            )
                        )
                        binding[alias] = row
                        matches = pend.popleft()
            else:
                matches = leg.probe(binding)
            if nxt == last:
                if matches:
                    count = len(matches)
                    self.rows_emitted += count
                    meter.rows_emitted += count
                    for inner in matches:
                        binding[a_last] = inner
                        yield projector(binding)
                continue
            match_rows[nxt] = matches
            match_idx[nxt] = 0
            position = nxt

    # ------------------------------------------------------------------
    # Fast monitored path (chunk-aggregated observations)
    # ------------------------------------------------------------------
    # Observation schemes per pipeline position (see probe_batch_fast).
    _OBS_BULK = 0     # prep applies window + counts + incoming (chunk-bulk)
    _OBS_WINDOW = 1   # prep applies window + counts; incoming per pop
    _OBS_DEFER = 2    # per-probe records, everything applied per pop

    def _run_fast(self) -> Iterator[tuple]:
        """Monitored batched loop with chunk-aggregated accounting.

        Entry conditions: monitoring on, no observability (plus the
        scalar-fallback screens: no faults, no oracle, recognized
        controller, multi-leg), on the pipeline ``_run`` opened — from its
        first row when the cascade's gates refuse it (then with no limits
        armed), or from the chunk boundary where the cascade handed back a
        plan it could not rebuild. Then the meter is only read at query end
        or by a limit check, so physical charges and monitor-update charges
        are folded into one aggregate per chunk (``probe_batch_fast``);
        intermediate meter states run up to one chunk ahead — the chunk
        granularity at which the cascade observes a work budget too —
        final totals are scalar-exact.

        Monitor windows and ``incoming_since_check`` feed reorder-check
        *gates and decisions*, so their application point is chosen per
        pipeline position to be provably decision-identical:

        * positions where no check can fire between a chunk's preparation
          and the consumption of its last probe get chunk-bulk windows —
          the last position always (``on_suffix_depleted`` ignores
          single-leg suffixes, and shallower checks only fire after the
          nested chunk is fully consumed), every position when inner
          reordering is off (inner checks never fire; driving checks only
          at driving-chunk boundaries, where the safe-window caps have
          drained all prepared state);
        * position ``last - 1`` additionally needs ``incoming_since_check``
          advanced per consumed probe, because its own check gate reads the
          counter at mid-chunk depletion events — the window itself is
          bulk-safe since the capped chunk cannot reach the gate threshold
          before its final probe;
        * shallower positions (4+ leg pipelines with inner reordering) keep
          fully per-probe observation records: checks at deeper non-last
          positions can fire mid-chunk and read this leg's window.

        **Fast adaptive mode** (``monitor_granularity="chunk"``): the
        safe-window width caps and the per-probe schemes exist only to keep
        adaptation *bit-identical* to scalar. When the user opts into
        chunk granularity, chunks run at the full batch size everywhere,
        every position observes chunk-bulk (one O(1) aggregated ring entry
        per chunk — see :class:`~repro.core.monitor.AggregatedWindow`),
        and reorder checks fire at the first depletion with **no prepared
        state outstanding** — i.e. at chunk boundaries — once the check
        counters pass the frequency gate. Rows and final work totals stay
        exact; monitor estimates carry bounded within-chunk skew and
        adaptation points are coarser (amortized), which is precisely what
        buys the batched monitored speedup.
        """
        config = self.config
        mode = config.mode
        batch_size = config.batch_size
        check_freq = config.check_frequency
        controller = self.controller
        meter = self.catalog.meter
        # Armed only when the cascade hands a limited query back mid-scan.
        limits = self._enforcer
        projector = self._projector
        reorders_inner = mode.reorders_inner
        chunked = config.monitor_granularity == "chunk"

        leg_count = len(self.order)
        last = leg_count - 1
        schemes = [self._OBS_BULK] * leg_count
        if reorders_inner and not chunked:
            for p in range(1, last):
                schemes[p] = (
                    self._OBS_WINDOW if p == last - 1 else self._OBS_DEFER
                )
        defer = self._OBS_DEFER
        window_scheme = self._OBS_WINDOW

        binding: dict[str, Row] = {}
        match_rows: list[list[Row]] = [[] for _ in range(leg_count)]
        match_idx: list[int] = [0] * leg_count
        pending: list[deque] = [deque() for _ in range(leg_count)]
        expected: deque[Row] = deque()
        shadow: DrivingShadow | None = None

        # The controller's depletion hooks gate on counters this loop
        # already tracks (incoming_since_check / driving_rows_since_check
        # vs the check frequency), so calls that would provably gate out
        # are skipped entirely — identical decisions, none of the per-call
        # dispatch and sandbox bookkeeping on the ~c-1 of every c
        # depletions that cannot fire a check.
        reorders_driving = mode.reorders_driving

        position = 0
        while True:
            if position == 0:
                self.depleted_from = 0
                if chunked and not expected:
                    # Driving-chunk boundary: apply every leg's deferred
                    # window folds as ONE aggregate per leg before any
                    # check (or end-of-query snapshot) can read a window.
                    self._flush_chunk_folds()
                if (
                    reorders_driving
                    and self.driving_rows_since_check >= check_freq
                    # Chunk granularity: defer the check to the driving
                    # chunk boundary so no prepared state can go stale
                    # (exact granularity drains the lookahead before the
                    # gate can pass, making this condition a no-op there).
                    and (not chunked or not expected)
                    and controller.on_pipeline_depleted()
                ):
                    # Driving switch: probes recompiled; the safe windows
                    # guarantee the deques were already empty, but clear
                    # defensively and drop the stale shadow.
                    leg_count = len(self.order)
                    last = leg_count - 1
                    schemes = [self._OBS_BULK] * leg_count
                    if reorders_inner and not chunked:
                        for p in range(1, last):
                            schemes[p] = (
                                self._OBS_WINDOW
                                if p == last - 1
                                else self._OBS_DEFER
                            )
                    binding.clear()
                    expected.clear()
                    for pend in pending:
                        pend.clear()
                    shadow = None
                if limits is not None:
                    limits.check()
                if not expected:
                    shadow = self._refill_driving_fast(
                        shadow, expected, pending, binding,
                        leg_count, batch_size, check_freq, mode, schemes[1],
                        chunked,
                    )
                assert self._driving_iter is not None
                row = next(self._driving_iter, None)
                if row is None:
                    return
                self.depleted_from = None
                self.driving_rows_since_check += 1
                self.driving_rows_total += 1
                binding[self.order[0]] = row
                position = 1
                leg = self.legs[self.order[1]]
                if expected:
                    predicted = expected.popleft()
                    if predicted is not row:
                        raise ExecutionError(
                            "batched executor: driving lookahead diverged "
                            f"from the cursor on leg {self.order[0]!r}"
                        )
                    entry = pending[1].popleft()
                    scheme = schemes[1]
                    if scheme == defer:
                        match_rows[1] = leg.consume_fast_record(entry)
                    else:
                        if scheme == window_scheme:
                            leg.incoming_since_check += 1
                        match_rows[1] = entry
                else:
                    match_rows[1] = leg.probe(binding)
                match_idx[1] = 0
                continue

            rows_list = match_rows[position]
            idx = match_idx[position]
            if idx >= len(rows_list):
                # Suffix at >= position is depleted (Sec 4.1).
                self.depleted_from = position
                if reorders_inner and position < last:
                    if chunked:
                        # Chunk granularity: one inner check per driving
                        # chunk, at the chunk boundary (position-1
                        # depletion with nothing prepared or expected —
                        # i.e. the chunk's last driving row just drained).
                        # A whole-suffix permutation decided at position 1
                        # subsumes deeper suffix checks, so deeper
                        # depletions never fire mid-chunk; this is what
                        # the vectorized adaptive cascade replicates.
                        if (
                            position == 1
                            and not expected
                            and not pending[1]
                            and self.legs[self.order[1]].incoming_since_check
                            >= check_freq
                        ):
                            self._flush_chunk_folds()
                            controller.on_suffix_depleted(1)
                    elif (
                        self.legs[self.order[position]].incoming_since_check
                        >= check_freq
                    ):
                        controller.on_suffix_depleted(position)
                position -= 1
                continue
            match_idx[position] = idx + 1
            row = rows_list[idx]
            self.depleted_from = None
            binding[self.order[position]] = row
            if position == last:
                if limits is not None:
                    limits.check_emit()
                self.rows_emitted += 1
                meter.rows_emitted += 1
                yield projector(binding)
                continue
            position += 1
            leg = self.legs[self.order[position]]
            pend = pending[position]
            if not pend:
                self._refill_inner_fast(
                    position, binding, match_rows, match_idx, pending,
                    last, batch_size, check_freq, reorders_inner,
                    schemes[position], chunked,
                )
            if pend:
                entry = pend.popleft()
                scheme = schemes[position]
                if scheme == defer:
                    match_rows[position] = leg.consume_fast_record(entry)
                else:
                    if scheme == window_scheme:
                        leg.incoming_since_check += 1
                    match_rows[position] = entry
            else:
                match_rows[position] = leg.probe(binding)
            match_idx[position] = 0

    def _flush_chunk_folds(self) -> None:
        """Apply every leg's deferred window folds (chunk granularity).

        Chunk-granularity probes defer their window aggregates
        (:meth:`LegMonitor.defer_chunk`); this applies them as ONE
        :meth:`AggregatedWindow.observe_chunk` per leg — the same single
        fold per leg per driving chunk the vectorized adaptive cascade
        computes from its kernels. Called at every driving-chunk boundary
        before anything (a reorder check, an end-of-query snapshot) can
        read a window. No-op for legs with nothing pending.
        """
        for leg in self.legs.values():
            leg.monitor.flush_chunk()

    def _refill_driving_fast(
        self,
        shadow: DrivingShadow | None,
        expected: deque,
        pending: list[deque],
        binding: dict[str, Row],
        leg_count: int,
        batch_size: int,
        check_freq: int,
        mode,
        scheme: int,
        chunked: bool = False,
    ) -> DrivingShadow | None:
        """Fast-path twin of :meth:`_refill_driving` (same safe windows).

        Chunk granularity skips the safe-window caps — chunks run at the
        full batch size and checks are deferred to chunk boundaries by the
        caller's gates instead.
        """
        first_alias = self.order[1]
        first_leg = self.legs[first_alias]
        probe_config = first_leg.probe_config
        if probe_config is None or probe_config.hash_column is not None:
            return shadow  # hash legs prepare nothing; probe directly
        width = batch_size
        if not chunked:
            if mode.reorders_driving:
                width = min(width, check_freq - self.driving_rows_since_check)
            if mode.reorders_inner and leg_count >= 3:
                width = min(width, check_freq - first_leg.incoming_since_check)
            width = max(width, 1)
        if shadow is None:
            assert self.driving_cursor is not None
            shadow = DrivingShadow(
                self.legs[self.order[0]], self.driving_cursor
            )
        rows = shadow.next_survivors(width)
        if rows:
            driving_alias = self.order[0]
            saved = binding.get(driving_alias)
            pending[1].extend(
                first_leg.probe_batch_fast(
                    binding, driving_alias, rows,
                    self._cache_for(first_alias),
                    defer=scheme == self._OBS_DEFER,
                    bump_incoming=scheme == self._OBS_BULK,
                    aggregate=chunked,
                )
            )
            if saved is not None:
                binding[driving_alias] = saved
            expected.extend(rows)
        return shadow

    def _refill_inner_fast(
        self,
        position: int,
        binding: dict[str, Row],
        match_rows: list[list[Row]],
        match_idx: list[int],
        pending: list[deque],
        last: int,
        batch_size: int,
        check_freq: int,
        reorders_inner: bool,
        scheme: int,
        chunked: bool = False,
    ) -> None:
        """Fast-path twin of :meth:`_refill_inner` (same safe windows).

        Chunk granularity skips the safe-window cap; the caller's
        pending-empty gate defers checks to chunk boundaries instead.
        """
        alias = self.order[position]
        leg = self.legs[alias]
        probe_config = leg.probe_config
        if probe_config is None or probe_config.hash_column is not None:
            return
        width = batch_size
        if not chunked and reorders_inner and position < last:
            width = min(width, check_freq - leg.incoming_since_check)
            width = max(width, 1)
        parent_alias = self.order[position - 1]
        current = binding[parent_alias]
        if width > 1:
            parent_rows = match_rows[position - 1]
            parent_next = match_idx[position - 1]
            outers = [current]
            outers.extend(parent_rows[parent_next : parent_next + width - 1])
        else:
            outers = [current]
        pending[position].extend(
            leg.probe_batch_fast(
                binding, parent_alias, outers, self._cache_for(alias),
                defer=scheme == self._OBS_DEFER,
                bump_incoming=scheme == self._OBS_BULK,
                aggregate=chunked,
            )
        )
        binding[parent_alias] = current

    # ------------------------------------------------------------------
    def _refill_driving(
        self,
        shadow: DrivingShadow | None,
        expected: deque,
        prepared: list[deque],
        binding: dict[str, Row],
        leg_count: int,
        batch_size: int,
        check_freq: int,
        mode,
        obs,
    ) -> DrivingShadow | None:
        """Predict the next driving survivors and pre-resolve leg 1 probes.

        The chunk width shrinks to the distance to the next driving-switch
        check (and, with three or more legs, to position 1's next
        inner-reorder check) so no prepared probe can outlive a pipeline
        permutation.
        """
        first_alias = self.order[1]
        first_leg = self.legs[first_alias]
        probe_config = first_leg.probe_config
        if probe_config is None or probe_config.hash_column is not None:
            return shadow  # hash legs replay nothing; probe directly
        width = batch_size
        if mode.reorders_driving:
            width = min(width, check_freq - self.driving_rows_since_check)
        if mode.reorders_inner and leg_count >= 3:
            width = min(
                width, check_freq - first_leg.incoming_since_check
            )
        width = max(width, 1)
        if shadow is None:
            assert self.driving_cursor is not None
            shadow = DrivingShadow(
                self.legs[self.order[0]], self.driving_cursor
            )
        rows = shadow.next_survivors(width)
        if rows:
            driving_alias = self.order[0]
            saved = binding.get(driving_alias)
            prepared[1].extend(
                first_leg.probe_batch(
                    binding, driving_alias, rows, self._cache_for(first_alias)
                )
            )
            if saved is not None:
                binding[driving_alias] = saved
            expected.extend(rows)
            if obs is not None and obs.tracer is not None:
                obs.on_driving_batch(driving_alias, len(rows))
        return shadow

    def _refill_inner(
        self,
        position: int,
        binding: dict[str, Row],
        match_rows: list[list[Row]],
        match_idx: list[int],
        prepared: list[deque],
        last: int,
        batch_size: int,
        check_freq: int,
        mode,
    ) -> None:
        """Pre-resolve probes at *position* for the parent's upcoming rows.

        The chunk is the currently bound parent row plus lookahead into the
        parent's remaining match list, capped at the distance to this
        position's next inner-reorder check.
        """
        alias = self.order[position]
        leg = self.legs[alias]
        probe_config = leg.probe_config
        if probe_config is None or probe_config.hash_column is not None:
            return
        width = batch_size
        if mode.reorders_inner and position < last:
            width = min(width, check_freq - leg.incoming_since_check)
        width = max(width, 1)
        parent_alias = self.order[position - 1]
        current = binding[parent_alias]
        if width > 1:
            parent_rows = match_rows[position - 1]
            parent_next = match_idx[position - 1]
            outers = [current]
            outers.extend(parent_rows[parent_next : parent_next + width - 1])
        else:
            outers = [current]
        prepared[position].extend(
            leg.probe_batch(binding, parent_alias, outers, self._cache_for(alias))
        )
        binding[parent_alias] = current
