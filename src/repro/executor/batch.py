"""The batched executor: dispatch to the engine, and its reference loop.

``AdaptiveConfig(batched=True)`` asks for *chunk* semantics: rows and final
work totals equal the scalar oracle's, but a monitored run folds each
chunk into a leg's window as one weighted aggregate and fires its reorder
checks at chunk boundaries (DESIGN.md Sec 4d). Two things run them:

* the columnar cascade (:mod:`repro.executor.vector`) — the engine;
* :meth:`BatchedPipelineExecutor._run_fast` — the same semantics as a
  nested-loop state machine over prepared chunks, for the shapes the
  cascade refuses (row backend, hash-probed legs, a plan rebuilt mid-query
  that its gates reject). It is what the differential suites hold the
  cascade bit-identical to: rows in order, ``WorkMeter``, adaptation
  events, flight records.

Dispatch (:meth:`BatchedPipelineExecutor._run`): a configuration that needs
per-row visibility (single-leg pipeline, invariant oracle, fault injection,
``switch_at_key_boundary``, a custom controller, hot observability) runs
the scalar machine; otherwise the cascade; otherwise ``_run_fast`` when
monitored and the scalar machine when static (nothing to amortize: a
static plan's chunk semantics *are* the scalar ones).

``_run_fast`` reads the driving leg ahead through an uncharged
:class:`DrivingShadow` to prepare the first inner leg's probes for a whole
chunk (:meth:`~repro.executor.access.RuntimeLeg.probe_batch_fast`); the
rows actually consumed still come from the real charging cursor iterator,
so scan accounting, monitor records and freeze/resume positions are the
scalar ones by construction (the shadow's prediction is checked against
the consumed row object). Hash-probed legs are probed row by row.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.core.controller import AdaptationController
from repro.errors import ExecutionError
from repro.executor.access import RuntimeLeg
from repro.executor.pipeline import PipelineExecutor, _NoAdaptation
from repro.executor.vector import cascade
from repro.robustness.guard import SandboxedController
from repro.storage.cursor import IndexScanCursor
from repro.storage.table import Row


def _index_walk(cursor: IndexScanCursor) -> Iterator[int]:
    """The RIDs *cursor* has yet to yield, in its walk order, uncharged.

    Same ranges as the cursor itself (``IndexScanCursor.remaining_spans``),
    relative to its current position.
    """
    entries = cursor.index._entries
    for _, lo, hi in cursor.remaining_spans():
        for position in range(lo, hi):
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


class BatchedPipelineExecutor(PipelineExecutor):
    """Drop-in executor running chunk semantics (scalar fallback built in)."""

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
            # A custom controller may permute the pipeline between chunk
            # boundaries, where prepared probes would go stale.
            return "unrecognized adaptation controller"
        if self.obs is not None and self.obs.hot:
            # Per-row hooks read the meter, the monitors and the pipeline
            # mid-chunk.
            return "hot observability armed"
        return None

    # ------------------------------------------------------------------
    def _run(self) -> Iterator[tuple]:
        self._open_driving(self.order[0])
        self._compile_all_probes()
        self.vector_gate_reason = self._scalar_fallback_reason()
        if self.vector_gate_reason is None:
            # The columnar engine: identical rows, order, final totals and
            # (monitored) windows and decisions as _run_fast. None when a
            # gate fails (the gate names itself on vector_gate_reason);
            # False when a plan rebuilt mid-query is refused and the
            # partially consumed cursors come back. Armed limits are
            # enforced at its chunk boundaries (see vector._run_cascade).
            monitored = self.config.mode.monitors
            engine = cascade(self)
            if engine is not None:
                self.engine_used = "vector-adaptive" if monitored else "vector"
                if (yield from engine):
                    return
                self.engine_used = "vector-adaptive+fast"
                yield from self._run_fast()
                return
            if monitored:
                self.engine_used = "fast"
                yield from self._run_fast()
                return
        yield from self._run_scalar()

    # ------------------------------------------------------------------
    # The chunk-semantics reference loop
    # ------------------------------------------------------------------
    def _run_fast(self) -> Iterator[tuple]:
        """Monitored nested-loop machine over prepared chunks.

        Entry conditions: monitoring on and the scalar-fallback screens
        passed (multi-leg, no faults, no oracle, no hot observability,
        recognized controller), on the pipeline ``_run`` opened — from its
        first row when the cascade's gates refuse it, or from the chunk
        boundary where the cascade handed back a plan it could not rebuild.
        The meter is then only read at query end or by a limit check, so a
        chunk's physical charges and monitor-update charges hit it once,
        when the chunk is prepared (``probe_batch_fast``): intermediate
        meter states run up to one chunk ahead — the granularity at which
        the cascade observes a work budget too — final totals are
        scalar-exact.

        Chunks are ``batch_size`` outer rows at every position. Each
        prepared chunk defers ONE window aggregate per leg
        (:class:`~repro.core.monitor.AggregatedWindow`), applied at the
        next driving-chunk boundary, and reorder checks fire only there —
        at a depletion with no prepared state outstanding — once the check
        counters pass the frequency gate. Limits keep the scalar machine's
        safe points: ``check()`` before every driving row, ``check_emit()``
        before every result row, so the row budget is exact and work /
        deadline / cancellation are seen at most one chunk late.
        """
        config = self.config
        mode = config.mode
        batch_size = config.batch_size
        check_freq = config.check_frequency
        controller = self.controller
        meter = self.catalog.meter
        limits = self._enforcer
        projector = self._projector
        reorders_inner = mode.reorders_inner
        # The controller's depletion hooks gate on counters this loop
        # already tracks (incoming_since_check / driving_rows_since_check
        # vs the check frequency), so calls that would provably gate out
        # are skipped entirely.
        reorders_driving = mode.reorders_driving

        leg_count = len(self.order)
        last = leg_count - 1
        binding: dict[str, Row] = {}
        match_rows: list[list[Row]] = [[] for _ in range(leg_count)]
        match_idx: list[int] = [0] * leg_count
        # Pre-resolved match lists per position, aligned with the parent's
        # upcoming rows (each parent-row visit pops exactly one).
        pending: list[deque] = [deque() for _ in range(leg_count)]
        # Shadow-predicted upcoming driving rows, aligned with pending[1].
        expected: deque[Row] = deque()
        shadow: DrivingShadow | None = None

        position = 0
        while True:
            if position == 0:
                self.depleted_from = 0
                if not expected:
                    # Driving-chunk boundary: apply every leg's deferred
                    # window folds as ONE aggregate per leg before any
                    # check (or end-of-query snapshot) can read a window,
                    # then offer the driving switch — nothing prepared can
                    # go stale here.
                    self._flush_chunk_folds()
                    if (
                        reorders_driving
                        and self.driving_rows_since_check >= check_freq
                        and controller.on_pipeline_depleted()
                    ):
                        # Driving switch: every probe was recompiled.
                        leg_count = len(self.order)
                        last = leg_count - 1
                        binding.clear()
                        for pend in pending:
                            pend.clear()
                        shadow = None
                if limits is not None:
                    limits.check()
                if not expected:
                    shadow = self._refill_driving(
                        shadow, expected, pending, binding, batch_size
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
                if expected:
                    predicted = expected.popleft()
                    if predicted is not row:
                        raise ExecutionError(
                            "batched executor: driving lookahead diverged "
                            f"from the cursor on leg {self.order[0]!r}"
                        )
                    match_rows[1] = pending[1].popleft()
                else:
                    match_rows[1] = self.legs[self.order[1]].probe(binding)
                match_idx[1] = 0
                continue

            rows_list = match_rows[position]
            idx = match_idx[position]
            if idx >= len(rows_list):
                # Suffix at >= position is depleted (Sec 4.1).
                self.depleted_from = position
                if (
                    reorders_inner
                    and position == 1
                    and last > 1
                    and not expected
                    and not pending[1]
                    and self.legs[self.order[1]].incoming_since_check
                    >= check_freq
                ):
                    # One inner check per driving chunk, at the chunk
                    # boundary (the chunk's last driving row just
                    # drained). A whole-suffix permutation decided at
                    # position 1 subsumes deeper suffix checks, so deeper
                    # depletions never fire mid-chunk; this is what the
                    # cascade replicates.
                    self._flush_chunk_folds()
                    controller.on_suffix_depleted(1)
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
            pend = pending[position]
            if not pend:
                self._refill_inner(
                    position, binding, match_rows, match_idx, pend, batch_size
                )
            if pend:
                match_rows[position] = pend.popleft()
            else:
                match_rows[position] = self.legs[self.order[position]].probe(
                    binding
                )
            match_idx[position] = 0

    def _flush_chunk_folds(self) -> None:
        """Apply every leg's deferred window folds.

        Chunk probes defer their window aggregates
        (:meth:`LegMonitor.defer_chunk`); this applies them as ONE
        :meth:`AggregatedWindow.observe_chunk` per leg — the same single
        fold per leg per driving chunk the cascade computes from its
        kernels. Called at every driving-chunk boundary before anything (a
        reorder check, an end-of-query snapshot) can read a window. No-op
        for legs with nothing pending.
        """
        for leg in self.legs.values():
            leg.monitor.flush_chunk()

    def _refill_driving(
        self,
        shadow: DrivingShadow | None,
        expected: deque,
        pending: list[deque],
        binding: dict[str, Row],
        batch_size: int,
    ) -> DrivingShadow | None:
        """Predict the next driving survivors and pre-resolve leg 1 probes."""
        first_leg = self.legs[self.order[1]]
        probe_config = first_leg.probe_config
        if probe_config is None or probe_config.hash_column is not None:
            return shadow  # hash legs prepare nothing; probe directly
        if shadow is None:
            assert self.driving_cursor is not None
            shadow = DrivingShadow(
                self.legs[self.order[0]], self.driving_cursor
            )
        rows = shadow.next_survivors(batch_size)
        if rows:
            driving_alias = self.order[0]
            saved = binding.get(driving_alias)
            pending[1].extend(
                first_leg.probe_batch_fast(binding, driving_alias, rows)
            )
            if saved is not None:
                binding[driving_alias] = saved
            expected.extend(rows)
        return shadow

    def _refill_inner(
        self,
        position: int,
        binding: dict[str, Row],
        match_rows: list[list[Row]],
        match_idx: list[int],
        pend: deque,
        batch_size: int,
    ) -> None:
        """Pre-resolve probes at *position* for the parent's upcoming rows.

        The chunk is the currently bound parent row plus lookahead into the
        parent's remaining match list.
        """
        leg = self.legs[self.order[position]]
        probe_config = leg.probe_config
        if probe_config is None or probe_config.hash_column is not None:
            return
        parent_alias = self.order[position - 1]
        current = binding[parent_alias]
        outers = [current]
        if batch_size > 1:
            parent_next = match_idx[position - 1]
            outers.extend(
                match_rows[position - 1][parent_next : parent_next + batch_size - 1]
            )
        pend.extend(leg.probe_batch_fast(binding, parent_alias, outers))
        binding[parent_alias] = current
