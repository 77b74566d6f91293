"""Run-time access operators: one leg per table in the plan.

A leg that can change its role keeps a :class:`LegState` (the engine's
legs) or, on the row store's scalar machine, a :class:`RuntimeLeg`, which
adds the row-at-a-time probe and driving row generator. A leg can serve
either role of the pipeline at any time:

* **driving** — the run reads its scan (a cursor on the scalar machine,
  the walk of :mod:`repro.executor.vector` on the engine) as its
  :class:`~repro.optimizer.plans.DrivingSpec` describes it, or resumes it
  where it was frozen after a switch-back (Sec 4.2);
* **inner** — it is probed once per incoming outer row through a
  :class:`ProbeConfig` compiled for the *current* leg order: the most
  selective available join predicate with an index becomes the access
  predicate, everything else (other join predicates, all local predicates,
  and the duplicate-prevention positional predicate) is checked residually.
  With no index on any available join column, the most selective available
  predicate is probed through an in-memory hash table instead (the Sec 6
  pipelined hash join, :mod:`repro.executor.hashprobe`).

A probe config depends on the leg, the set of legs bound before it and
the access predicate chosen among them, never on their order: it is
compiled once per such context into the plan's step memo
(:func:`repro.executor.pipeline.memo_step`) and installed whenever the
pipeline reaches the context, not per row — this is what keeps the paper's
approach cheaper than row routing: adaptation state lives in the pipeline,
and each row only pays the predicates themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.core.monitor import IDLE_MONITOR, DrivingMonitor, LegMonitor
from repro.errors import ExecutionError
from repro.executor.hashprobe import HashProbeTable
from repro.robustness.faults import call_with_retry
from repro.optimizer.plans import DrivingKind, PlanLeg
from repro.query.joingraph import JoinPredicate
from repro.query.predicates import LocalPredicate, PositionalPredicate
from repro.storage.cursor import IndexScanCursor, TableScanCursor
from repro.storage.index import SortedIndex
from repro.storage.table import Row

Binding = dict[str, Row]
Cursor = TableScanCursor | IndexScanCursor


@dataclass(frozen=True, slots=True)
class ProbeConfig:
    """Compiled probe strategy for a leg at its current pipeline position.

    Immutable: kept in the plan's step memo
    (:func:`~repro.executor.pipeline.memo_step`) and shared by every
    execution of the plan and its corrected plans, across threads.
    Equality is by what a probe does — the getters are closures over
    ``key_alias`` / ``key_slot`` / ``residual_sources``, which are
    compared in their place.
    """

    access_index: SortedIndex | None
    access_predicate: JoinPredicate | None
    # Extracts the probe key from the outer binding (None only for a leg
    # with no join predicate, which never probes).
    key_getter: Callable[[Binding], Any] | None = field(compare=False)
    # Residual equality join predicates: (outer getter, our column slot).
    residual_joins: tuple[tuple[Callable[[Binding], Any], int], ...] = field(
        compare=False
    )
    # Which join predicates are available at this position (for JC model).
    available_predicates: tuple[JoinPredicate, ...]
    # Sec 6 extension: probe via an in-memory hash table on this column
    # (built lazily on first probe) — set when no available join column
    # of this leg is indexed.
    hash_column: str | None = None
    # Outer-side source of the probe key as (alias, row slot) — what
    # key_getter reads. The cascade reads key columns through these
    # instead of calling the getter per row.
    key_alias: str | None = None
    key_slot: int | None = None
    # Outer-side (alias, row slot) of each residual join, parallel to
    # residual_joins.
    residual_sources: tuple[tuple[str, int], ...] = ()


def bind_local_tests(
    plan_leg: PlanLeg, table: Any
) -> tuple[tuple[LocalPredicate, Callable], ...]:
    """(predicate, bound test) pairs for one leg's local predicates.

    Every store binds with the interpreter (``predicate.bind``): the
    cascade never calls a row test — it masks whole columns through
    ``vector_spec`` of the predicate beside it — so a row test runs only
    on the scalar machine. The tests are pure functions of a row, so one
    tuple serves every execution of the plan.
    """
    schema = table.schema
    return tuple(
        (predicate, predicate.bind(schema))
        for predicate in plan_leg.local_predicates
    )


def compile_probe(
    alias: str,
    legs: Mapping[str, Any],
    available: Sequence[JoinPredicate],
    access: JoinPredicate,
) -> ProbeConfig:
    """Leg *alias*'s probe through *access*, one of the join predicates
    *available* to it with the legs before it bound: an index probe when
    the leg indexes *access*'s column, else a probe of an in-memory hash
    table on it; every other available predicate is checked residually.
    *legs* are the plan's :class:`~repro.executor.pipeline.LegBinding` by
    alias."""
    indexes = legs[alias].indexes
    column = access.column_of(alias)
    hash_column = None if column in indexes else column

    def slot_of(other: str, column: str) -> int:
        return legs[other].table.schema.position_of(column)

    def source_of(predicate: JoinPredicate) -> tuple[str, int]:
        other = predicate.other(alias)
        return other, slot_of(other, predicate.column_of(other))

    def getter_for(predicate: JoinPredicate) -> Callable[[Binding], Any]:
        other, slot = source_of(predicate)

        def get(binding: Binding) -> Any:
            return binding[other][slot]

        return get

    residual = [p for p in available if p is not access]
    key_alias, key_slot = source_of(access)
    return ProbeConfig(
        access_index=None if hash_column is not None else indexes[column],
        access_predicate=access,
        key_getter=getter_for(access),
        residual_joins=tuple(
            (getter_for(p), slot_of(alias, p.column_of(alias)))
            for p in residual
        ),
        available_predicates=tuple(available),
        hash_column=hash_column,
        key_alias=key_alias,
        key_slot=key_slot,
        residual_sources=tuple(source_of(p) for p in residual),
    )


def driving_index(plan_leg: PlanLeg, indexes: Mapping[str, Any]) -> SortedIndex | None:
    """The index *plan_leg*'s driving scan reads (*indexes*: its table's
    indexes by column), None for a table scan."""
    spec = plan_leg.driving
    if spec.kind is not DrivingKind.INDEX_SCAN:
        return None
    index = indexes.get(spec.index_column or "")
    if index is None:
        raise ExecutionError(
            f"leg {plan_leg.alias!r}: driving index on "
            f"{spec.index_column!r} does not exist"
        )
    return index


FLOW_COUNTERS = ("rows_in", "index_matches", "rows_out", "rows_scanned", "rows_survived")


class LegFlow:
    """A leg's row flow over the run, in both roles (what EXPLAIN ANALYZE,
    the metrics and the trace report): all an observed unmonitored cascade
    keeps of a leg. Bumped where the numbers are computed anyway: per probe
    / driving row by the scalar machine, once per chunk by the cascade."""

    __slots__ = ("alias", *FLOW_COUNTERS)

    def __init__(self, alias: str) -> None:
        self.alias = alias
        self.rows_in = self.index_matches = self.rows_out = 0
        self.rows_scanned = self.rows_survived = 0


class LegState(LegFlow):
    """A leg of a run that can change its plan: its flow, what a chunk (or
    a probe) folds into — windows, local-predicate counts, rows since its
    last check — and what the controller reads: probe config, positional
    predicate, model parts, plan leg and its live model (built at the
    run's first check, refreshed when ``model_moved``: where a fold, a scan
    advance or a re-install sets it). The engine's legs are these."""

    __slots__ = (
        "plan_leg",
        "model_parts",
        "monitoring_enabled",
        "monitor",
        "driving_monitor",
        "local_counts",
        "incoming_since_check",
        "positional",
        "probe_config",
        "degrade_hook",
        "model",
        "model_moved",
    )

    def __init__(
        self,
        plan_leg: PlanLeg,
        binding: Any,
        history_window: int | None = None,
        degrade_hook: Callable[[str, BaseException], None] | None = None,
    ) -> None:
        """One execution's leg over *binding*, the leg's
        :class:`~repro.executor.pipeline.LegBinding` (shared, read-only).
        Monitored with windows of *history_window* rows; None leaves it
        unmonitored, its inner monitor the shared idle one. *degrade_hook*
        is told of a monitoring failure (:meth:`_degrade_monitoring`)."""
        LegFlow.__init__(self, plan_leg.alias)
        self.plan_leg = plan_leg
        self.model_parts = binding.model_parts
        self.monitoring_enabled = history_window is not None
        if history_window is None:
            self.monitor = IDLE_MONITOR
            self.local_counts = []
        else:
            self.monitor = LegMonitor(history_window)
            # Per-local-predicate (evaluated, passed) counters: the
            # monitored S_LPR of an inner leg (core.ranks).
            self.local_counts = [[0, 0] for _ in binding.local_tests]
        # The scan monitor, new each time the leg starts driving.
        self.driving_monitor: DrivingMonitor | None = None
        self.positional: PositionalPredicate | None = None
        self.probe_config: ProbeConfig | None = None
        self.incoming_since_check = 0
        self.degrade_hook = degrade_hook
        self.model = None
        self.model_moved = True

    def install_probe(self, config: ProbeConfig) -> None:
        """Probe through *config* from here on, with an empty check count
        (what the leg counted at its old position says nothing of this
        one)."""
        self.probe_config = config
        self.incoming_since_check = 0

    def _degrade_monitoring(self, exc: BaseException) -> None:
        """Disable this leg's monitoring after a failure inside it: losing
        it costs estimate freshness, never correctness, so the query
        continues (the executor's hook records a ``DEGRADED`` event)."""
        self.monitoring_enabled = False
        if self.degrade_hook is not None:
            self.degrade_hook(self.alias, exc)


class RuntimeLeg(LegState):
    """The scalar machine's leg: it probes row by row and produces its
    driving rows off a cursor."""

    __slots__ = (
        "meter",
        "_hash_tables",
        "table",
        "schema",
        "indexes",
        "local_tests",
        "collect_rids",
        "match_rids",
        "on_retry",
        "_pushed",
    )

    def __init__(
        self,
        plan_leg: PlanLeg,
        binding: Any,
        history_window: int | None = None,
        degrade_hook: Callable[[str, BaseException], None] | None = None,
        on_retry: Callable[[str], None] | None = None,
        collect_rids: bool = False,
    ) -> None:
        """*on_retry* is told the site of each transient-fault retry (an
        observed run's); with *collect_rids* (oracle mode) :meth:`probe`
        also records its matches' RIDs in ``match_rids``."""
        LegState.__init__(self, plan_leg, binding, history_window, degrade_hook)
        self.meter = binding.table.meter
        # The scalar machine's hash builds by access column, reused across
        # reorders and switches.
        self._hash_tables: dict[str, Any] = {}
        self.table = binding.table
        self.schema = binding.table.schema
        self.indexes = binding.indexes
        self.local_tests = binding.local_tests
        self._pushed = binding.pushed
        self.collect_rids = collect_rids
        self.match_rids: list[int] = []
        self.on_retry = on_retry

    # ------------------------------------------------------------------
    # Inner-leg role
    # ------------------------------------------------------------------
    def probe(self, binding: Binding) -> list[Row]:
        """All rows of this leg matching the outer *binding*.

        Returns fully filtered rows (access + residual joins + locals +
        positional predicate) and feeds the leg monitor.
        """
        config = self.probe_config
        if config is None:
            raise ExecutionError(f"leg {self.alias!r} has no probe config")
        meter = self.meter
        work_before = meter.execution_units if self.monitoring_enabled else 0.0
        faulty = self.table.faults is not None

        key = config.key_getter(binding)
        # Hash builds are pre-filtered by the local predicates.
        skip_locals = config.hash_column is not None
        if skip_locals:
            hash_table = self._hash_table_for(config.hash_column)
            if faulty:
                candidates = call_with_retry(
                    lambda: hash_table.probe(key, meter),
                    on_retry=self._retry_hook("hash-probe"),
                )
            else:
                candidates = hash_table.probe(key, meter)
        else:
            index = config.access_index
            if faulty:
                rids = call_with_retry(
                    lambda: index.lookup_rids(key),
                    on_retry=self._retry_hook("index-lookup"),
                )
            else:
                rids = index.lookup_rids(key)
            candidates = [(rid, self.table.fetch(rid)) for rid in rids]
        index_matches = len(candidates)

        matches: list[Row] = []
        match_rids: list[int] = []
        for rid, row in candidates:
            if not self._passes_residuals(binding, rid, row, config, skip_locals):
                continue
            matches.append(row)
            if self.collect_rids:
                match_rids.append(rid)
        if self.collect_rids:
            self.match_rids = match_rids

        if self.monitoring_enabled:
            self.model_moved = True
            try:
                if faulty:
                    self.table.faults.fire("monitor")
                work = meter.execution_units - work_before
                self.monitor.record_probe(index_matches, len(matches), work)
                meter.charge_monitor_update()
                self.incoming_since_check += 1
            except Exception as exc:
                self._degrade_monitoring(exc)
        self.rows_in += 1
        self.index_matches += index_matches
        self.rows_out += len(matches)
        return matches

    def _retry_hook(self, site: str):
        """Per-retry callback for a fault site (or None)."""
        on_retry = self.on_retry
        if on_retry is None:
            return None
        return lambda: on_retry(site)

    def _hash_table_for(self, column: str) -> HashProbeTable:
        table = self._hash_tables.get(column)
        if table is None:
            table = HashProbeTable(
                self.table,
                column,
                self.local_tests,
                self.meter,
                local_counts=self.local_counts if self.monitoring_enabled else None,
            )
            self._hash_tables[column] = table
        return table

    def _passes_residuals(
        self,
        binding: Binding,
        rid: int,
        row: Row,
        config: ProbeConfig,
        skip_locals: bool = False,
    ) -> bool:
        # Local predicates first: they also reject rows whose scan-order key
        # is NULL, so the positional comparison below never sees NULLs.
        # (Hash candidates were filtered at build time; rows with NULL
        # scan-order keys fail the pushed local predicate there too.)
        for slot, (_, test) in enumerate(self.local_tests):
            if skip_locals:
                break
            self.meter.charge_predicate_eval()
            passed = test(row)
            if self.monitoring_enabled:
                counts = self.local_counts[slot]
                counts[0] += 1
                counts[1] += 1 if passed else 0
            if not passed:
                return False
        if self.positional is not None:
            self.meter.charge_predicate_eval()
            if not self.positional.test(rid, row):
                return False
        for get_outer, slot in config.residual_joins:
            self.meter.charge_predicate_eval()
            cell = row[slot]
            if cell is None or cell != get_outer(binding):
                return False
        return True

    # ------------------------------------------------------------------
    # Driving-leg role
    # ------------------------------------------------------------------
    def driving_rows(self, cursor: Cursor) -> Iterator[Row]:
        """Scan rows through *cursor*, applying residual local predicates.

        For index scans the pushed-down ranges already enforce the chosen
        sargable predicate, so only the *other* local predicates are
        rechecked (matching how S_LPI and S_LPR are monitored separately,
        Sec 4.3.1).
        """
        pushed = self.pushed_driving_predicate()
        residual_tests = [
            test for predicate, test in self.local_tests if predicate is not pushed
        ]
        monitor = self.driving_monitor
        while True:
            try:
                if self.table.faults is not None:
                    # Cursor advances consult the fault injector before any
                    # state change, so transient faults are retryable.
                    _, row = call_with_retry(
                        lambda: next(cursor),
                        on_retry=self._retry_hook("cursor-advance"),
                    )
                else:
                    _, row = next(cursor)
            except StopIteration:
                return
            self.meter.charge_predicate_eval(len(residual_tests))
            survived = all(test(row) for test in residual_tests)
            if monitor is not None:  # a monitored run: its scan moved
                self.model_moved = True
                if self.monitoring_enabled:
                    try:
                        monitor.record_scanned(survived)
                        self.meter.charge_monitor_update()
                    except Exception as exc:
                        self._degrade_monitoring(exc)
            self.rows_scanned += 1
            if survived:
                self.rows_survived += 1
                yield row

    def pushed_driving_predicate(self):
        """The local predicate the driving spec pushes into its index scan."""
        return self._pushed
