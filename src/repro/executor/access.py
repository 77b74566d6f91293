"""Run-time access operators: one :class:`RuntimeLeg` per table in the plan.

A leg can serve either role of the pipeline at any time:

* **driving** — it owns a resumable scan cursor built from its
  :class:`~repro.optimizer.plans.DrivingSpec` (or resumed from a frozen
  scan after a switch-back, Sec 4.2);
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


def open_cursor(plan_leg: PlanLeg, table: Any, indexes: Mapping[str, Any]) -> Cursor:
    """A fresh driving scan of *plan_leg* over *table* (*indexes*: its
    indexes by column), as its :class:`~repro.optimizer.plans.DrivingSpec`
    describes it."""
    spec = plan_leg.driving
    if spec.kind is DrivingKind.INDEX_SCAN:
        index = indexes.get(spec.index_column or "")
        if index is None:
            raise ExecutionError(
                f"leg {plan_leg.alias!r}: driving index on "
                f"{spec.index_column!r} does not exist"
            )
        return IndexScanCursor(index, spec.ranges)
    return TableScanCursor(table)


FLOW_COUNTERS = ("rows_in", "index_matches", "rows_out", "rows_scanned", "rows_survived")


class LegFlow:
    """A leg's row flow over the run, in both roles (what EXPLAIN ANALYZE,
    the metrics and the trace report): all an observed unmonitored cascade
    keeps of a leg. Bumped where the numbers are computed anyway: per probe
    / driving row by the scalar machine, once per chunk by the cascade."""

    __slots__ = ("alias", *FLOW_COUNTERS)
    monitoring_enabled = False
    driving_monitor = None

    def __init__(self, alias: str) -> None:
        self.alias = alias
        self.rows_in = self.index_matches = self.rows_out = 0
        self.rows_scanned = self.rows_survived = 0


class RuntimeLeg(LegFlow):
    """Run-time state of one table in the pipeline."""

    __slots__ = (
        "meter",
        "_hash_tables",
        "plan_leg",
        "table",
        "schema",
        "indexes",
        "monitoring_enabled",
        "monitor",
        "driving_monitor",
        "positional",
        "_history_window",
        "local_tests",
        "local_counts",
        "probe_config",
        "incoming_since_check",
        "collect_rids",
        "match_rids",
        "on_retry",
        "degrade_hook",
        "monitor_failure",
        "_pushed",
        "model_parts",
    )

    def __init__(
        self,
        plan_leg: PlanLeg,
        binding: Any,
        history_window: int | None = None,
        on_retry: Callable[[str], None] | None = None,
        degrade_hook: Callable[[str, BaseException], None] | None = None,
        collect_rids: bool = False,
    ) -> None:
        """One execution's leg over *binding*, the leg's
        :class:`~repro.executor.pipeline.LegBinding` in the plan's prepared
        record: its table, indexes, bound local tests and model parts are
        shared with every execution of the plan and read-only here.
        Monitored with windows of *history_window* rows; None leaves the
        leg unmonitored, its inner monitor the shared idle one. *on_retry*,
        *degrade_hook* and *collect_rids* are the executor's (below).
        """
        LegFlow.__init__(self, plan_leg.alias)
        self.meter = binding.table.meter
        # The scalar machine's hash builds by access column, reused across
        # reorders and switches.
        self._hash_tables: dict[str, Any] = {}
        self.plan_leg = plan_leg
        self.table = table = binding.table
        self.schema = table.schema
        self.indexes = binding.indexes
        self.model_parts = binding.model_parts
        self.local_tests = binding.local_tests
        self._pushed = binding.pushed
        self.monitoring_enabled = history_window is not None
        self._history_window = history_window
        if history_window is None:
            self.monitor = IDLE_MONITOR
            self.local_counts = []
        else:
            self.monitor = LegMonitor(history_window)
            # Per-local-predicate (evaluated, passed) counters: the
            # monitored S_LPR of an inner leg (core.ranks).
            self.local_counts = [[0, 0] for _ in self.local_tests]
        self.driving_monitor: DrivingMonitor | None = None
        self.positional: PositionalPredicate | None = None
        self.probe_config: ProbeConfig | None = None
        self.incoming_since_check = 0
        # Oracle mode: probe() additionally records the RIDs of its matches
        # (aligned with the returned rows) in self.match_rids.
        self.collect_rids = collect_rids
        self.match_rids: list[int] = []
        # Told the site of each transient-fault retry (an observed run's).
        self.on_retry = on_retry
        # Monitoring is advisory: if it raises, it is disabled for this leg
        # and the failure reported through degrade_hook instead of aborting
        # the query.
        self.degrade_hook = degrade_hook
        self.monitor_failure: BaseException | None = None

    @property
    def base_cardinality(self) -> int:
        return len(self.table)

    # ------------------------------------------------------------------
    # Inner-leg role
    # ------------------------------------------------------------------
    def install_probe(self, config: ProbeConfig) -> None:
        """Probe through *config* from here on, with an empty check count
        (what the leg counted at its old position says nothing of this
        one)."""
        self.probe_config = config
        self.incoming_since_check = 0

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

    def _degrade_monitoring(self, exc: BaseException) -> None:
        """Disable this leg's monitoring after a failure inside it.

        Monitoring is pure observation: losing it costs estimate freshness,
        never correctness, so the query continues. The executor's hook
        records a ``DEGRADED`` event; without a hook the failure is kept on
        ``monitor_failure`` for post-mortem inspection.
        """
        self.monitoring_enabled = False
        self.monitor_failure = exc
        if self.degrade_hook is not None:
            self.degrade_hook(self.alias, exc)

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
    def open_driving_cursor(self, resume: Cursor | None = None) -> Cursor:
        """Create (or resume) the driving scan cursor for this leg."""
        cursor = resume
        if cursor is None:
            cursor = open_cursor(self.plan_leg, self.table, self.indexes)
        if self._history_window is not None:
            self.driving_monitor = DrivingMonitor(self._history_window)
        return cursor

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
            if self.monitoring_enabled and monitor is not None:
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
