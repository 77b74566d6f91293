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

Probe configs are compiled when the order changes, not per row — this is
what keeps the paper's approach cheaper than row routing: adaptation state
lives in the pipeline, and each row only pays the predicates themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.catalog.catalog import Catalog
from repro.core.monitor import DrivingMonitor, LegMonitor
from repro.errors import ExecutionError
from repro.executor.hashprobe import HashProbeTable
from repro.robustness.faults import DEFAULT_RETRY_POLICY, RetryPolicy, call_with_retry
from repro.optimizer.params import LegModelParts
from repro.optimizer.plans import DrivingKind, PlanLeg
from repro.query.joingraph import JoinPredicate
from repro.query.predicates import LocalPredicate, PositionalPredicate
from repro.storage.compiled import compile_row_test
from repro.storage.cursor import IndexScanCursor, TableScanCursor
from repro.storage.index import SortedIndex
from repro.storage.table import Row

Binding = dict[str, Row]
Cursor = TableScanCursor | IndexScanCursor


@dataclass(frozen=True, slots=True)
class ProbeConfig:
    """Compiled probe strategy for a leg at its current pipeline position.

    Immutable: the starting order's configs are kept with the plan
    (:meth:`PipelinePlan.probe_program`) and shared by every execution of
    it, across threads. Equality is by what a probe does — the getters are
    closures over ``key_alias`` / ``key_slot`` / ``residual_sources``,
    which are compared in their place.
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
    """(predicate, compiled test) pairs for one leg's local predicates.

    The predicate objects are kept for per-predicate monitoring. On the
    columnar backend each test is the expression-compiled closure when the
    tree is a shape the mini-compiler handles; the row backend stays on the
    interpreter's bind() so it remains the unmodified reference oracle.
    Either way the test carries its source predicate as ``test.predicate``
    so index-level group kernels can recover the tree for vectorization.
    The tests are pure functions of a row, so one tuple serves every
    execution of the plan.
    """
    schema = table.schema
    compiled_backend = getattr(table, "backend_name", "row") == "columnar"
    pairs = []
    for predicate in plan_leg.local_predicates:
        test = compile_row_test(predicate, schema) if compiled_backend else None
        if test is None:
            test = predicate.bind(schema)
        try:
            test.predicate = predicate
        except AttributeError:  # non-function callable; still usable
            pass
        pairs.append((predicate, test))
    return tuple(pairs)


class RuntimeLeg:
    """Run-time state of one table in the pipeline."""

    __slots__ = (
        "plan_leg",
        "alias",
        "table",
        "schema",
        "meter",
        "indexes",
        "monitoring_enabled",
        "monitor",
        "driving_monitor",
        "pending_driving_monitor",
        "positional",
        "_history_window",
        "local_tests",
        "local_counts",
        "probe_config",
        "probe_epoch",
        "incoming_since_check",
        "retry_policy",
        "collect_rids",
        "match_rids",
        "obs",
        "degrade_hook",
        "monitor_failure",
        "_hash_tables",
        "model_parts",
        "rows_in",
        "index_matches",
        "rows_out",
        "rows_scanned",
        "rows_survived",
    )

    def __init__(
        self,
        plan_leg: PlanLeg,
        catalog: Catalog,
        local_tests: Sequence[tuple[LocalPredicate, Callable]],
        model_parts: LegModelParts,
        history_window: int,
        monitoring_enabled: bool,
        aggregated_monitor: bool = False,
    ) -> None:
        self.plan_leg = plan_leg
        self.alias = plan_leg.alias
        self.table = catalog.table(plan_leg.table_name)
        self.schema = self.table.schema
        self.meter = self.table.meter
        self.indexes = catalog.indexes_of(plan_leg.table_name)
        # The execution-invariant part of this leg's run-time cost model,
        # shared with every execution of the plan (PlanBindings).
        self.model_parts = model_parts
        self.monitoring_enabled = monitoring_enabled
        # An unmonitored leg never observes a probe: its window only has to
        # read empty, and the aggregated one allocates no ring to do so.
        self.monitor = LegMonitor(
            history_window,
            aggregated=aggregated_monitor or not monitoring_enabled,
        )
        self.driving_monitor: DrivingMonitor | None = None
        self.positional: PositionalPredicate | None = None
        self._history_window = history_window
        # (predicate, compiled test) pairs from bind_local_tests, shared
        # with every other execution of the plan: read-only here.
        self.local_tests = local_tests
        # Per-local-predicate (evaluated, passed) counters: the monitored
        # S_LPR of an inner leg (core.ranks).
        self.local_counts = [[0, 0] for _ in self.local_tests]
        self.probe_config: ProbeConfig | None = None
        # Bumped on every compile_probe: reorders and driving switches
        # change what a probe means (access predicate, residual set,
        # positional filter), so cascade plans keyed on the epoch are
        # rebuilt.
        self.probe_epoch = 0
        self.incoming_since_check = 0
        # Transient-fault retry (only consulted while a fault injector is
        # armed; the production path never pays the wrapper).
        self.retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY
        # Oracle mode: probe() additionally records the RIDs of its matches
        # (aligned with the returned rows) in self.match_rids.
        self.collect_rids = False
        self.match_rids: list[int] = []
        # Observability bundle (set by the executor): told of fault retries.
        self.obs = None
        # The leg's row flow over the whole run, in both roles — what
        # EXPLAIN ANALYZE, the metrics and the trace report. Bumped where
        # the numbers are computed anyway: per probe / driving row here,
        # once per chunk by the cascade (vector._expand, _DrivingWalk).
        self.rows_in = 0
        self.index_matches = 0
        self.rows_out = 0
        self.rows_scanned = 0
        self.rows_survived = 0
        # Monitoring is advisory: if it raises, it is disabled for this leg
        # and the failure reported through degrade_hook (set by the
        # executor) instead of aborting the query.
        self.degrade_hook: Callable[[str, BaseException], None] | None = None
        self.monitor_failure: BaseException | None = None
        # Hash builds are cached per access column: reorders and driving
        # switches that keep the same access column reuse the build.
        self._hash_tables: dict[str, HashProbeTable] = {}

    @property
    def base_cardinality(self) -> int:
        return len(self.table)

    # ------------------------------------------------------------------
    # Inner-leg role
    # ------------------------------------------------------------------
    def compile_probe(
        self,
        preceding: Sequence[str],
        graph: Any,
        schemas: dict[str, Any],
        sel_of: Callable[[JoinPredicate], float],
        slot_of: Callable[[str, str], int] | None = None,
    ) -> None:
        """(Re)compile the probe strategy for the current leg order.

        *preceding* are the aliases bound before this leg; *graph* is the
        query's :class:`~repro.query.joingraph.JoinGraph` (it supplies
        derived predicates from column equivalence classes); *schemas* maps
        alias -> TableSchema of every leg (to compile outer-side getters);
        *sel_of* estimates a join predicate's selectivity, used to pick the
        most selective access predicate — among the indexed ones, or among
        all available ones for a hash probe when none is indexed; *slot_of*,
        when given, is a shared ``(alias, column) -> row slot`` cache so
        repeated recompiles across legs don't re-resolve schema positions.
        """
        available = graph.available_predicates(self.alias, preceding)
        if not available and len(schemas) > 1:
            raise ExecutionError(
                f"leg {self.alias!r} has no available join predicate; "
                "the order is disconnected"
            )
        indexed = [
            predicate
            for predicate in available
            if predicate.column_of(self.alias) in self.indexes
        ]
        access: JoinPredicate | None = None
        hash_column: str | None = None
        if indexed:
            access = min(indexed, key=sel_of)
        elif available:
            access = min(available, key=sel_of)
            hash_column = access.column_of(self.alias)
        residual = [p for p in available if p is not access]

        if slot_of is None:
            def slot_of(alias: str, column: str) -> int:
                return schemas[alias].position_of(column)

        def source_of(predicate: JoinPredicate) -> tuple[str, int]:
            other = predicate.other(self.alias)
            return other, slot_of(other, predicate.column_of(other))

        def getter_for(predicate: JoinPredicate) -> Callable[[Binding], Any]:
            other, slot = source_of(predicate)

            def get(binding: Binding) -> Any:
                return binding[other][slot]

            return get

        key_getter = getter_for(access) if access is not None else None
        key_alias, key_slot = (
            source_of(access) if access is not None else (None, None)
        )
        residual_compiled = tuple(
            (getter_for(p), slot_of(self.alias, p.column_of(self.alias)))
            for p in residual
        )
        self.install_probe(
            ProbeConfig(
                access_index=self.indexes[access.column_of(self.alias)]
                if access is not None and hash_column is None
                else None,
                access_predicate=access,
                key_getter=key_getter,
                residual_joins=residual_compiled,
                available_predicates=tuple(available),
                hash_column=hash_column,
                key_alias=key_alias,
                key_slot=key_slot,
                residual_sources=tuple(source_of(p) for p in residual),
            )
        )

    def install_probe(self, config: ProbeConfig) -> None:
        """Probe through *config* from here on: a new probe epoch.

        What :meth:`compile_probe` ends with; called directly with the
        shared config of the plan's probe program when the pipeline still
        is in the state that program was compiled for.
        """
        self.probe_config = config
        self.probe_epoch += 1
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
                    self.retry_policy,
                    on_retry=self._retry_hook("hash-probe"),
                )
            else:
                candidates = hash_table.probe(key, meter)
        else:
            index = config.access_index
            if faulty:
                rids = call_with_retry(
                    lambda: index.lookup_rids(key),
                    self.retry_policy,
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
        """Per-retry observability callback for a fault site (or None)."""
        if self.obs is None:
            return None
        return lambda: self.obs.on_fault_retry(site)

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
        if resume is not None:
            cursor = resume
        else:
            spec = self.plan_leg.driving
            if spec.kind is DrivingKind.INDEX_SCAN:
                index = self.indexes.get(spec.index_column or "")
                if index is None:
                    raise ExecutionError(
                        f"leg {self.alias!r}: driving index on "
                        f"{spec.index_column!r} does not exist"
                    )
                cursor = IndexScanCursor(index, list(spec.ranges))
            else:
                cursor = TableScanCursor(self.table)
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
                        self.retry_policy,
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
        return self.plan_leg.driving.pushed(
            [predicate for predicate, _ in self.local_tests]
        )
