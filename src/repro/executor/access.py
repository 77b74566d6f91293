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

Probe configs are compiled when the order changes, not per row — this is
what keeps the paper's approach cheaper than row routing: adaptation state
lives in the pipeline, and each row only pays the predicates themselves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.catalog.catalog import Catalog
from repro.core.config import HashProbePolicy
from repro.core.monitor import DrivingMonitor, LegMonitor
from repro.errors import ExecutionError
from repro.executor.hashprobe import HashProbeTable
from repro.robustness.faults import DEFAULT_RETRY_POLICY, RetryPolicy, call_with_retry
from repro.optimizer.params import LegModelParts
from repro.optimizer.plans import DrivingKind, PlanLeg
from repro.query.joingraph import JoinPredicate
from repro.query.predicates import LocalPredicate, PositionalPredicate
from repro.storage.compiled import compile_row_test
from repro.storage.counters import (
    INDEX_DESCEND_COST,
    INDEX_ENTRY_COST,
    PREDICATE_EVAL_COST,
    ROW_FETCH_COST,
)
from repro.storage.cursor import IndexScanCursor, TableScanCursor
from repro.storage.index import SortedIndex
from repro.storage.table import Row

Binding = dict[str, Row]
Cursor = TableScanCursor | IndexScanCursor


@dataclass(frozen=True, slots=True)
class ProbeConfig:
    """Compiled probe strategy for a leg at its current pipeline position.

    Immutable: the starting order's configs are kept with the plan
    (:meth:`PipelinePlan.probe_programs`) and shared by every execution of
    it, across threads. Equality is by what a probe does — the getters are
    closures over ``key_alias`` / ``key_slot`` / ``residual_sources``,
    which are compared in their place.
    """

    access_index: SortedIndex | None
    access_predicate: JoinPredicate | None
    # Extracts the probe key from the outer binding (None for scan probes).
    key_getter: Callable[[Binding], Any] | None = field(compare=False)
    # Residual equality join predicates: (outer getter, our column slot).
    residual_joins: tuple[tuple[Callable[[Binding], Any], int], ...] = field(
        compare=False
    )
    # Which join predicates are available at this position (for JC model).
    available_predicates: tuple[JoinPredicate, ...]
    # Sec 6 extension: probe via an in-memory hash table on this column
    # instead of an index (built lazily on first probe).
    hash_column: str | None = None
    # Outer-side source of the probe key as (alias, row slot) — what
    # key_getter reads. The chunk paths read key columns through these
    # instead of calling the getter per row. None for scan probes.
    key_alias: str | None = None
    key_slot: int | None = None
    # Outer-side (alias, row slot) of each residual join, parallel to
    # residual_joins.
    residual_sources: tuple[tuple[str, int], ...] = ()


def bind_local_tests(
    plan_leg: PlanLeg, table: Any
) -> tuple[tuple[LocalPredicate, Callable], ...]:
    """(predicate, compiled test) pairs for one leg's local predicates.

    The predicate objects are kept for per-predicate monitoring and dynamic
    access-path selection. On the columnar backend each test is the
    expression-compiled closure when the tree is a shape the mini-compiler
    handles; the row backend stays on the interpreter's bind() so it
    remains the unmodified reference oracle. Either way the test carries
    its source predicate as ``test.predicate`` so index-level group kernels
    can recover the tree for vectorization. The tests are pure functions of
    a row, so one tuple serves every execution of the plan.
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
        "hash_policy",
        "retry_policy",
        "collect_rids",
        "match_rids",
        "obs",
        "degrade_hook",
        "monitor_failure",
        "_hash_tables",
        "model_parts",
        "_fast_groups",
        "_fast_scan_group",
        "_fast_groups_gen",
        "_fast_probe_records",
    )

    def __init__(
        self,
        plan_leg: PlanLeg,
        catalog: Catalog,
        local_tests: Sequence[tuple[LocalPredicate, Callable]],
        model_parts: LegModelParts,
        history_window: int,
        monitoring_enabled: bool,
        hash_policy: HashProbePolicy = HashProbePolicy.OFF,
        aggregated_monitor: bool = False,
    ) -> None:
        self.plan_leg = plan_leg
        self.alias = plan_leg.alias
        self.table = catalog.table(plan_leg.table_name)
        self.schema = self.table.schema
        self.meter = self.table.meter
        self.indexes = catalog.indexes_of(plan_leg.table_name)
        # The execution-invariant part of this leg's run-time cost model,
        # shared with every execution of the plan (PlanBindings); replaced
        # only when the dynamic access-path extension re-picks the spec.
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
        # Per-local-predicate (evaluated, passed) counters for the
        # dynamic-access-path extension.
        self.local_counts = [[0, 0] for _ in self.local_tests]
        self.probe_config: ProbeConfig | None = None
        # Bumped on every compile_probe: reorders and driving switches
        # change what a probe means (access predicate, residual set,
        # positional filter), so per-key memos and cascade plans keyed on
        # the epoch are rebuilt.
        self.probe_epoch = 0
        self.incoming_since_check = 0
        self.hash_policy = hash_policy
        # Transient-fault retry (only consulted while a fault injector is
        # armed; the production path never pays the wrapper).
        self.retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY
        # Oracle mode: probe() additionally records the RIDs of its matches
        # (aligned with the returned rows) in self.match_rids.
        self.collect_rids = False
        self.match_rids: list[int] = []
        # Observability bundle (set by the executor); every hook site below
        # pays one None check when observability is off.
        self.obs = None
        # Monitoring is advisory: if it raises, it is disabled for this leg
        # and the failure reported through degrade_hook (set by the
        # executor) instead of aborting the query.
        self.degrade_hook: Callable[[str, BaseException], None] | None = None
        self.monitor_failure: BaseException | None = None
        # Hash builds are cached per access column: reorders and driving
        # switches that keep the same access column reuse the build.
        self._hash_tables: dict[str, HashProbeTable] = {}
        # Chunk reference loop: lazily memoized per-key candidate groups
        # (rows passing locals + positional, with exact scalar eval counts
        # and per-predicate deltas); see probe_batch_fast.
        self._fast_groups: dict = {}
        self._fast_scan_group: tuple | None = None
        self._fast_groups_gen: tuple | None = None
        # key -> (assembled probe record, entries, fetches, evals) for the
        # lean no-residual loop; same generation as above.
        self._fast_probe_records: dict = {}

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
        most selective indexed access predicate; *slot_of*, when given, is a
        shared ``(alias, column) -> row slot`` cache so repeated recompiles
        across legs don't re-resolve schema positions.
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
        if available and self.hash_policy is HashProbePolicy.ALWAYS:
            access = min(available, key=sel_of)
            hash_column = access.column_of(self.alias)
        elif indexed:
            access = min(indexed, key=sel_of)
        elif available and self.hash_policy is HashProbePolicy.FALLBACK:
            # No usable index: a hash build beats a full scan per probe.
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

        skip_locals = False
        if config.hash_column is not None and config.key_getter is not None:
            key = config.key_getter(binding)
            hash_table = self._hash_table_for(config.hash_column)
            if faulty:
                candidates = call_with_retry(
                    lambda: hash_table.probe(key, meter),
                    self.retry_policy,
                    on_retry=self._retry_hook("hash-probe"),
                )
            else:
                candidates = hash_table.probe(key, meter)
            # Hash builds are pre-filtered by the local predicates.
            skip_locals = True
        elif config.access_index is not None and config.key_getter is not None:
            key = config.key_getter(binding)
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
        else:
            candidates = list(self.table.scan())
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
        if self.obs is not None:
            self.obs.on_probe(self.alias, index_matches, len(matches))
        return matches

    # ------------------------------------------------------------------
    # Chunked inner-leg role (the batched executor's reference loop)
    # ------------------------------------------------------------------
    def _fast_group_rows(
        self, candidates: Sequence[tuple[int, Row]]
    ) -> tuple[list[Row], int, int, tuple[tuple[int, int], ...] | None]:
        """Filter *candidates* through locals + positional, counting exactly.

        Returns ``(surviving rows, evals, candidate count, local deltas)``
        where ``evals`` is precisely what a scalar probe charges for this
        candidate set before residual joins (short-circuited local evals
        plus one positional eval per locally-passing row) and ``deltas`` are
        the per-local-predicate (evaluated, passed) increments. All of it is
        a pure function of the candidate set, the probe epoch's local tests,
        and the positional predicate — so the result is memoized per key.
        """
        local_tests = self.local_tests
        positional = self.positional
        evals = 0
        rows: list[Row] = []
        deltas = [[0, 0] for _ in local_tests] if local_tests else None
        for rid, row in candidates:
            ok = True
            for slot, (_, test) in enumerate(local_tests):
                evals += 1
                passed = test(row)
                if deltas is not None:
                    pair = deltas[slot]
                    pair[0] += 1
                    pair[1] += 1 if passed else 0
                if not passed:
                    ok = False
                    break
            if ok and positional is not None:
                evals += 1
                if not positional.test(rid, row):
                    ok = False
            if ok:
                rows.append(row)
        return (
            rows,
            evals,
            len(candidates),
            tuple((pair[0], pair[1]) for pair in deltas)
            if deltas is not None
            else None,
        )

    def probe_batch_fast(
        self,
        binding: Binding,
        vary_alias: str,
        outer_rows: Sequence[Row],
    ) -> list[list[Row]]:
        """Resolve the probes of a chunk of outer rows; one match list each.

        *binding* must hold every preceding alias except *vary_alias*, whose
        rows are *outer_rows*. Legal where nothing reads the work meter
        mid-chunk (no hot observability, no faults; a limit check reads it
        up to a chunk ahead): the chunk's physical charges and
        monitor-update charges hit the meter once, here. Per-probe counts
        stay scalar-exact — they are *derived* from per-key candidate
        groups that replicate the scalar short-circuit precisely — so final
        meter totals are identical to :meth:`probe` called row by row.

        When monitored, the chunk is deferred as ONE weighted window
        aggregate (:meth:`LegMonitor.defer_chunk`; the executor applies it
        at the next driving-chunk boundary), and the local-predicate
        counters and ``incoming_since_check`` advance by the whole chunk.

        Per-key groups (rows passing locals + positional, with exact eval
        counts) are memoized per (probe epoch, heap version), so repeated
        join keys skip candidate filtering entirely.
        """
        config = self.probe_config
        if config is None:
            raise ExecutionError(f"leg {self.alias!r} has no probe config")
        if config.hash_column is not None:
            raise ExecutionError(
                f"leg {self.alias!r}: hash probes are not batchable"
            )
        residual = config.residual_joins
        index = config.access_index
        key_alias = config.key_alias
        key_varies = key_alias == vary_alias
        key_slot = config.key_slot
        key_const = (
            binding[key_alias][key_slot]
            if key_alias is not None and not key_varies
            else None
        )

        gen = (self.probe_epoch, self.table.version)
        if self._fast_groups_gen != gen:
            self._fast_groups = {}
            self._fast_scan_group = None
            self._fast_probe_records = {}
            self._fast_groups_gen = gen
        groups = self._fast_groups

        n = len(outer_rows)
        # Lean shape: no residual joins, indexed access. A key's full probe
        # record is then a pure function of its memoized group, so the
        # chunk needs only the key sequence.
        lean = index is not None and not residual
        if index is not None:
            keys_seq = (
                [outer[key_slot] for outer in outer_rows]
                if key_varies
                else [key_const] * n
            )
            key_counts = Counter(keys_seq)
            # Resolve candidate groups for keys not yet memoized: one merged
            # descent over the index, then one filtering pass per new key —
            # or, when the backend offers vectorized per-key records
            # (columnar), one kernel gather with identical eval accounting.
            group_keys = [
                key
                for key in key_counts
                if key is not None and key not in groups
            ]
            if group_keys:
                build = getattr(index, "fast_group_records", None)
                built = (
                    build(group_keys, self.local_tests, self.positional)
                    if build is not None
                    else None
                )
                if built is not None:
                    groups.update(built)
                else:
                    raw = self.table.raw_rows()
                    for key, rids in index.lookup_rids_batch(group_keys).items():
                        groups[key] = self._fast_group_rows(
                            [(rid, raw[rid]) for rid in rids]
                        )

        # Every index probe descends, whatever its key.
        descends = n if index is not None else 0
        entries = fetches = evals_total = 0
        # Chunk sums for the window aggregate and the local counters.
        sum_output = 0
        sum_deltas = (
            [[0, 0] for _ in self.local_tests] if self.local_tests else None
        )
        if lean:
            # Each key's full probe record — matches, entries, fetches,
            # evals — is built once per generation and shared across every
            # probe of that key. Sums are exact: entries/fetches/evals are
            # per-key constants.
            probe_records = self._fast_probe_records
            for key in key_counts:
                if key in probe_records:
                    continue
                if key is None:
                    # Scalar lookup_rids(None): descend charged, no
                    # entries — zero contribution to every other sum.
                    probe_records[None] = ([], 0, 0, 0, None)
                    continue
                rows, base_evals, count, deltas = groups[key]
                probe_records[key] = (
                    rows, count if count else 1, count, base_evals, deltas
                )
            # Aggregate per DISTINCT key (duplicate probes of a key add
            # identical integer contributions, so multiplying by the
            # multiplicity is exact).
            records = [probe_records[key][0] for key in keys_seq]
            for key, mult in key_counts.items():
                rows, pe, pf, ev, deltas = probe_records[key]
                entries += pe * mult
                fetches += pf * mult
                evals_total += ev * mult
                sum_output += len(rows) * mult
                if deltas is not None:
                    for slot, (evaluated, passed) in enumerate(deltas):
                        pair = sum_deltas[slot]
                        pair[0] += evaluated * mult
                        pair[1] += passed * mult
        else:
            scan_group: tuple | None = None
            if index is None:
                scan_group = self._fast_scan_group
                if scan_group is None:
                    raw = self.table.raw_rows()
                    scan_group = self._fast_scan_group = self._fast_group_rows(
                        list(enumerate(raw))
                    )
            # Outer-side residual reads: sources on the varying alias are
            # row-slot reads per outer row; sources on any other (fixed)
            # alias are constants for the whole chunk.
            oval_specs = tuple(
                (
                    oalias == vary_alias,
                    oslot if oalias == vary_alias else binding[oalias][oslot],
                )
                for oalias, oslot in config.residual_sources
            )
            records = [None] * n
            for i, outer in enumerate(outer_rows):
                if index is not None:
                    key = keys_seq[i]
                    if key is None:
                        # Scalar lookup_rids(None): descend, no entries.
                        records[i] = []
                        continue
                    rows, evals, count, deltas = groups[key]
                    entries += count if count else 1
                else:
                    rows, evals, count, deltas = scan_group
                fetches += count
                matches = rows
                for (varies, spec), (_, slot) in zip(oval_specs, residual):
                    # Scalar short-circuit: the j-th residual is evaluated
                    # on the rows that passed the first j.
                    evals += len(matches)
                    oval = outer[spec] if varies else spec
                    matches = [
                        row
                        for row in matches
                        if (cell := row[slot]) is not None and cell == oval
                    ]
                evals_total += evals
                sum_output += len(matches)
                if deltas is not None:
                    for slot, (evaluated, passed) in enumerate(deltas):
                        pair = sum_deltas[slot]
                        pair[0] += evaluated
                        pair[1] += passed
                records[i] = matches

        meter = self.meter
        meter.index_descends += descends
        meter.index_entries += entries
        meter.row_fetches += fetches
        meter.predicate_evals += evals_total
        if not self.monitoring_enabled:
            return records
        meter.monitor_updates += n
        # Every cost constant is an exact binary fraction, so this
        # aggregate equals the per-probe float sum bit for bit.
        self.monitor.defer_chunk(
            n,
            fetches,
            sum_output,
            descends * INDEX_DESCEND_COST
            + entries * INDEX_ENTRY_COST
            + fetches * ROW_FETCH_COST
            + evals_total * PREDICATE_EVAL_COST,
        )
        if sum_deltas is not None:
            for counts, (evaluated, passed) in zip(self.local_counts, sum_deltas):
                counts[0] += evaluated
                counts[1] += passed
        self.incoming_since_check += n
        return records

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
        pushed = self._pushed_predicate(cursor)
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
            if self.obs is not None:
                self.obs.on_scan_row(self.alias, survived)
            if survived:
                yield row

    def _pushed_predicate(self, cursor: Cursor):
        """The local predicate enforced by the cursor's index ranges."""
        if not isinstance(cursor, IndexScanCursor):
            return None
        column = cursor.index.column
        spec = self.plan_leg.driving
        if spec.kind is not DrivingKind.INDEX_SCAN or spec.index_column != column:
            # A dynamically chosen access path: find the matching predicate.
            for predicate, _ in self.local_tests:
                if predicate.key_ranges(column) is not None:
                    return predicate
            return None
        for predicate, _ in self.local_tests:
            if predicate.key_ranges(column) is not None:
                return predicate
        return None

    def pushed_driving_predicate(self):
        """The local predicate the driving spec pushes into its index scan."""
        spec = self.plan_leg.driving
        if spec.kind is not DrivingKind.INDEX_SCAN or spec.index_column is None:
            return None
        for predicate, _ in self.local_tests:
            if predicate.key_ranges(spec.index_column) is not None:
                return predicate
        return None

    # ------------------------------------------------------------------
    # Monitoring-derived numbers used by the controller
    # ------------------------------------------------------------------
    def measured_local_selectivity(self, predicate_slot: int) -> float | None:
        evaluated, passed = self.local_counts[predicate_slot]
        if evaluated == 0:
            return None
        return passed / evaluated
