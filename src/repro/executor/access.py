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
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.catalog.catalog import Catalog
from repro.core.config import HashProbePolicy
from repro.core.monitor import DrivingMonitor, LegMonitor
from repro.errors import ExecutionError
from repro.executor.hashprobe import HashProbeTable
from repro.robustness.faults import DEFAULT_RETRY_POLICY, RetryPolicy, call_with_retry
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
from repro.storage.cursor import IndexScanCursor, ScanPartition, TableScanCursor
from repro.storage.index import SortedIndex
from repro.storage.table import Row

Binding = dict[str, Row]
Cursor = TableScanCursor | IndexScanCursor


@dataclass(slots=True)
class ProbeConfig:
    """Compiled probe strategy for a leg at its current pipeline position."""

    access_index: SortedIndex | None
    access_predicate: JoinPredicate | None
    # Extracts the probe key from the outer binding (None for scan probes).
    key_getter: Callable[[Binding], Any] | None
    # Residual equality join predicates: (outer getter, our column slot).
    residual_joins: tuple[tuple[Callable[[Binding], Any], int], ...]
    # Which join predicates are available at this position (for JC model).
    available_predicates: tuple[JoinPredicate, ...]
    # Sec 6 extension: probe via an in-memory hash table on this column
    # instead of an index (built lazily on first probe).
    hash_column: str | None = None
    # Outer-side source of the probe key as (alias, row slot) — what
    # key_getter reads. The batched turbo path uses these to hoist
    # constant lookups out of its per-row loop. None for scan probes.
    key_alias: str | None = None
    key_slot: int | None = None
    # Outer-side (alias, row slot) of each residual join, parallel to
    # residual_joins.
    residual_sources: tuple[tuple[str, int], ...] = ()


@dataclass(slots=True)
class PreparedProbe:
    """A resolved probe whose accounting has not been applied yet.

    ``probe_batch`` does the physical work (index descent, heap fetches,
    predicate evaluation) ahead of time with **no observable side effects**;
    everything the scalar :meth:`RuntimeLeg.probe` would have touched — the
    work meter, the leg monitor, the per-predicate local counts, the
    observability hook — is captured here and replayed by
    :meth:`RuntimeLeg.replay_prepared` at the exact logical point the scalar
    path would have probed. ``work`` is the probe's execution-unit total
    (``descends*4 + entries*1 + fetches*2 + evals*0.25``), which equals the
    scalar path's before/after ``execution_units`` delta exactly (all
    weights are multiples of 0.25, far below float precision limits).
    """

    descends: int
    entries: int
    fetches: int
    evals: int
    index_matches: int
    matches: list[Row]
    work: float
    # Per-local-predicate (evaluated, passed) deltas, parallel to
    # local_tests; None when nothing was counted (monitoring off or no
    # local predicates).
    local_deltas: tuple[tuple[int, int], ...] | None


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
        "_slpi_metadata",
        "_turbo_groups",
        "_turbo_groups_gen",
        "_turbo_rows_seen",
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
        self.monitoring_enabled = monitoring_enabled
        self.monitor = LegMonitor(history_window, aggregated=aggregated_monitor)
        self.driving_monitor: DrivingMonitor | None = None
        # One-shot pre-seeded scan monitor: when a coordinator injects
        # merged worker statistics *before* the executor opens its driving
        # cursor (the parallel serial continuation), the open consumes this
        # instead of starting a fresh monitor — otherwise the merged scan
        # counters would be clobbered and the continuation's first driving
        # check would see an unwarmed S_LPR.
        self.pending_driving_monitor: DrivingMonitor | None = None
        self.positional: PositionalPredicate | None = None
        self._history_window = history_window
        # (predicate, compiled test) pairs from bind_local_tests, shared
        # with every other execution of the plan: read-only here.
        self.local_tests = local_tests
        # Per-local-predicate (evaluated, passed) counters for the
        # dynamic-access-path extension.
        self.local_counts = [[0, 0] for _ in self.local_tests]
        self.probe_config: ProbeConfig | None = None
        # Bumped on every compile_probe; the probe cache flushes when it
        # observes a new epoch (reorders and driving switches change what a
        # probe means — access predicate, residual set, positional filter).
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
        # Cached index-metadata S_LPI of the driving spec (see
        # RuntimeModelBuilder._index_selectivity); invalidated when the
        # dynamic access-path extension replaces the spec.
        self._slpi_metadata: float | None = None
        # Turbo-path locally-filtered candidate groups (see
        # _turbo_filtered); rebuilt when the generation tuple moves.
        self._turbo_groups: Any = None
        self._turbo_groups_gen: tuple | None = None
        # Candidate rows the turbo path has filtered inline so far — the
        # break-even gauge for building _turbo_groups.
        self._turbo_rows_seen = 0
        # Fast monitored path: lazily memoized per-key candidate groups
        # (rows passing locals + positional, with exact scalar eval counts
        # and per-predicate deltas); see probe_batch_fast.
        self._fast_groups: dict = {}
        self._fast_scan_group: tuple | None = None
        self._fast_groups_gen: tuple | None = None
        # key -> (assembled probe record, entries, fetches, evals) for the
        # lean no-residual/no-cache miss loop; same generation as above.
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
        self.probe_config = ProbeConfig(
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
    # Batched inner-leg role (the vectorized executor)
    # ------------------------------------------------------------------
    def probe_batch(
        self,
        binding: Binding,
        vary_alias: str,
        outer_rows: Sequence[Row],
        cache=None,
    ) -> list[tuple[PreparedProbe, bool | None]]:
        """Resolve probes for many outer rows in one merged physical pass.

        *binding* must hold every preceding alias except that
        ``binding[vary_alias]`` is overwritten per outer row (and left at
        the last one — callers rebind it before use). Returns one
        ``(PreparedProbe, hit)`` per outer row, in order; ``hit`` is None
        when no cache is armed. **No side effects**: charges, monitor
        records, and hooks happen later, in :meth:`replay_prepared`, at the
        logical point the scalar path would have probed — that replay is
        what keeps WorkMeter totals and Eq 5–11 estimates identical to
        scalar execution at every observable point.

        Index-access probes for all missed keys share a single merged
        left-to-right descent over the index (`lookup_rids_batch`), which
        is where the batch wall-clock win comes from.
        """
        config = self.probe_config
        if config is None:
            raise ExecutionError(f"leg {self.alias!r} has no probe config")
        if config.hash_column is not None:
            raise ExecutionError(
                f"leg {self.alias!r}: hash probes are not batchable"
            )
        key_getter = config.key_getter
        residual = config.residual_joins
        index = config.access_index
        monitoring = self.monitoring_enabled

        # Pass 1 — per outer row, extract the probe key and residual outer
        # values, consulting the cache. Only misses reach the index.
        plan: list = [None] * len(outer_rows)
        misses: list[tuple[int, Any, tuple, Any]] = []
        probe_keys: list = []
        for i, outer in enumerate(outer_rows):
            binding[vary_alias] = outer
            key = key_getter(binding) if key_getter is not None else None
            if residual:
                ovals = tuple(get_outer(binding) for get_outer, _ in residual)
                # Flat cache key; shape is fixed per probe epoch and the
                # cache flushes on epoch change, so shapes never mix.
                ckey = (key,) + ovals
            else:
                ovals = ()
                ckey = key
            if cache is not None:
                entry = cache.get(ckey)
                if entry is not None:
                    plan[i] = (entry, True)
                    continue
            misses.append((i, key, ovals, ckey))
            if index is not None and key is not None:
                probe_keys.append(key)

        # Pass 2 — one merged descent resolves every distinct missed key.
        rid_map = (
            index.lookup_rids_batch(probe_keys)
            if index is not None and probe_keys
            else {}
        )

        # Pass 3 — filter candidates exactly as the scalar probe would,
        # counting (not yet charging) the work it would have metered.
        raw = self.table.raw_rows()
        local_tests = self.local_tests
        positional = self.positional
        hit_flag = False if cache is not None else None
        for i, key, ovals, ckey in misses:
            if index is not None:
                if key is None:
                    # Scalar lookup_rids: descend charged, no entries walked.
                    rids: Sequence[int] = ()
                    descends, entry_count, fetches = 1, 0, 0
                else:
                    rids = rid_map[key]
                    descends = 1
                    entry_count = max(len(rids), 1)
                    fetches = len(rids)
            else:
                # Scan probe: every heap row is fetched as a candidate.
                rids = range(len(raw))
                descends, entry_count, fetches = 0, 0, len(raw)
            index_matches = len(rids)
            evals = 0
            matches: list[Row] = []
            deltas = (
                [[0, 0] for _ in local_tests]
                if monitoring and local_tests
                else None
            )
            for rid in rids:
                row = raw[rid]
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
                    for j, (_, slot) in enumerate(residual):
                        evals += 1
                        cell = row[slot]
                        if cell is None or cell != ovals[j]:
                            ok = False
                            break
                if ok:
                    matches.append(row)
            prepared = PreparedProbe(
                descends=descends,
                entries=entry_count,
                fetches=fetches,
                evals=evals,
                index_matches=index_matches,
                matches=matches,
                work=(
                    descends * INDEX_DESCEND_COST
                    + entry_count * INDEX_ENTRY_COST
                    + fetches * ROW_FETCH_COST
                    + evals * PREDICATE_EVAL_COST
                ),
                local_deltas=(
                    tuple((pair[0], pair[1]) for pair in deltas)
                    if deltas is not None
                    else None
                ),
            )
            if cache is not None:
                cache.put(ckey, prepared)
            plan[i] = (prepared, hit_flag)
        return plan

    def probe_batch_turbo(
        self,
        binding: Binding,
        vary_alias: str,
        outer_rows: Sequence[Row],
        cache=None,
    ) -> list[list[Row]]:
        """Charge-as-you-go :meth:`probe_batch` for unobserved static runs.

        Only legal when *nothing can observe intermediate meter state*: mode
        ``NONE`` (no monitors, no reorder checks), no execution limits, no
        observability, no oracle, no faults. Under those conditions the work
        meter is read once, at query end, so charging each chunk's aggregate
        up front is observably identical to the scalar path's per-probe
        charges — and skips the entire :class:`PreparedProbe` replay
        machinery. Totals stay scalar-exact probe for probe; only the
        (unobservable) intermediate meter states differ, by at most one
        chunk of lookahead. Returns one match list per outer row; cache hits
        skip their physical charges exactly as in the replayed path.
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
        # Resolve the outer-side reads once: sources on the varying alias
        # become direct row-slot reads per outer row; sources on any other
        # (fixed) alias are constants for the whole chunk.
        key_alias = config.key_alias
        key_varies = key_alias == vary_alias
        key_slot = config.key_slot
        key_const = (
            binding[key_alias][key_slot]
            if key_alias is not None and not key_varies
            else None
        )
        oval_specs: tuple = ()
        if residual:
            oval_specs = tuple(
                (
                    oalias == vary_alias,
                    oslot if oalias == vary_alias else binding[oalias][oslot],
                )
                for oalias, oslot in config.residual_sources
            )

        out: list = [None] * len(outer_rows)
        misses: list[tuple[int, Any, tuple, Any]] = []
        probe_keys: list = []
        hits = 0
        centries = cache.entries if cache is not None else None
        # Within-chunk duplicates: a sequential cached loop would miss on the
        # first occurrence of a key and *hit* on every later one (the put
        # happens before the next probe). The batch consults the cache before
        # any put, so later occurrences must be folded onto the first
        # explicitly or they'd repeat the full probe the scalar path skips.
        pending: dict = {}
        dups: list[tuple[int, int]] = []
        single_res = len(oval_specs) == 1
        if single_res:
            ovaries, ospec = oval_specs[0]
        for i, outer in enumerate(outer_rows):
            key = outer[key_slot] if key_varies else key_const
            if single_res:
                # One residual source is the common chain-join shape; build
                # the pair directly instead of via a generator round-trip.
                oval = outer[ospec] if ovaries else ospec
                ovals = (oval,)
                ckey = (key, oval)
            elif residual:
                ovals = tuple(
                    outer[spec] if varies else spec
                    for varies, spec in oval_specs
                )
                ckey = (key,) + ovals
            else:
                ovals = ()
                ckey = key
            if centries is not None:
                entry = centries.get(ckey)
                if entry is not None:
                    centries.move_to_end(ckey)
                    out[i] = entry
                    hits += 1
                    continue
                rep = pending.get(ckey)
                if rep is not None:
                    dups.append((i, rep))
                    hits += 1
                    continue
                pending[ckey] = i
            misses.append((i, key, ovals, ckey))
            if index is not None and key is not None:
                probe_keys.append(key)

        local_tests = self.local_tests
        if self.positional is not None:
            # Positional predicates only exist after a driving switch, which
            # mode NONE never performs — the turbo path cannot reach here.
            raise ExecutionError(
                f"leg {self.alias!r}: positional predicate on the turbo path"
            )
        # Candidate resolution. With local predicates, candidates come from
        # the once-per-generation pre-filtered groups (local evals charged
        # from the precomputed scalar-exact counts); without, straight from
        # the merged row descent. RIDs are never needed either way.
        groups: dict | None = None
        scan_group: tuple | None = None
        row_map: dict = {}
        inline_tests: list | None = None
        if local_tests:
            if index is not None:
                groups = self._turbo_filtered_if_warm(index)
                if groups is None:
                    inline_tests = [test for _, test in local_tests]
                    if probe_keys:
                        row_map = index.lookup_rows_batch(probe_keys)
            else:
                scan_group = self._turbo_scan_filtered()
        elif index is not None and probe_keys:
            row_map = index.lookup_rows_batch(probe_keys)

        raw = self.table.raw_rows()
        one_residual = len(residual) == 1
        if one_residual:
            res_slot = residual[0][1]
        descends = entries = fetches = evals = 0
        for i, key, ovals, ckey in misses:
            if index is not None:
                descends += 1
                if key is None:
                    # Scalar lookup_rids: descend charged, no entries walked.
                    matches: list[Row] = []
                    out[i] = matches
                    if cache is not None:
                        cache.put(ckey, matches)
                    continue
                if groups is not None:
                    group = groups.get(key)
                    if group is None:
                        rows: Sequence[Row] = ()
                        count = 0
                    else:
                        rows, local_evals, count = group
                        evals += local_evals
                else:
                    rows = row_map[key]
                    count = len(rows)
                entries += count if count else 1
                fetches += count
                if inline_tests is not None and count:
                    self._turbo_rows_seen += count
                    passing = []
                    for row in rows:
                        for test in inline_tests:
                            evals += 1
                            if not test(row):
                                break
                        else:
                            passing.append(row)
                    rows = passing
            else:
                # Scan probe: every heap row is fetched as a candidate.
                if scan_group is not None:
                    rows, local_evals, count = scan_group
                    evals += local_evals
                    fetches += count
                else:
                    rows = raw
                    fetches += len(raw)
            # Residual filter over the locally-passing candidates.
            if one_residual:
                oval = ovals[0]
                matches = [
                    row
                    for row in rows
                    if (cell := row[res_slot]) is not None and cell == oval
                ]
                evals += len(rows)
            elif not residual:
                matches = list(rows)
            else:
                matches = []
                for row in rows:
                    for j, (_, slot) in enumerate(residual):
                        evals += 1
                        cell = row[slot]
                        if cell is None or cell != ovals[j]:
                            break
                    else:
                        matches.append(row)
            out[i] = matches
            if cache is not None:
                cache.put(ckey, matches)
        for i, rep in dups:
            out[i] = out[rep]
        meter = self.meter
        meter.index_descends += descends
        meter.index_entries += entries
        meter.row_fetches += fetches
        meter.predicate_evals += evals
        if cache is not None:
            cache.hits += hits
            cache.misses += len(misses)
            meter.probe_cache_hits += hits
            meter.probe_cache_misses += len(misses)
        return out

    def _turbo_scan_filtered(self) -> tuple:
        """Locally pre-filtered scan candidates for the turbo path.

        Local predicates are pure functions of the candidate row, so their
        outcome — and the exact short-circuit eval count a scalar probe
        would charge — is computed once per (probe epoch, heap version) as
        ``(passing rows, local evals, total rows)``. A scan probe walks the
        whole heap anyway, so one build pays for itself by the first probe.
        """
        gen = (self.probe_epoch, self.table.version, None)
        if self._turbo_groups_gen != gen:
            tests = [test for _, test in self.local_tests]
            passing: list[Row] = []
            evals = 0
            raw = self.table.raw_rows()
            for row in raw:
                for test in tests:
                    evals += 1
                    if not test(row):
                        break
                else:
                    passing.append(row)
            self._turbo_groups = (passing, evals, len(raw))
            self._turbo_groups_gen = gen
        return self._turbo_groups

    def _turbo_filtered_if_warm(self, index) -> dict | None:
        """Pre-filtered per-key groups, built only past break-even.

        Building costs one pass over the whole index; it can only win once
        this leg's probes have cumulatively pushed at least that many
        candidate rows through the inline local-predicate filter
        (``_turbo_rows_seen``). Before that point returns ``None`` and the
        caller filters inline — bounding the worst case (leg probed a
        handful of times) at the work already paid.
        """
        gen = (self.probe_epoch, self.table.version, index.name)
        if self._turbo_groups_gen == gen:
            return self._turbo_groups
        if self._turbo_rows_seen < len(index) and not getattr(
            index, "prebuild_groups", False
        ):
            # Backends whose filtered_groups is a cached vectorized kernel
            # (columnar) opt out of the break-even gate: the build is one
            # whole-column pass, amortized across probes and generations.
            return None
        self._turbo_groups = index.filtered_groups(
            [test for _, test in self.local_tests]
        )
        self._turbo_groups_gen = gen
        return self._turbo_groups

    def probe_turbo(self, binding: Binding, cache=None) -> list[Row]:
        """Single-probe twin of :meth:`probe_batch_turbo`.

        Deep pipeline positions mostly see one remaining outer row at a
        time (the parent's match list is short), where the batch scaffolding
        costs more than it saves; this path does the same cache consult,
        lookup, filter, and aggregate charges for exactly one outer binding.
        Same legality conditions as :meth:`probe_batch_turbo`.
        """
        config = self.probe_config
        if config is None:
            raise ExecutionError(f"leg {self.alias!r} has no probe config")
        residual = config.residual_joins
        index = config.access_index
        meter = self.meter
        key_alias = config.key_alias
        key = (
            binding[key_alias][config.key_slot]
            if key_alias is not None
            else None
        )
        if residual:
            ovals = tuple(
                binding[oalias][oslot]
                for oalias, oslot in config.residual_sources
            )
            # Flat cache key: the shape is fixed per probe epoch, and the
            # cache flushes on epoch change, so no ambiguity is possible.
            ckey = (key,) + ovals
        else:
            ovals = ()
            ckey = key
        if cache is not None:
            entries = cache.entries
            entry = entries.get(ckey)
            if entry is not None:
                entries.move_to_end(ckey)
                cache.hits += 1
                meter.probe_cache_hits += 1
                return entry
            cache.misses += 1
        if self.positional is not None:
            # Positional predicates only exist after a driving switch, which
            # mode NONE never performs — the turbo path cannot reach here.
            raise ExecutionError(
                f"leg {self.alias!r}: positional predicate on the turbo path"
            )
        local_tests = self.local_tests
        if index is not None:
            meter.index_descends += 1
            if key is None:
                matches: list[Row] = []
                if cache is not None:
                    cache.put(ckey, matches)
                    meter.probe_cache_misses += 1
                return matches
            if local_tests:
                groups = self._turbo_filtered_if_warm(index)
                if groups is not None:
                    group = groups.get(key)
                    if group is None:
                        rows: Sequence[Row] = ()
                        count = 0
                    else:
                        rows, local_evals, count = group
                        meter.predicate_evals += local_evals
                else:
                    rows = index.lookup_rows_quiet(key)
                    count = len(rows)
                    if count:
                        self._turbo_rows_seen += count
                        evals = 0
                        passing = []
                        for row in rows:
                            for _, test in local_tests:
                                evals += 1
                                if not test(row):
                                    break
                            else:
                                passing.append(row)
                        rows = passing
                        meter.predicate_evals += evals
            else:
                rows = index.lookup_rows_quiet(key)
                count = len(rows)
            meter.index_entries += count if count else 1
            meter.row_fetches += count
        elif local_tests:
            rows, local_evals, count = self._turbo_scan_filtered()
            meter.predicate_evals += local_evals
            meter.row_fetches += count
        else:
            rows = self.table.raw_rows()
            meter.row_fetches += len(rows)
        # Residual filter over the locally-passing candidates.
        if len(residual) == 1:
            slot = residual[0][1]
            oval = ovals[0]
            matches = [
                row
                for row in rows
                if (cell := row[slot]) is not None and cell == oval
            ]
            meter.predicate_evals += len(rows)
        elif not residual:
            matches = list(rows)
        else:
            matches = []
            evals = 0
            for row in rows:
                for j, (_, slot) in enumerate(residual):
                    evals += 1
                    cell = row[slot]
                    if cell is None or cell != ovals[j]:
                        break
                else:
                    matches.append(row)
            meter.predicate_evals += evals
        if cache is not None:
            cache.put(ckey, matches)
            meter.probe_cache_misses += 1
        return matches

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
        cache=None,
        defer: bool = False,
        bump_incoming: bool = True,
        aggregate: bool = False,
    ) -> list:
        """Monitored batch probe with chunk-aggregated accounting.

        The amortized twin of :meth:`probe_batch` + :meth:`replay_prepared`
        for runs where nothing reads the work meter mid-chunk (no
        observability, no faults; a limit check after a cascade hand-off
        reads it a chunk ahead): each chunk's physical charges, monitor
        updates, and cache counters hit the meter once, up front, instead of
        probe by probe. Per-probe counts stay scalar-exact — they are
        *derived* from per-key candidate groups that replicate the scalar
        short-circuit precisely — so final meter totals are identical; only
        (unobservable) intermediate meter states run up to one chunk ahead.

        Monitor-window observations are what adaptation decisions read, so
        their application point is the caller's choice:

        * ``defer=False`` — fold the whole chunk's samples into the window
          here (``observe_many``), in outer-row order, along with the
          local-predicate counters; legal when no reorder check can fire
          between this call and the consumption of the chunk's last probe.
          ``bump_incoming`` selects whether ``incoming_since_check`` also
          advances here (chunk-bulk) or per consumed probe in the caller.
        * ``defer=True`` — return per-probe records
          ``(matches, index_matches, work, local_deltas)`` and apply
          nothing; the caller replays each observation at the scalar
          logical point (positions where checks can interleave mid-chunk).
        * ``aggregate=True`` (fast adaptive mode,
          ``monitor_granularity="chunk"``) — fold the chunk into the
          window as ONE weighted aggregate via
          :meth:`~repro.core.monitor.AggregatedWindow.observe_chunk`:
          an O(1) ring update per chunk instead of per sample. Requires
          the leg's monitor to carry an aggregated window; implies the
          chunk-bulk treatment of the local counters and
          ``incoming_since_check``.

        Per-key groups (rows passing locals + positional, with exact eval
        counts) are memoized per (probe epoch, heap version), so repeated
        join keys skip candidate filtering entirely — the same amortization
        the turbo path gets from ``filtered_groups``, but with the counters
        monitored execution needs.
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
        oval_specs: tuple = ()
        if residual:
            oval_specs = tuple(
                (
                    oalias == vary_alias,
                    oslot if oalias == vary_alias else binding[oalias][oslot],
                )
                for oalias, oslot in config.residual_sources
            )

        gen = (self.probe_epoch, self.table.version)
        if self._fast_groups_gen != gen:
            self._fast_groups = {}
            self._fast_scan_group = None
            self._fast_probe_records = {}
            self._fast_groups_gen = gen
        groups = self._fast_groups

        n = len(outer_rows)
        records: list = [None] * n
        misses: list[tuple[int, Any, tuple, Any]] = []
        group_keys: list = []
        hits = 0
        centries = cache.entries if cache is not None else None
        # Within-chunk duplicates fold onto the first occurrence when a
        # cache is armed (same divergence contract as the turbo path: more
        # savings than the sequential scalar cache, identical monitor
        # observations). Without a cache every duplicate pays its full
        # scalar charges, keeping uncached meter totals exact.
        pending: dict = {}
        dups: list[tuple[int, int]] = []
        single_res = len(oval_specs) == 1
        if single_res:
            ovaries, ospec = oval_specs[0]
        # Lean shape: no residual joins, no probe cache, indexed access. A
        # key's full probe record is then a pure function of its memoized
        # group, so the chunk needs only the key sequence — no per-row
        # (i, key, ovals, ckey) tuples, no duplicate folding.
        lean = index is not None and not residual and centries is None
        keys_seq: list | None = None
        key_set: set | None = None
        if lean:
            keys_seq = (
                [outer[key_slot] for outer in outer_rows]
                if key_varies
                else [key_const] * n
            )
            key_set = set(keys_seq)
            group_keys = [
                key
                for key in key_set
                if key is not None and key not in groups
            ]
        for i, outer in () if lean else enumerate(outer_rows):
            key = outer[key_slot] if key_varies else key_const
            if single_res:
                oval = outer[ospec] if ovaries else ospec
                ovals = (oval,)
                ckey = (key, oval)
            elif residual:
                ovals = tuple(
                    outer[spec] if varies else spec
                    for varies, spec in oval_specs
                )
                ckey = (key,) + ovals
            else:
                ovals = ()
                ckey = key
            if centries is not None:
                entry = centries.get(ckey)
                if entry is not None:
                    centries.move_to_end(ckey)
                    records[i] = entry
                    hits += 1
                    continue
                rep = pending.get(ckey)
                if rep is not None:
                    dups.append((i, rep))
                    hits += 1
                    continue
                pending[ckey] = i
            misses.append((i, key, ovals, ckey))
            if (
                index is not None
                and key is not None
                and key not in groups
            ):
                group_keys.append(key)

        # Resolve candidate groups for keys not yet memoized: one merged
        # descent over the index, then one filtering pass per new key —
        # or, when the backend offers vectorized per-key records
        # (columnar), one kernel gather with identical eval accounting.
        if index is not None and group_keys:
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
        scan_group: tuple | None = None
        if index is None:
            scan_group = self._fast_scan_group
            if scan_group is None:
                raw = self.table.raw_rows()
                scan_group = self._fast_scan_group = self._fast_group_rows(
                    list(enumerate(raw))
                )

        one_residual = len(residual) == 1
        if one_residual:
            res_slot = residual[0][1]
        descends = entries = fetches = evals_total = 0
        if lean:
            # Lean miss loop: each key's full probe record — matches,
            # count, work — is built once and the tuple shared across
            # every probe of that key (record identity is safe: consumers
            # only read record[0..3]). Work/meter sums are exact: every
            # probe descends; entries/fetches/evals are per-key constants.
            probe_records = self._fast_probe_records
            descends = n
            for key in key_set:
                if key in probe_records:
                    continue
                if key is None:
                    # Scalar lookup_rids(None): descend charged, no
                    # entries — zero contribution to every other sum.
                    probe_records[None] = (
                        ([], 0, INDEX_DESCEND_COST, None),
                        0,
                        0,
                        0,
                        0,
                    )
                    continue
                rows, base_evals, count, deltas = groups[key]
                probe_entries = count if count else 1
                work = (
                    INDEX_DESCEND_COST
                    + probe_entries * INDEX_ENTRY_COST
                    + count * ROW_FETCH_COST
                    + base_evals * PREDICATE_EVAL_COST
                )
                probe_records[key] = (
                    (rows, count, work, deltas),
                    probe_entries,
                    count,
                    base_evals,
                    len(rows),
                )
            # Aggregate per DISTINCT key (duplicate probes of a key add
            # identical integer contributions, so multiplying by the
            # multiplicity is exact), including the per-predicate
            # (evaluated, passed) deltas the epilogue folds into
            # local_counts — that loop is per-record otherwise.
            lean_output = 0
            lean_deltas = (
                [[0, 0] for _ in self.local_tests]
                if self.local_tests
                else None
            )
            if key_varies:
                records = [probe_records[key][0] for key in keys_seq]
                for key, mult in Counter(keys_seq).items():
                    record, pe, pf, ev, nm = probe_records[key]
                    entries += pe * mult
                    fetches += pf * mult
                    evals_total += ev * mult
                    lean_output += nm * mult
                    deltas = record[3]
                    if lean_deltas is not None and deltas is not None:
                        for slot, (evaluated, passed) in enumerate(deltas):
                            pair = lean_deltas[slot]
                            pair[0] += evaluated * mult
                            pair[1] += passed * mult
            else:
                record, pe1, pf1, ev1, nm1 = probe_records[key_const]
                records = [record] * n
                entries = pe1 * n
                fetches = pf1 * n
                evals_total = ev1 * n
                lean_output = nm1 * n
                deltas = record[3]
                if lean_deltas is not None and deltas is not None:
                    for slot, (evaluated, passed) in enumerate(deltas):
                        pair = lean_deltas[slot]
                        pair[0] += evaluated * n
                        pair[1] += passed * n
        for i, key, ovals, ckey in misses:
            if index is not None:
                descends += 1
                if key is None:
                    # Scalar lookup_rids(None): descend charged, no entries.
                    record = ([], 0, INDEX_DESCEND_COST, None)
                    records[i] = record
                    if cache is not None:
                        cache.put(ckey, record)
                    continue
                rows, base_evals, count, deltas = groups[key]
                probe_entries = count if count else 1
                probe_fetches = count
                entries += probe_entries
                fetches += probe_fetches
            else:
                rows, base_evals, count, deltas = scan_group
                probe_entries = 0
                probe_fetches = count
                fetches += count
            evals = base_evals
            if one_residual:
                oval = ovals[0]
                matches = [
                    row
                    for row in rows
                    if (cell := row[res_slot]) is not None and cell == oval
                ]
                evals += len(rows)
            elif not residual:
                matches = rows
            else:
                matches = []
                for row in rows:
                    for j, (_, slot) in enumerate(residual):
                        evals += 1
                        cell = row[slot]
                        if cell is None or cell != ovals[j]:
                            break
                    else:
                        matches.append(row)
            evals_total += evals
            work = (
                (INDEX_DESCEND_COST if index is not None else 0.0)
                + probe_entries * INDEX_ENTRY_COST
                + probe_fetches * ROW_FETCH_COST
                + evals * PREDICATE_EVAL_COST
            )
            record = (matches, count, work, deltas)
            records[i] = record
            if cache is not None:
                cache.put(ckey, record)
        for i, rep in dups:
            records[i] = records[rep]

        meter = self.meter
        meter.index_descends += descends
        meter.index_entries += entries
        meter.row_fetches += fetches
        meter.predicate_evals += evals_total
        if cache is not None:
            cache.hits += hits
            cache.misses += len(misses)
            meter.probe_cache_hits += hits
            meter.probe_cache_misses += len(misses)
        if not self.monitoring_enabled:
            if defer:
                return records
            return [record[0] for record in records]
        meter.monitor_updates += n
        if defer:
            return records
        if aggregate:
            # Deferred: the executor folds ONE window aggregate per leg per
            # driving chunk at the chunk boundary (flush_chunk), matching
            # the vectorized adaptive cascade's per-chunk kernel folds.
            if lean:
                # Chunk sums fall out of the meter totals: every cost
                # constant is an exact binary fraction, so this aggregate
                # equals the per-record float sum bit for bit.
                self.monitor.defer_chunk(
                    n,
                    fetches,
                    lean_output,
                    n * INDEX_DESCEND_COST
                    + entries * INDEX_ENTRY_COST
                    + fetches * ROW_FETCH_COST
                    + evals_total * PREDICATE_EVAL_COST,
                )
            else:
                sum_matches = 0
                sum_output = 0
                sum_work = 0.0
                for record in records:
                    sum_matches += record[1]
                    sum_output += len(record[0])
                    sum_work += record[2]
                self.monitor.defer_chunk(
                    n, sum_matches, sum_output, sum_work
                )
        else:
            self.monitor.window.observe_many(
                (record[1], len(record[0]), record[2]) for record in records
            )
        if self.local_tests:
            counts_list = self.local_counts
            if lean:
                # Same integer sums, grouped per distinct key above.
                for slot, (evaluated, passed) in enumerate(lean_deltas):
                    counts = counts_list[slot]
                    counts[0] += evaluated
                    counts[1] += passed
            else:
                for record in records:
                    deltas = record[3]
                    if deltas is not None:
                        for slot, (evaluated, passed) in enumerate(deltas):
                            counts = counts_list[slot]
                            counts[0] += evaluated
                            counts[1] += passed
        if bump_incoming:
            self.incoming_since_check += n
        return [record[0] for record in records]

    def consume_fast_record(self, record: tuple) -> list[Row]:
        """Apply one deferred probe record's observations; return matches.

        The per-consumption tail of :meth:`probe_batch_fast(defer=True)`:
        window sample, local-predicate counters, and the check counter are
        applied at the exact logical point the scalar probe would have —
        physical meter charges were already folded into the chunk aggregate.
        """
        matches = record[0]
        if self.monitoring_enabled:
            self.monitor.window.observe(record[1], len(matches), record[2])
            deltas = record[3]
            if deltas is not None:
                counts_list = self.local_counts
                for slot, (evaluated, passed) in enumerate(deltas):
                    counts = counts_list[slot]
                    counts[0] += evaluated
                    counts[1] += passed
            self.incoming_since_check += 1
        return matches

    def replay_prepared(
        self, prepared: PreparedProbe, hit: bool | None
    ) -> list[Row]:
        """Apply a prepared probe's deferred accounting; return its matches.

        Mirrors the observable tail of :meth:`probe`: execution-unit
        charges (skipped on a cache hit — the documented savings), the
        monitor's ``record_probe`` with the probe's full work (identical on
        hits, so estimates never diverge), the local-predicate counters,
        ``incoming_since_check``, and the observability hook.
        """
        meter = self.meter
        if hit:
            meter.charge_probe_cache(True)
        else:
            if hit is not None:
                meter.charge_probe_cache(False)
            meter.index_descends += prepared.descends
            meter.index_entries += prepared.entries
            meter.row_fetches += prepared.fetches
            meter.predicate_evals += prepared.evals
        matches = prepared.matches
        if self.monitoring_enabled:
            try:
                deltas = prepared.local_deltas
                if deltas is not None:
                    counts_list = self.local_counts
                    for slot, (evaluated, passed) in enumerate(deltas):
                        if evaluated:
                            counts = counts_list[slot]
                            counts[0] += evaluated
                            counts[1] += passed
                self.monitor.record_probe(
                    prepared.index_matches, len(matches), prepared.work
                )
                meter.charge_monitor_update()
                self.incoming_since_check += 1
            except Exception as exc:
                self._degrade_monitoring(exc)
        if self.obs is not None:
            self.obs.on_probe(self.alias, prepared.index_matches, len(matches))
            if hit is not None:
                self.obs.on_probe_cache(self.alias, hit)
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
    def open_driving_cursor(
        self,
        resume: Cursor | None = None,
        partition: "ScanPartition | None" = None,
    ) -> Cursor:
        """Create (or resume) the driving scan cursor for this leg.

        *partition* bounds a fresh cursor to one slice of the scan's stable
        total order (parallel partitioned execution): it starts strictly
        after ``partition.start_after`` and stops before ``partition.stop_at``.
        """
        if resume is not None:
            cursor = resume
        else:
            start_after = partition.start_after if partition is not None else None
            stop_at = partition.stop_at if partition is not None else None
            entry_count = (
                partition.entry_count if partition is not None else None
            )
            spec = self.plan_leg.driving
            if spec.kind is DrivingKind.INDEX_SCAN:
                index = self.indexes.get(spec.index_column or "")
                if index is None:
                    raise ExecutionError(
                        f"leg {self.alias!r}: driving index on "
                        f"{spec.index_column!r} does not exist"
                    )
                cursor = IndexScanCursor(
                    index,
                    list(spec.ranges),
                    start_after=start_after,
                    stop_at=stop_at,
                    partition_entry_count=entry_count,
                )
            else:
                cursor = TableScanCursor(
                    self.table,
                    start_after=start_after,
                    stop_at=stop_at,
                    partition_entry_count=entry_count,
                )
        if self.pending_driving_monitor is not None:
            # Injected merged statistics (parallel continuation): keep the
            # pre-seeded monitor for the first open only; driving switches
            # and resumes still restart the scan monitor below.
            self.driving_monitor = self.pending_driving_monitor
            self.pending_driving_monitor = None
        else:
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
