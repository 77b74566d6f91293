"""Intra-query parallelism: range-partitioned execution of the driving leg.

The pipelined NLJN plan is embarrassingly parallel over its driving scan:
each worker runs the full pipeline over one contiguous slice of the driving
scan's stable total order (RID order for table scans, (key, RID) order for
index scans) and the coordinator concatenates the slices' outputs — row
order is exactly the serial order because partitions are consumed in scan
order.

Process model: a persistent ``fork`` worker pool per
:class:`~repro.db.Database`. The (read-only) catalog is inherited by the
children via copy-on-write at fork time — nothing is serialized per query
except the :class:`~repro.optimizer.plans.PipelinePlan` (plain frozen
data), the demoted worker config, and the partition bounds. The pool is
invalidated whenever the catalog generation (table versions / table count /
index count) changes.

Load balancing: the driving scan is *over-partitioned* into
``workers * OVERPARTITION`` slices per wave and handed to ``pool.map`` with
``chunksize=1``, so idle workers dynamically pull the next slice. This
bounds the impact of skew (one hot driving entry inflating a slice) to a
single slice's work instead of ``1/workers`` of the scan. The reported
critical path models the same dynamics with a greedy list schedule:
slices are assigned in dispatch order to the least-loaded of ``workers``
bins and the wave's critical path is the fullest bin.

Adaptation under partitioning:

* **inner reordering** runs *locally* in each worker — a depleted-suffix
  permutation is sound for any subset of driving rows, so workers adapt
  their own pipelines independently (mode ``BOTH`` is demoted to
  ``INNER_ONLY`` per worker, ``DRIVING_ONLY`` to ``MONITOR_ONLY`` so the
  monitors keep measuring);
* **driving-leg switching** is a *coordinator* decision: waves of
  ``workers`` partitions run to a barrier, the per-worker windowed counters
  are merged (:mod:`repro.executor.monitor_merge`) into a host pipeline,
  and :func:`~repro.core.driving.decide_driving_switch` is evaluated on the
  merged estimates. When a switch is beneficial the remaining partitions
  are drained into a single *serial continuation* that starts at the
  consumed scan boundary with the full adaptive config — the standard
  switch machinery (positional predicates, frozen scans) then applies.

Work accounting: worker meters are merged into the coordinator's catalog
meter, so ``ExecutionStats.work`` keeps its meaning. The one documented
divergence from a serial run is up to one extra ``INDEX_DESCEND`` charge
per key range per extra partition that enters it (each bounded cursor
descends into the range it resumes).

Vectorized partitions: on the columnar backend with ``batched=True`` each
worker's pipeline runs the vectorized cascade over its :class:`ScanPartition` — the static cascade under mode
``NONE`` and the chunked adaptive cascade under the monitored modes, with
kernel-folded monitoring and local kept-inner reorders mid-partition.
:func:`warm_kernel_plan` materializes the numpy column arrays, CSR index
sidecars, per-predicate group kernels and join-key row-rank arrays on the
catalog *before* the fork pool is created, so workers COW-share one copy
instead of each rebuilding them. A cascade gate failure inside a worker demotes only that
partition to the reference loop (its engine is reported per worker on
``ExecutionStats.worker_engines`` with the first gate reason on
``vector_gate``); siblings keep their cascades. Deferred chunk folds that
are still pending at a snapshot are merged at wave barriers in the serial
fold order (see :mod:`repro.executor.monitor_merge`), so coordinator
driving decisions see the same windows a serial cascade would, and the
serial continuation resumes the cascade rather than falling back to
scalar.
"""

from __future__ import annotations

import dataclasses
import heapq
import multiprocessing
import pickle
import signal
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.config import AdaptiveConfig, ReorderMode
from repro.core.controller import AdaptationController
from repro.core.driving import decide_driving_switch
from repro.core.events import AdaptationEvent, EventKind
from repro.core.ranks import RuntimeModelBuilder
from repro.errors import BudgetExceeded
from repro.executor.monitor_merge import (
    MonitorSnapshot,
    inject_into_host,
    merge_snapshots,
    snapshot_executor,
)
from repro.optimizer.cost import cost_of_order
from repro.optimizer.plans import DrivingKind, PipelinePlan
from repro.robustness.guard import SandboxedController
from repro.storage.counters import REORDER_CHECK_COST, WorkMeter
from repro.storage.cursor import ScanPartition, normalize_ranges

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.catalog import Catalog

# Waves per worker when driving switches are armed: each wave ends at a
# barrier where the coordinator re-evaluates the driving choice on merged
# estimates, so smaller waves mean earlier switch opportunities at the cost
# of more barriers.
BARRIER_WAVES = 4

# Slices dispatched per worker per wave. Over-partitioning lets pool.map's
# dynamic dequeue (chunksize=1) balance skewed driving ranges: a hot slice
# delays only itself, and the other workers keep pulling the remaining
# slices.
OVERPARTITION = 4

# Inherited by fork at pool-creation time; never mutated by workers.
_WORKER_CATALOG: "Catalog | None" = None


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _WorkerTask:
    """Everything a worker needs beyond the fork-inherited catalog.

    The coordinator's plan is shipped verbatim (it is plain data), so
    workers never re-run the optimizer and custom plans partition too.
    """

    plan: PipelinePlan
    config: AdaptiveConfig
    partition: ScanPartition
    # Arm a metrics-only observability bundle in the worker and ship the
    # counters back, so coordinator-side EXPLAIN ANALYZE sees the real
    # per-leg row flow (set when the coordinator's registry is armed).
    collect_metrics: bool = False


@dataclass(frozen=True)
class _WorkerResult:
    """One partition's output and everything its monitors learned."""

    rows: list[tuple[Any, ...]]
    work: WorkMeter
    snapshot: MonitorSnapshot
    events: tuple[AdaptationEvent, ...]
    driving_rows: int
    inner_reorders: int
    inner_checks: int
    check_seconds: float
    final_order: tuple[str, ...]
    # Which engine ran this partition ("vector" / "vector-adaptive" / ...)
    # and, when a cascade gate failed in-worker, why. A gate failure
    # demotes only this worker to the reference loop — siblings that pass
    # the gates keep their cascades.
    engine: str = "scalar"
    vector_gate: str | None = None
    # Counter name -> label -> value, from the worker's metrics registry.
    metrics: dict[str, dict[str, float]] | None = None


def demote_worker_mode(mode: ReorderMode) -> ReorderMode:
    """The per-worker reorder mode for a coordinator-level *mode*.

    Driving switches are coordinator decisions, so the driving half of the
    mode is stripped — but never the monitors, which feed the merge.
    """
    if mode is ReorderMode.BOTH:
        return ReorderMode.INNER_ONLY
    if mode is ReorderMode.DRIVING_ONLY:
        return ReorderMode.MONITOR_ONLY
    return mode


def _run_partition_task(task: _WorkerTask) -> _WorkerResult:
    """Pool target: run the pipeline over one driving partition."""
    catalog = _WORKER_CATALOG
    if catalog is None:  # pragma: no cover - pool misconfiguration
        raise RuntimeError("parallel worker started without a catalog")
    from repro.executor.batch import BatchedPipelineExecutor
    from repro.executor.pipeline import PipelineExecutor

    plan = task.plan
    config = task.config
    controller = (
        SandboxedController(AdaptationController(config))
        if config.mode.monitors
        else None
    )
    executor_cls = (
        BatchedPipelineExecutor if config.batched else PipelineExecutor
    )
    obs = None
    if task.collect_metrics:
        from repro.obs.metrics import Counter, MetricsRegistry
        from repro.obs.observer import QueryObservability

        obs = QueryObservability(metrics=MetricsRegistry())
    executor = executor_cls(plan, catalog, config, controller, obs=obs)
    if controller is not None:
        controller.attach(executor)
    executor.driving_partition = task.partition
    before = catalog.meter.snapshot()
    rows = executor.run_to_completion()
    metrics = None
    if obs is not None and obs.metrics is not None:
        metrics = {
            name: metric.as_dict()
            for name in obs.metrics.names()
            if isinstance(metric := obs.metrics.get(name), Counter)
        }
    return _WorkerResult(
        rows=rows,
        work=catalog.meter - before,
        snapshot=snapshot_executor(executor),
        events=tuple(executor.events),
        driving_rows=executor.driving_rows_total,
        inner_reorders=executor.inner_reorders,
        inner_checks=controller.inner_checks if controller is not None else 0,
        check_seconds=controller.check_seconds if controller is not None else 0.0,
        final_order=tuple(executor.order),
        engine=executor.engine_used,
        vector_gate=executor.vector_gate_reason,
        metrics=metrics,
    )


# ---------------------------------------------------------------------------
# Kernel-plan warm-up (pre-fork)
# ---------------------------------------------------------------------------
def warm_kernel_plan(
    catalog: "Catalog", plan: PipelinePlan, config: AdaptiveConfig
) -> bool:
    """Materialize the plan's columnar kernel state on catalog objects.

    The vectorized cascades lazily build numpy sidecars (CSR entry
    arrays), per-predicate group kernels, one row-rank array per probed
    (source column, index) pair, materialized row caches, and
    the lazily-built index entry lists the rank models read. All of that
    lives on catalog-owned tables/indexes, so building it *before* the
    fork pool is (re)created lets every worker inherit the arrays
    copy-on-write instead of rebuilding them per process. Returns True
    when anything new was built — the caller bumps its warm epoch so
    :func:`ensure_pool` re-forks and the children actually see the
    arrays. Never charges the work meter (no cursors are opened) and
    never mutates rows, so a throwaway compile is safe.
    """
    from repro.executor.vector import _adaptive_plan
    from repro.storage.columnar import ColumnarIndex, ColumnarTable

    if not config.batched:
        return False
    tables = [catalog.table(plan.query.tables[alias]) for alias in plan.order]
    if not any(isinstance(table, ColumnarTable) for table in tables):
        return False
    from repro.executor.batch import BatchedPipelineExecutor

    changed = False
    for table in tables:
        if isinstance(table, ColumnarTable):
            if len(table._rows) != len(table):
                changed = True
            table._materialized()
    executor = BatchedPipelineExecutor(plan, catalog, _serial_config(config))
    executor._compile_all_probes(start_position=1)
    # Driving-side sidecar: the cascade's entry walk reads _ent_rids.
    driving_leg = executor.legs[plan.order[0]]
    spec = plan.leg(plan.order[0]).driving
    if spec.kind is DrivingKind.INDEX_SCAN and spec.index_column:
        index = driving_leg.indexes.get(spec.index_column)
        if isinstance(index, ColumnarIndex):
            if index._gen is None or index._gen != index._generation():
                changed = True
            index._sidecar()
    # Inner-side sidecars + group kernels + row-rank arrays (the join-key
    # gathers), exactly the objects the cascade will look up in-worker.
    indexes: list[ColumnarIndex] = []
    for position in range(1, len(plan.order)):
        leg = executor.legs[plan.order[position]]
        probe = leg.probe_config
        if probe is not None and isinstance(probe.access_index, ColumnarIndex):
            indexes.append(probe.access_index)

    def built() -> int:
        return sum(
            len(index._kernels) + len(index._row_ranks) for index in indexes
        )

    for index in indexes:
        if index._gen is None or index._gen != index._generation():
            changed = True
    built_before = built()
    _adaptive_plan(executor)
    if built() != built_before:
        changed = True
    # Force the rank models once: TableModel construction walks
    # count_range over each leg's driving index, building any
    # still-lazy entry lists the coordinator's reorder checks (and the
    # workers' in-partition checks) would otherwise build per process.
    builder = RuntimeModelBuilder(executor)
    provider = builder.build_provider()
    for alias in plan.order:
        provider.models[alias]
    return changed


# ---------------------------------------------------------------------------
# Pool lifecycle
# ---------------------------------------------------------------------------
def _terminate_pool(pool) -> None:
    """Terminate and reap a multiprocessing pool's forked workers."""
    pool.terminate()
    pool.join()


def _pool_worker_init() -> None:
    """Reset inherited signal state in a freshly forked pool worker.

    Children fork from whatever process owns the Database — under the
    query server that process has an asyncio SIGTERM drain handler (and
    a signal wakeup fd) installed, and a child inheriting it would treat
    the SIGTERM sent by ``Pool.terminate()`` as a drain request it can
    never act on: pool invalidation (or server shutdown) would then hang
    forever joining an unkillable worker. Restore the default SIGTERM
    disposition so terminate() works; ignore SIGINT so a console Ctrl-C
    interrupts only the coordinator, which then tears the pool down.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class WorkerPool:
    """A persistent fork pool bound to one catalog generation."""

    def __init__(
        self, catalog: "Catalog", workers: int, warm_epoch: int = 0
    ) -> None:
        global _WORKER_CATALOG
        self.workers = workers
        self.generation = catalog.generation()
        # Kernel-plan warm epoch at fork time: bumped by the coordinator
        # whenever warm_kernel_plan built new columnar arrays, so the pool
        # re-forks and the children COW-share them instead of rebuilding.
        self.warm_epoch = warm_epoch
        context = multiprocessing.get_context("fork")
        # The module global is read by children at fork time (COW); restore
        # it afterwards so the parent keeps no extra reference.
        _WORKER_CATALOG = catalog
        try:
            self.pool = context.Pool(
                processes=workers, initializer=_pool_worker_init
            )
        finally:
            _WORKER_CATALOG = None
        # Guarantee the forked children are reaped even when the owning
        # Database is dropped without close() — e.g. after a query raised
        # mid-wave and the caller abandoned the handle. The finalizer
        # holds only the raw pool, never `self`, so it cannot keep the
        # WorkerPool (or the catalog) alive.
        self._finalizer = weakref.finalize(self, _terminate_pool, self.pool)

    def run(self, tasks: list[_WorkerTask]) -> list[_WorkerResult]:
        return self.pool.map(_run_partition_task, tasks, chunksize=1)

    def close(self) -> None:
        # Route through the finalizer so close() and GC are idempotent
        # views of the same cleanup.
        self._finalizer()


#: Guards lazy creation of per-holder parallel locks (non-Database
#: holders in tests; Database creates its own in __init__).
_LOCK_GUARD = threading.Lock()


def _holder_parallel_lock(holder: Any) -> threading.Lock:
    """The lock serializing *holder*'s pool lifecycle and partitioned runs.

    Concurrent server threads may execute parallel queries against one
    shared Database; a warm-up or generation change in one thread
    invalidates (closes) the pool, which must never happen while another
    thread is mid-wave on it. Serializing whole partitioned executions is
    the simple safe answer — a parallel query already wants every core,
    so two running concurrently would only fight each other anyway.
    """
    lock = getattr(holder, "_parallel_lock", None)
    if lock is None:
        with _LOCK_GUARD:
            lock = getattr(holder, "_parallel_lock", None)
            if lock is None:
                lock = threading.Lock()
                holder._parallel_lock = lock
    return lock


def ensure_pool(
    holder: Any, catalog: "Catalog", workers: int, warm_epoch: int = 0
) -> WorkerPool:
    """Get (or rebuild) *holder*'s pool for this catalog generation."""
    pool: WorkerPool | None = getattr(holder, "_parallel_pool", None)
    if pool is not None and (
        pool.workers != workers
        or pool.generation != catalog.generation()
        or pool.warm_epoch != warm_epoch
    ):
        pool.close()
        pool = None
    if pool is None:
        pool = WorkerPool(catalog, workers, warm_epoch)
        holder._parallel_pool = pool
    return pool


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------
def compute_partitions(
    plan: PipelinePlan, catalog: "Catalog", slices: int
) -> list[ScanPartition] | None:
    """Split the driving scan into up to *slices* contiguous partitions.

    Boundary positions are found from metadata only: RID arithmetic for
    table scans, an uncharged index walk (``peek_range``) for index scans.
    Returns None when the scan is too small to split.
    """
    driving_alias = plan.order[0]
    leg = plan.leg(driving_alias)
    spec = leg.driving
    table = catalog.table(plan.query.tables[driving_alias])
    if spec.kind is DrivingKind.INDEX_SCAN:
        index = catalog.index_on(table.schema.name, spec.index_column or "")
        if index is None:
            return None
        ranges = normalize_ranges(list(spec.ranges)) if spec.ranges else None
        if ranges is None:
            from repro.storage.cursor import KeyRange

            ranges = [KeyRange()]
        total = sum(
            index.count_range(
                r.low, r.high, r.low_inclusive, r.high_inclusive
            )
            for r in ranges
        )
        slices = min(slices, total)
        if slices < 2:
            return None
        # Ordinals where partitions begin; record the positions of each
        # boundary entry and its predecessor in one uncharged walk.
        starts = [total * i // slices for i in range(1, slices)]
        wanted = set(starts) | {ordinal - 1 for ordinal in starts}
        positions: dict[int, tuple] = {}
        ordinal = 0
        for key_range in ranges:
            for key, rid in index.peek_range(
                low=key_range.low,
                high=key_range.high,
                low_inclusive=key_range.low_inclusive,
                high_inclusive=key_range.high_inclusive,
            ):
                if ordinal in wanted:
                    positions[ordinal] = (key, rid)
                    if len(positions) == len(wanted):
                        break
                ordinal += 1
            else:
                continue
            break
        partitions: list[ScanPartition] = []
        bounds = [0, *starts, total]
        for i in range(slices):
            lo, hi = bounds[i], bounds[i + 1]
            partitions.append(
                ScanPartition(
                    start_after=positions[lo - 1] if lo > 0 else None,
                    stop_at=positions[hi] if hi < total else None,
                    entry_count=hi - lo,
                )
            )
        return partitions
    total = len(table)
    slices = min(slices, total)
    if slices < 2:
        return None
    partitions = []
    for i in range(slices):
        lo = total * i // slices
        hi = total * (i + 1) // slices
        partitions.append(
            ScanPartition(
                start_after=(lo - 1,) if lo > 0 else None,
                stop_at=(hi,) if hi < total else None,
                entry_count=hi - lo,
            )
        )
    return partitions


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------
@dataclass
class ParallelOutcome:
    """What a partitioned execution produced, pre-merged for the facade."""

    rows: list[tuple[Any, ...]]
    events: list[AdaptationEvent] = field(default_factory=list)
    order_history: list[tuple[str, ...]] = field(default_factory=list)
    final_order: tuple[str, ...] = ()
    driving_rows: int = 0
    inner_reorders: int = 0
    driving_switches: int = 0
    inner_checks: int = 0
    driving_checks: int = 0
    check_seconds: float = 0.0
    wall_seconds: float = 0.0
    workers_used: int = 0
    partitions_run: int = 0
    # One engine name per partition in dispatch order ("vector",
    # "vector-adaptive", "vector-adaptive+fast", ...), plus the serial
    # continuation's engine when one ran. The first in-worker gate reason
    # is surfaced so EXPLAIN ANALYZE can say *why* a partition demoted.
    worker_engines: list[str] = field(default_factory=list)
    vector_gate: str | None = None
    # Work units on the critical path: per wave the slowest partition,
    # plus coordinator decisions and any serial continuation. Bounds
    # wall-clock on a machine with >= ``workers`` cores — the deterministic
    # analogue of parallel elapsed time.
    critical_path_units: float = 0.0


def parallel_fallback_reason(
    plan: PipelinePlan,
    config: AdaptiveConfig,
    *,
    limits=None,
    fault_plan=None,
    oracle=None,
) -> str | None:
    """Why this execution cannot be partitioned (None = it can)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return "fork start method unavailable on this platform"
    if len(plan.order) < 2:
        return "single-leg pipeline"
    if limits is not None and (
        limits.max_rows is not None or limits.max_work_units is not None
    ):
        # Row/work budgets need per-row safe points, which live inside one
        # process's pipeline. Deadlines and cancellation ARE supported
        # partitioned: the coordinator enforces them at every wave barrier
        # (and the serial continuation enforces them per-row).
        return "row/work budgets are enforced per-process"
    if fault_plan is not None:
        return "fault injection requires in-process execution"
    if oracle:
        return "invariant oracle shadows a single process"
    if config.switch_at_key_boundary and config.mode.reorders_driving:
        return "switch_at_key_boundary postponement is serial-only"
    try:
        pickle.dumps(plan)
    except Exception:
        return "plan is not picklable"
    return None


def _serial_config(config: AdaptiveConfig) -> AdaptiveConfig:
    return dataclasses.replace(config, workers=1)


class ParallelExecutor:
    """Coordinates one partitioned execution against a database's pool."""

    def __init__(
        self,
        holder: Any,
        catalog: "Catalog",
        plan: PipelinePlan,
        config: AdaptiveConfig,
        obs=None,
        limits=None,
    ) -> None:
        self.holder = holder
        self.catalog = catalog
        self.plan = plan
        self.config = config
        self.obs = obs
        self.limits = limits
        self.tracer = obs.tracer if obs is not None else None
        self._started_at = 0.0
        self._work_floor = 0.0
        self._deadline: float | None = None

    def _check_limits(self, outcome: "ParallelOutcome") -> None:
        """Wave-barrier safe point for deadline and cancellation budgets.

        Raises :class:`BudgetExceeded` with the partial progress merged so
        far (rows, driving rows, work units). Worker partitions run to
        completion between barriers, so enforcement granularity is one
        wave — prompt by construction because limit-armed runs always use
        ``BARRIER_WAVES`` waves.
        """
        limits = self.limits
        if limits is None:
            return
        token = limits.cancellation
        reason = None
        if token is not None and token.cancelled:
            reason = f"query cancelled: {token.reason}"
        elif (
            self._deadline is not None
            and time.perf_counter() > self._deadline
        ):
            reason = (
                f"deadline exceeded ({limits.timeout_seconds * 1000:.0f} ms)"
            )
        if reason is not None:
            raise BudgetExceeded(
                reason,
                rows_emitted=len(outcome.rows),
                work_units=self.catalog.meter.total_units - self._work_floor,
                elapsed_seconds=time.perf_counter() - self._started_at,
                driving_rows=outcome.driving_rows,
            )

    # -- host pipeline for coordinator decisions -----------------------
    def _build_host(self, merged: MonitorSnapshot, consumed_entries: int,
                    total_entries: int, driving_rows: int):
        from repro.executor.pipeline import PipelineExecutor

        host = PipelineExecutor(
            self.plan, self.catalog, _serial_config(self.config)
        )
        host._compile_all_probes(start_position=1)
        driving_leg = host.legs[host.order[0]]
        cursor = driving_leg.open_driving_cursor()
        cursor.partition_entry_count = total_entries
        cursor.entries_yielded = consumed_entries
        host.driving_cursor = cursor
        inject_into_host(host, merged)
        host.driving_rows_total = driving_rows
        return host

    def _decide_switch(self, host) -> tuple[list[str], Any] | None:
        builder = RuntimeModelBuilder(host)
        builder.refresh_join_selectivities()
        provider = builder.build_provider()
        self.catalog.meter.charge_reorder_check()
        new_order = decide_driving_switch(host, provider, self.config)
        if new_order is not None:
            return new_order, provider
        return None

    # -- main entry ----------------------------------------------------
    def execute(self) -> ParallelOutcome | str:
        """Run partitioned; returns an outcome or a fallback reason.

        Serialized per holder: see :func:`_holder_parallel_lock`.
        """
        with _holder_parallel_lock(self.holder):
            return self._execute_locked()

    def _execute_locked(self) -> ParallelOutcome | str:
        config = self.config
        workers = config.workers
        reorders_driving = config.mode.reorders_driving
        limits_armed = self.limits is not None and not self.limits.unlimited
        wave_size = workers * OVERPARTITION
        # Deadline/cancellation budgets are checked at wave barriers, so a
        # limit-armed run always splits into BARRIER_WAVES waves even when
        # driving switches are off — otherwise the whole scan would be one
        # wave and cancellation could not be prompt.
        slices = (
            wave_size * BARRIER_WAVES
            if reorders_driving or limits_armed
            else wave_size
        )
        partitions = compute_partitions(self.plan, self.catalog, slices)
        if partitions is None or len(partitions) < 2:
            return "driving scan too small to partition"
        started_at = time.perf_counter()
        self._started_at = started_at
        self._work_floor = self.catalog.meter.total_units
        if limits_armed and self.limits.timeout_seconds is not None:
            self._deadline = started_at + self.limits.timeout_seconds
        worker_config = dataclasses.replace(
            _serial_config(config), mode=demote_worker_mode(config.mode)
        )
        # Build columnar kernels/sidecars BEFORE (re)forking the pool, so
        # workers inherit the arrays copy-on-write instead of each paying
        # the build. A warm-up that built something bumps the epoch, which
        # forces ensure_pool to re-fork with the arrays in place.
        warm_epoch = getattr(self.holder, "_kernel_warm_epoch", 0)
        if warm_kernel_plan(self.catalog, self.plan, worker_config):
            warm_epoch += 1
            self.holder._kernel_warm_epoch = warm_epoch
        pool = ensure_pool(self.holder, self.catalog, workers, warm_epoch)
        expected_order = tuple(self.plan.order)
        total_entries = sum(p.entry_count or 0 for p in partitions)

        outcome = ParallelOutcome(rows=[], workers_used=workers)
        outcome.order_history.append(expected_order)
        outcome.final_order = expected_order
        snapshots: list[MonitorSnapshot] = []
        consumed_entries = 0
        switch_to: list[str] | None = None

        collect_metrics = (
            self.obs is not None and self.obs.metrics is not None
        )
        for wave_start in range(0, len(partitions), wave_size):
            self._check_limits(outcome)
            wave = partitions[wave_start : wave_start + wave_size]
            tasks = [
                _WorkerTask(
                    self.plan, worker_config, partition, collect_metrics
                )
                for partition in wave
            ]
            results = pool.run(tasks)
            for offset, result in enumerate(results):
                worker_id = wave_start + offset
                outcome.rows.extend(result.rows)
                self.catalog.meter.merge(result.work)
                snapshots.append(result.snapshot)
                outcome.driving_rows += result.driving_rows
                outcome.inner_reorders += result.inner_reorders
                outcome.inner_checks += result.inner_checks
                outcome.check_seconds += result.check_seconds
                outcome.partitions_run += 1
                outcome.worker_engines.append(result.engine)
                if outcome.vector_gate is None and result.vector_gate:
                    outcome.vector_gate = result.vector_gate
                for event in result.events:
                    outcome.events.append(
                        dataclasses.replace(event, worker=worker_id)
                    )
                if result.final_order != expected_order:
                    outcome.order_history.append(result.final_order)
                if collect_metrics and result.metrics:
                    for name, labels in result.metrics.items():
                        counter = self.obs.metrics.counter(name)
                        for label, value in labels.items():
                            counter.inc(label, value)
                if self.tracer is not None:
                    self.tracer.event(
                        "partition",
                        worker=worker_id,
                        rows=len(result.rows),
                        driving_rows=result.driving_rows,
                        work_units=result.work.total_units,
                        inner_reorders=result.inner_reorders,
                    )
            # Greedy list schedule (dispatch order, least-loaded bin) models
            # pool.map's chunksize=1 dynamic dequeue across `workers` procs.
            bins = [0.0] * workers
            for result in results:
                heapq.heappush(
                    bins, heapq.heappop(bins) + result.work.total_units
                )
            outcome.critical_path_units += max(bins)
            consumed_entries += sum(p.entry_count or 0 for p in wave)
            remaining = partitions[wave_start + len(wave) :]
            if reorders_driving and remaining:
                merged = merge_snapshots(snapshots)
                host = self._build_host(
                    merged, consumed_entries, total_entries,
                    outcome.driving_rows,
                )
                outcome.driving_checks += 1
                outcome.critical_path_units += REORDER_CHECK_COST
                decided_at = time.perf_counter()
                decision = self._decide_switch(host)
                outcome.check_seconds += time.perf_counter() - decided_at
                if self.obs is not None and self.obs.sampler is not None:
                    self.obs.sampler.sample(host)
                if decision is not None:
                    new_order, provider = decision
                    outcome.events.append(
                        AdaptationEvent(
                            kind=EventKind.DRIVING_SWITCH,
                            driving_rows_produced=outcome.driving_rows,
                            old_order=expected_order,
                            new_order=tuple(new_order),
                            estimated_current_cost=cost_of_order(
                                expected_order, provider
                            ),
                            estimated_new_cost=cost_of_order(
                                tuple(new_order), provider
                            ),
                            reason=(
                                "coordinator barrier decision; remaining "
                                "partitions drain to a serial continuation"
                            ),
                        )
                    )
                    switch_to = new_order
                    self._serial_continuation(
                        outcome, merged, remaining, consumed_entries,
                        total_entries,
                    )
                    break
        outcome.wall_seconds = time.perf_counter() - started_at
        if switch_to is None:
            outcome.final_order = (
                outcome.order_history[-1]
                if len(outcome.order_history) > 1
                else expected_order
            )
        return outcome

    def _serial_continuation(
        self,
        outcome: ParallelOutcome,
        merged: MonitorSnapshot,
        remaining: list[ScanPartition],
        consumed_entries: int,
        total_entries: int,
    ) -> None:
        """Drain the unconsumed partitions in-process with the full config.

        The continuation starts at the consumed scan boundary and runs the
        complete adaptive machinery (driving switches included): with the
        merged windows pre-injected, its controller re-derives the
        coordinator's switch decision at its first check point and applies
        it through the standard freeze/positional-predicate path.
        """
        from repro.executor.batch import BatchedPipelineExecutor
        from repro.executor.pipeline import PipelineExecutor

        config = _serial_config(self.config)
        controller = SandboxedController(AdaptationController(config))
        executor_cls = (
            BatchedPipelineExecutor if config.batched else PipelineExecutor
        )
        limits = self.limits
        if limits is not None and self._deadline is not None:
            # The continuation's enforcer restarts its clock; hand it only
            # the time remaining on the original deadline.
            limits = dataclasses.replace(
                limits,
                timeout_seconds=max(
                    self._deadline - time.perf_counter(), 1e-3
                ),
            )
        executor = executor_cls(
            self.plan, self.catalog, config, controller,
            limits=limits, obs=self.obs,
        )
        controller.attach(executor)
        executor.driving_partition = ScanPartition(
            start_after=remaining[0].start_after,
            stop_at=None,
            entry_count=total_entries - consumed_entries,
        )
        inject_into_host(executor, merged)
        executor.driving_rows_total = outcome.driving_rows
        before = self.catalog.meter.snapshot()
        try:
            rows = executor.run_to_completion()
        except BudgetExceeded as error:
            # Fold the partitioned prefix into the continuation's partial
            # progress so the caller sees whole-query numbers.
            raise BudgetExceeded(
                error.reason,
                rows_emitted=len(outcome.rows) + error.rows_emitted,
                work_units=self.catalog.meter.total_units - self._work_floor,
                elapsed_seconds=time.perf_counter() - self._started_at,
                driving_rows=error.driving_rows,
            ) from error
        outcome.critical_path_units += (
            self.catalog.meter - before
        ).total_units
        outcome.rows.extend(rows)
        outcome.driving_rows = executor.driving_rows_total
        outcome.inner_reorders += executor.inner_reorders
        outcome.driving_switches += executor.driving_switches
        outcome.inner_checks += controller.inner_checks
        outcome.driving_checks += controller.driving_checks
        outcome.check_seconds += controller.check_seconds
        for event in executor.events:
            outcome.events.append(event)
        for order in executor.order_history[1:]:
            outcome.order_history.append(order)
        outcome.final_order = tuple(executor.order)
        outcome.worker_engines.append(executor.engine_used)
        if outcome.vector_gate is None and executor.vector_gate_reason:
            outcome.vector_gate = executor.vector_gate_reason
        if self.tracer is not None:
            self.tracer.event(
                "serial-continuation",
                rows=len(rows),
                driving_rows=executor.driving_rows_total,
                final_order=tuple(executor.order),
            )
