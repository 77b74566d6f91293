"""The public facade: an embedded database with adaptive join reordering.

Typical use::

    from repro import AdaptiveConfig, Database, ReorderMode

    db = Database()
    db.create_table("Owner", [("id", "int"), ("name", "string")])
    db.create_index("Owner", "id")
    db.insert("Owner", [(1, "ada"), (2, "bob")])
    db.analyze()

    result = db.execute("SELECT o.name FROM Owner o WHERE o.id = 1")
    print(result.rows)

    adaptive = db.execute(sql, config=AdaptiveConfig(mode=ReorderMode.BOTH))
    static = db.execute(sql, config=AdaptiveConfig(mode=ReorderMode.NONE))
    print(static.stats.total_work / adaptive.stats.total_work)  # speedup
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.catalog.catalog import Catalog
from repro.catalog.statistics import StatisticsLevel
from repro.core.config import AdaptiveConfig, ReorderMode
from repro.core.controller import AdaptationController
from repro.core.events import EventKind
from repro.errors import SchemaError
from repro.executor.batch import BatchedPipelineExecutor
from repro.executor.pipeline import PipelineExecutor, PipelineRun, held_arrays
from repro.executor.postprocess import PostProcessor
from repro.obs.explain import render_explain_analyze
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import DecisionRecord, QueryObservability
from repro.obs.timeseries import EstimateSample, EstimateSampler
from repro.obs.trace import Tracer
from repro.optimizer.optimizer import StaticOptimizer
from repro.optimizer.plancache import (
    DEFAULT_CAPACITY,
    CachedPlan,
    Feedback,
    PlanCache,
)
from repro.optimizer.plans import PipelinePlan
from repro.query.query import QuerySpec
from repro.query.sql.parser import parse_sql
from repro.robustness.faults import FaultInjector, FaultPlan
from repro.robustness.guard import SandboxedController
from repro.robustness.limits import ExecutionLimits
from repro.robustness.oracle import InvariantOracle
from repro.storage.backend import COLUMNAR_BACKEND
from repro.storage.counters import ThreadScopedMeter, WorkMeter
from repro.storage.schema import Column
from repro.storage.types import ColumnType

_TYPE_NAMES = {
    "int": ColumnType.INT,
    "integer": ColumnType.INT,
    "float": ColumnType.FLOAT,
    "double": ColumnType.FLOAT,
    "string": ColumnType.STRING,
    "str": ColumnType.STRING,
    "text": ColumnType.STRING,
}

ColumnSpec = Column | tuple[str, str]

# What a learned text runs: its lesson as a static plan, no monitor, no
# controller.
_STATIC = AdaptiveConfig(mode=ReorderMode.NONE)
# What ``execute`` runs when no configuration is passed (frozen: shared).
_BOTH = AdaptiveConfig(mode=ReorderMode.BOTH)


def _as_column(spec: ColumnSpec) -> Column:
    if isinstance(spec, Column):
        return spec
    name, type_name = spec
    try:
        column_type = _TYPE_NAMES[type_name.lower()]
    except KeyError:
        raise SchemaError(
            f"unknown column type {type_name!r}; "
            f"expected one of {sorted(_TYPE_NAMES)}"
        ) from None
    return Column(name, column_type)


@dataclass(slots=True)
class ExecutionStats:
    """Measurements of one query execution (not frozen: that costs every
    query microseconds)."""

    work: WorkMeter          # work-unit deltas attributable to this query
    wall_seconds: float
    inner_reorders: int
    driving_switches: int
    inner_checks: int
    driving_checks: int
    order_history: tuple[tuple[str, ...], ...]
    # Applied adaptation decisions with the cost-model justification.
    events: tuple = ()
    # Which execution engine ran the pipeline: "scalar", "vector" or
    # "vector-adaptive".
    engine: str = "scalar"
    # Always None: every run on a columnar store runs the cascade to its
    # end. Read by benchmarks/e2e/library.py (its executor.gated_share);
    # leaves with that metric.
    vector_gate: str | None = None
    # How the plan was obtained: "hit" / "miss" / "wait" (blocked on another
    # thread planning the same statement) / "off" (cache capacity 0) for SQL
    # text; None when the caller passed a QuerySpec or a PipelinePlan, which
    # never consult the cache.
    plan_cache: str | None = None
    # Set when the execution ran its plan-cache entry's feedback plan, as a
    # static plan, instead of the optimizer's: ``(order it ran, write-backs
    # the entry had seen)``. Monitored executions of SQL text only.
    plan_feedback: tuple[tuple[str, ...], int] | None = None
    # The order the checks proposed where the driving scan had ended —
    # evaluated there by a statement's first monitored run only, applied
    # to nothing, written back as the entry's feedback plan.
    proposed_order: tuple[str, ...] | None = None
    # Wall time spent inside the controller's two reorder checks; 0.0 in
    # mode NONE.
    check_seconds: float = 0.0

    @property
    def total_work(self) -> float:
        return self.work.total_units

    @property
    def execution_work(self) -> float:
        return self.work.execution_units

    @property
    def adaptation_work(self) -> float:
        return self.work.adaptation_units

    @property
    def total_switches(self) -> int:
        return self.inner_reorders + self.driving_switches

    @property
    def order_changed(self) -> bool:
        return self.total_switches > 0

    @property
    def degraded(self) -> bool:
        """True when the adaptive layer failed and was sandboxed off."""
        return any(event.kind is EventKind.DEGRADED for event in self.events)


@dataclass(slots=True)
class QueryResult:
    """Result rows plus execution statistics and the (initial) plan."""

    rows: list[tuple[Any, ...]]
    stats: ExecutionStats
    plan: PipelinePlan
    final_order: tuple[str, ...]
    # The invariant oracle that shadowed this execution (debug mode only);
    # its RID-tuple multiset supports exact duplicate/missing comparisons.
    oracle: InvariantOracle | None = None
    # The query's observation (``execute(obs=...)``); what it armed is
    # read off it below.
    obs: QueryObservability | None = None

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def trace(self) -> Tracer | None:
        """The span trace, the engine's events under ``execute``."""
        return self.obs.tracer if self.obs is not None else None

    @property
    def metrics(self) -> MetricsRegistry | None:
        """The per-query metrics registry."""
        return self.obs.metrics if self.obs is not None else None

    @property
    def samples(self) -> tuple[EstimateSample, ...]:
        """The monitor-estimate samples: one per checked driving-row count,
        and the final one."""
        obs = self.obs
        if obs is None or obs.sampler is None:
            return ()
        return tuple(obs.sampler.samples)

    @property
    def decisions(self) -> tuple[DecisionRecord, ...]:
        """Every reorder check the controller ran, with the rank-rule
        inputs it saw, when a flight recorder armed the audit."""
        obs = self.obs
        return tuple(obs.decisions) if obs is not None and obs.audit else ()


class Database:
    """An embedded in-memory database exposing the reproduction's API."""

    def __init__(
        self, backend: str = "row", plan_cache_size: int = DEFAULT_CAPACITY
    ) -> None:
        self.catalog = Catalog(backend=backend)
        # The only plan cache: ``execute(sql)`` / ``plan(sql)`` compile a
        # statement once per catalog generation (*plan_cache_size*
        # statements, LRU; 0 plans every statement afresh). The query
        # server serves from this instance too.
        self.plan_cache = PlanCache(plan_cache_size)

    @property
    def backend_name(self) -> str:
        return self.catalog.backend.name

    def storage_stats(self) -> dict:
        """Per-table memory footprint of the active backend.

        Returns ``{"backend", "total_bytes", "table_count",
        "index_bytes", "kernel_plan_bytes", "per_table"}`` where each
        per-table entry reports the approximate resident bytes of that
        table's storage (typed column arrays for ``columnar``, row tuples +
        cells for ``row``) — the observable half of the columnar backend's
        memory savings — plus ``index_bytes``: its indexes (the index
        arrays for ``columnar``, the sorted ``(key, rid)`` entry lists for
        ``row``), and ``kernel_bytes``: the numpy index / group-kernel /
        join-key row-rank bytes materialized on that table's indexes, and
        what the prepared records of the plans in the plan cache keep alive
        beyond them — their step memos' kernels (the index's bounded memo
        may have evicted them), hash builds and residual join cells,
        driving-scan arrays. The totals sum the per-table entries;
        ``total_bytes`` counts the tables' storage only.
        """
        from repro.storage.columnar import ColumnarIndex, table_memory_footprint
        from repro.storage.columnar import unique_nbytes

        held: dict[str, list] = {}
        for plan in self.plan_cache.plans():
            for table, array in held_arrays(plan, self.catalog):
                held.setdefault(table, []).append(array)
        backend = self.backend_name
        per_table = []
        total = 0
        index_total = 0
        kernel_total = 0
        for name in self.catalog.table_names():
            footprint = table_memory_footprint(self.catalog.table(name))
            total += footprint["bytes"]
            arrays = held.get(name, [])
            index_bytes = 0
            for index in self.catalog.indexes_of(name).values():
                index_bytes += index.nbytes()
                if isinstance(index, ColumnarIndex):
                    arrays += index.kernel_arrays()
            index_total += index_bytes
            kernel_bytes = unique_nbytes(arrays)
            kernel_total += kernel_bytes
            per_table.append(
                {
                    "table": name,
                    "backend": backend,
                    "rows": footprint["rows"],
                    "bytes": footprint["bytes"],
                    "index_bytes": index_bytes,
                    "kernel_bytes": kernel_bytes,
                }
            )
        return {
            "backend": backend,
            "total_bytes": total,
            "table_count": len(per_table),
            "index_bytes": index_total,
            "kernel_plan_bytes": kernel_total,
            "per_table": per_table,
        }

    # -- schema & data ----------------------------------------------------
    def create_table(self, name: str, columns: Sequence[ColumnSpec]) -> None:
        self.catalog.create_table(name, [_as_column(spec) for spec in columns])

    def create_index(self, table: str, column: str) -> None:
        self.catalog.create_index(table, column)

    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        return self.catalog.insert_many(table, rows)

    def analyze(
        self,
        table: str | None = None,
        level: StatisticsLevel = StatisticsLevel.BASIC,
    ) -> None:
        """Collect optimizer statistics (RUNSTATS equivalent).

        Levels (see :class:`~repro.catalog.statistics.StatisticsLevel`):
        ``CARDINALITY`` — table sizes only (the paper's main setting);
        ``BASIC`` — plus per-column ndv/min/max; ``DETAILED`` — plus
        frequent values (the Sec 5.3 "sophisticated statistics").
        """
        self.catalog.analyze(table, level)

    # -- querying -----------------------------------------------------------
    def parse(self, sql: str) -> QuerySpec:
        return parse_sql(sql)

    def plan(self, query: str | QuerySpec) -> PipelinePlan:
        """The static optimizer's plan for *query*.

        SQL text goes through the plan cache; a :class:`QuerySpec` is
        always optimized afresh (there is no text to key it by).
        """
        if isinstance(query, str):
            return self._plan_sql(query, None, self.catalog.generation())[0].plan
        return self._optimize(query, None)

    def _optimize(self, spec: QuerySpec, tracer: Tracer | None) -> PipelinePlan:
        if tracer is None:
            return StaticOptimizer(self.catalog).optimize(spec)
        with tracer.span("optimize") as span:
            plan = StaticOptimizer(self.catalog).optimize(spec)
            span.attrs["order"] = plan.order
            span.attrs["estimated_cost"] = plan.estimated_cost
        return plan

    def _plan_sql(
        self,
        sql: str,
        tracer: Tracer | None,
        generation: tuple,
        mode: ReorderMode | None = None,
    ) -> tuple[CachedPlan, str, Feedback | None]:
        """``(plan-cache entry, outcome, feedback)`` for SQL text under the
        catalog's *generation*.

        *mode* asks for the entry's feedback plan too, if one was learned in
        that mode. Traced, the lookup is one ``plan-cache`` span;
        ``parse`` and ``optimize`` spans appear under it only when they
        actually ran.
        """

        if tracer is None:
            return self.plan_cache.lookup(sql, generation, self._compile, mode)

        def compile_sql(text: str) -> PipelinePlan:
            with tracer.span("parse"):
                spec = parse_sql(text)
            return self._optimize(spec, tracer)

        with tracer.span("plan-cache") as span:
            found = self.plan_cache.lookup(sql, generation, compile_sql, mode)
            span.attrs["outcome"] = found[1]
            span.attrs["feedback"] = found[2] is not None
        return found

    def _compile(self, sql: str) -> PipelinePlan:
        """The optimizer's plan for SQL text (the plan cache's planner)."""
        return self._optimize(parse_sql(sql), None)

    def explain(self, query: str | QuerySpec) -> str:
        return self.plan(query).explain()

    def explain_analyze(
        self,
        query: str | QuerySpec | PipelinePlan,
        config: AdaptiveConfig | None = None,
        *,
        limits: ExecutionLimits | None = None,
        obs: QueryObservability | None = None,
    ) -> str:
        """Run *query* and report what the adaptive run time actually did.

        Observes the execution with the estimate sampler (or *obs*) and
        renders the :func:`~repro.obs.explain.render_explain_analyze`
        report: the optimizer's plan, per-leg actual row flow vs. the
        optimizer's and monitors' estimates, the adaptation-event timeline,
        the work-unit breakdown, and budget/fault summaries.
        """
        if obs is None:
            obs = QueryObservability(sampler=EstimateSampler())
        result = self.execute(query, config, limits=limits, obs=obs)
        return render_explain_analyze(result, limits)

    def execute(
        self,
        query: str | QuerySpec | PipelinePlan,
        config: AdaptiveConfig | None = None,
        *,
        limits: ExecutionLimits | None = None,
        fault_plan: FaultPlan | FaultInjector | None = None,
        oracle: InvariantOracle | bool | None = None,
        sandbox: bool = True,
        obs: QueryObservability | bool | None = None,
    ) -> QueryResult:
        """Run *query* under the given adaptive configuration.

        The default configuration enables both inner-leg reordering and
        driving-leg switching (the paper's full technique); pass
        ``AdaptiveConfig(mode=ReorderMode.NONE)`` for the static baseline.

        Robustness knobs:

        * *limits* — per-query budgets (rows, work units, deadline,
          cancellation); hitting one raises
          :class:`~repro.errors.BudgetExceeded` with partial-progress
          stats;
        * *fault_plan* — arm deterministic fault injection for this one
          execution (chaos testing); a plan builds a fresh injector, an
          injector is used as-is so callers can inspect its fire counts;
        * *oracle* — ``True`` (or an :class:`InvariantOracle`) shadows
          execution with debug-mode invariant checks: depleted-state
          preconditions and RID-tuple duplicate detection; the oracle is
          returned on ``QueryResult.oracle``;
        * *sandbox* — when True (the default), exceptions from the
          adaptive layer degrade the query to its current order (recorded
          as a ``DEGRADED`` event) instead of aborting it; pass False to
          let them propagate for debugging.

        Observability:

        * *obs* — ``True`` arms a full :class:`QueryObservability` bundle
          (tracer + metrics registry + estimate sampler, one sample where
          the controller checks); a pre-built bundle is used as-is. The
          trace, registry, and samples come back on ``QueryResult.trace``
          / ``.metrics`` / ``.samples``. Either way the same machine runs
          and charges the same work: the engine feeds the bundle at its
          checks and fault retries only, and every view is rendered from
          it and the legs' flow counters after the run.
        """
        if config is None:
            config = _BOTH
        if obs is True:
            obs = QueryObservability.armed()
        elif obs is False:
            obs = None
        tracer = obs.tracer if obs is not None else None
        query_span = (
            tracer.begin(
                "query",
                kind="phase",
                sql=query if isinstance(query, str) else None,
                mode=config.mode.value,
            )
            if tracer is not None
            else None
        )
        try:
            plan_cache = plan_feedback = learn = generation = None
            if isinstance(query, PipelinePlan):
                plan = query
            elif isinstance(query, str):
                # The first monitored execution of a text in a mode learns
                # (_learn); every later one in that mode runs the lesson as
                # a static plan. A static execution always runs the
                # optimizer's plan. The generation is read once: the
                # lookup and the plan's prepared record both go by it.
                generation = self.catalog.generation()
                entry, plan_cache, feedback = self._plan_sql(
                    query, tracer, generation, config.mode
                )
                plan = entry.plan
                if feedback is not None:
                    plan = feedback.plan
                    plan_feedback = (plan.order, feedback.writes)
                    config = _STATIC
                elif config.mode.monitors:
                    learn = entry
            else:
                plan = self._optimize(query, tracer)
            return self._execute_plan(
                plan, config, generation, plan_cache, plan_feedback, learn,
                limits, fault_plan, oracle, sandbox, obs, query_span,
            )
        finally:
            if tracer is not None:
                tracer.close_all()

    def _execute_plan(
        self,
        plan: PipelinePlan,
        config: AdaptiveConfig,
        generation: tuple | None,
        plan_cache: str | None,
        plan_feedback: tuple[tuple[str, ...], int] | None,
        learn: CachedPlan | None,
        limits: ExecutionLimits | None,
        fault_plan: FaultPlan | FaultInjector | None,
        oracle: InvariantOracle | bool | None,
        sandbox: bool,
        obs: QueryObservability | None,
        query_span,
    ) -> QueryResult:
        tracer = obs.tracer if obs is not None else None
        if oracle is True:
            oracle = InvariantOracle()
        elif oracle is False:
            oracle = None
        controller = (
            AdaptationController(config) if config.mode.monitors else None
        )
        if controller is not None and sandbox:
            controller = SandboxedController(controller)
        # The store picks the machine: the engine on a columnar database,
        # the oracle on any other.
        executor_cls = (
            BatchedPipelineExecutor
            if self.catalog.backend is COLUMNAR_BACKEND
            else PipelineExecutor
        )
        executor = executor_cls(
            plan, self.catalog, config, controller, limits, oracle, obs, generation
        )
        if controller is not None:
            controller.attach(executor)
        # A run that will be learned from still asks its checks at a
        # finished scan, where a one-chunk statement learns.
        executor.learns_at_end = learn is not None
        injector: FaultInjector | None = None
        if isinstance(fault_plan, FaultPlan):
            injector = fault_plan.build()
        elif fault_plan is not None:
            injector = fault_plan
        execute_span = (
            tracer.begin("execute", kind="phase", order=plan.order)
            if tracer is not None
            else None
        )
        try:
            if injector is not None:
                self.catalog.install_faults(injector)
            rows = executor.run_to_completion()
        finally:
            if injector is not None:
                self.catalog.clear_faults()
            if obs is not None:
                obs.finish(executor)
            if execute_span is not None:
                tracer.end(
                    execute_span,
                    rows_emitted=executor.rows_emitted,
                    driving_rows=executor.driving_rows_total,
                    work_units=executor.work_units,
                    final_order=tuple(executor.order),
                )
        if plan.query.has_post_processing:
            # Blocking stage above the pipeline (aggregation / ORDER BY /
            # LIMIT, Sec 3.1); insensitive to run-time reordering.
            if tracer is not None:
                with tracer.span("post-process"):
                    rows = PostProcessor(plan.query, plan.projection).process(rows)
            else:
                rows = PostProcessor(plan.query, plan.projection).process(rows)
        # Positional, in field order: the keyword call costs a static run
        # over a microsecond.
        stats = ExecutionStats(
            executor.work,
            executor.wall_seconds,
            executor.inner_reorders,
            executor.driving_switches,
            controller.inner_checks if controller else 0,
            controller.driving_checks if controller else 0,
            tuple(executor.order_history),
            tuple(executor.events),
            executor.engine_used,
            None,
            plan_cache,
            plan_feedback,
            executor.proposed_order,
            controller.check_seconds if controller else 0.0,
        )
        if learn is not None and injector is None and not stats.degraded:
            self._learn(learn, executor)
        if query_span is not None:
            tracer.end(
                query_span,
                rows=len(rows),
                work_units=stats.total_work,
                switches=stats.total_switches,
            )
        return QueryResult(
            rows, stats, plan, tuple(executor.order), oracle, obs
        )

    def _learn(self, entry: CachedPlan, executor: PipelineRun) -> None:
        """Keep what a text's first monitored run in its mode learned.

        Reached only when that run completed undisturbed (no injected fault,
        adaptive layer not degraded). Its lesson is the order its checks
        proposed at a finished scan, else the order it ended on: another
        order than it started from is built here, once, into a corrected
        plan off the run's live model (``RuntimeModel.lesson``); the order
        it started from keeps the plan it ran. Written only
        for an entry planned under the catalog's current generation: the
        cache re-checks that (and that it still holds the entry) under its
        lock.
        """
        generation = self.catalog.generation()
        if entry.generation != generation:
            return
        plan = executor.plan
        order = executor.proposed_order or tuple(executor.order)
        if order != plan.order:
            plan = executor.lesson(order)
        self.plan_cache.write_feedback(
            entry, generation, plan, executor.config.mode
        )

    def enable_concurrent_metering(self) -> ThreadScopedMeter:
        """Route work-unit charges to per-thread meters.

        The catalog and every table share one :class:`WorkMeter`, so
        concurrent executions on an embedding caller's threads would
        interleave charges and corrupt per-query ``meter - before``
        deltas (the query server's engines are processes, one request at
        a time, and need none of this). This swaps the shared meter for a
        :class:`ThreadScopedMeter` facade (idempotent; returns the
        installed facade): a caller wrapping each execution in
        ``meter.scoped()`` gets exact per-query work accounting, while
        unscoped threads keep charging the base meter.
        """
        meter = self.catalog.meter
        if isinstance(meter, ThreadScopedMeter):
            return meter
        scoped = ThreadScopedMeter(meter)
        self.catalog.meter = scoped
        for name in self.catalog.table_names():
            self.catalog.table(name).meter = scoped
        return scoped
