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
from repro.core.ranks import RuntimeModelBuilder
from repro.errors import SchemaError
from repro.executor.batch import BatchedPipelineExecutor
from repro.executor.pipeline import PipelineExecutor
from repro.executor.postprocess import PostProcessor
from repro.obs.explain import render_explain_analyze
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import QueryObservability
from repro.obs.timeseries import EstimateSample
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


@dataclass(frozen=True)
class ExecutionStats:
    """Measurements of one query execution."""

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
    # Why a run on the columnar store did NOT run the vectorized cascade
    # (the scalar fallback screen or first failed gate); None when it ran,
    # and always on a row database.
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


@dataclass(frozen=True)
class QueryResult:
    """Result rows plus execution statistics and the (initial) plan."""

    rows: list[tuple[Any, ...]]
    stats: ExecutionStats
    plan: PipelinePlan
    final_order: tuple[str, ...]
    # The invariant oracle that shadowed this execution (debug mode only);
    # its RID-tuple multiset supports exact duplicate/missing comparisons.
    oracle: InvariantOracle | None = None
    # Observability artifacts (populated only when ``execute(obs=...)`` armed
    # them): the span trace, the metrics registry, and the time series of
    # monitor-estimate samples.
    trace: Tracer | None = None
    metrics: MetricsRegistry | None = None
    samples: tuple[EstimateSample, ...] = ()
    # Flight-recorder decision audit (``obs.audit`` armed): every reorder
    # check the controller ran, with the rank-rule inputs it saw
    # (:class:`~repro.obs.recorder.DecisionRecord`).
    decisions: tuple = ()

    def __len__(self) -> int:
        return len(self.rows)


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
        "kernel_plan_bytes", "per_table"}`` where each per-table entry
        reports the approximate resident bytes of that table's storage
        (typed column arrays for ``columnar``, row tuples + cells for
        ``row``) — the observable half of the columnar backend's memory
        savings — plus ``kernel_bytes``, the numpy sidecar / group-kernel /
        join-key row-rank bytes currently materialized on that table's
        indexes (zero until a first vectorized run builds them).
        """
        from repro.storage.columnar import ColumnarIndex, table_memory_footprint

        backend = self.backend_name
        per_table = []
        total = 0
        kernel_total = 0
        for name in self.catalog.table_names():
            footprint = table_memory_footprint(self.catalog.table(name))
            total += footprint["bytes"]
            kernel_bytes = sum(
                index.kernel_footprint()
                for index in self.catalog._indexes.get(name, {}).values()
                if isinstance(index, ColumnarIndex)
            )
            kernel_total += kernel_bytes
            per_table.append(
                {
                    "table": name,
                    "backend": backend,
                    "rows": footprint["rows"],
                    "bytes": footprint["bytes"],
                    "kernel_bytes": kernel_bytes,
                }
            )
        return {
            "backend": backend,
            "total_bytes": total,
            "table_count": len(per_table),
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
            return self._plan_sql(query, None)[0].plan
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
        self, sql: str, tracer: Tracer | None, mode: ReorderMode | None = None
    ) -> tuple[CachedPlan, str, Feedback | None]:
        """``(plan-cache entry, outcome, feedback)`` for SQL text.

        *mode* asks for the entry's feedback plan too, if one was learned in
        that mode. Traced, the lookup is one ``plan-cache`` span;
        ``parse`` and ``optimize`` spans appear under it only when they
        actually ran.
        """

        def compile_sql(text: str) -> PipelinePlan:
            if tracer is None:
                return self._optimize(parse_sql(text), None)
            with tracer.span("parse"):
                spec = parse_sql(text)
            return self._optimize(spec, tracer)

        generation = self.catalog.generation()
        if tracer is None:
            return self.plan_cache.lookup(sql, generation, compile_sql, mode)
        with tracer.span("plan-cache") as span:
            found = self.plan_cache.lookup(sql, generation, compile_sql, mode)
            span.attrs["outcome"] = found[1]
            span.attrs["feedback"] = found[2] is not None
        return found

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

        Arms full observability (tracer + metrics + estimate sampler) for
        the execution and renders the
        :func:`~repro.obs.explain.render_explain_analyze` report: the
        optimizer's plan, per-leg actual row flow vs. the optimizer's and
        monitors' estimates, the adaptation-event timeline, the work-unit
        breakdown, and budget/fault summaries.
        """
        if obs is None:
            obs = QueryObservability.armed()
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
          and charges the same work: the bundle is fed at cold sites only
          and reads the legs' flow counters at the end.
        """
        if config is None:
            config = AdaptiveConfig(mode=ReorderMode.BOTH)
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
            plan_cache = plan_feedback = learn = None
            if isinstance(query, PipelinePlan):
                plan = query
            elif isinstance(query, str):
                # The first monitored execution of a text in a mode learns
                # (_learn); every later one in that mode runs the lesson as
                # a static plan. A static execution always runs the
                # optimizer's plan.
                entry, plan_cache, feedback = self._plan_sql(
                    query, tracer, config.mode
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
                plan,
                config,
                plan_cache=plan_cache,
                plan_feedback=plan_feedback,
                learn=learn,
                limits=limits,
                fault_plan=fault_plan,
                oracle=oracle,
                sandbox=sandbox,
                obs=obs,
                query_span=query_span,
            )
        finally:
            if tracer is not None:
                tracer.close_all()

    def _execute_plan(
        self,
        plan: PipelinePlan,
        config: AdaptiveConfig,
        *,
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
            plan,
            self.catalog,
            config,
            controller,
            limits=limits,
            oracle=oracle,
            obs=obs,
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
        before = self.catalog.meter.snapshot()
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
        stats = ExecutionStats(
            work=self.catalog.meter - before,
            wall_seconds=executor.wall_seconds,
            inner_reorders=executor.inner_reorders,
            driving_switches=executor.driving_switches,
            inner_checks=controller.inner_checks if controller else 0,
            driving_checks=controller.driving_checks if controller else 0,
            check_seconds=controller.check_seconds if controller else 0.0,
            order_history=tuple(executor.order_history),
            events=tuple(executor.events),
            engine=executor.engine_used,
            vector_gate=executor.vector_gate_reason,
            plan_cache=plan_cache,
            plan_feedback=plan_feedback,
            proposed_order=executor.proposed_order,
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
            rows=rows,
            stats=stats,
            plan=plan,
            final_order=tuple(executor.order),
            oracle=oracle,
            trace=tracer,
            metrics=obs.metrics if obs is not None else None,
            samples=(
                tuple(obs.sampler.samples)
                if obs is not None and obs.sampler is not None
                else ()
            ),
            decisions=(
                tuple(obs.audit.decisions)
                if obs is not None and obs.audit is not None
                else ()
            ),
        )

    def _learn(self, entry: CachedPlan, executor: PipelineExecutor) -> None:
        """Keep what a text's first monitored run in its mode learned.

        Reached only when that run completed undisturbed (no injected fault,
        adaptive layer not degraded). Its lesson is the order its checks
        proposed at a finished scan, else the order it ended on: another
        order than it started from is built here, once, into a corrected
        plan; the order it started from keeps the plan it ran. Written only
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
            plan = RuntimeModelBuilder(executor).corrected_plan(order)
        self.plan_cache.write_feedback(
            entry, generation, plan, executor.config.mode
        )

    def enable_concurrent_metering(self) -> ThreadScopedMeter:
        """Route work-unit charges to per-thread meters for serving.

        The catalog and every table share one :class:`WorkMeter`, so
        concurrent executions on worker threads would interleave charges
        and corrupt per-query ``meter - before`` deltas. This swaps the
        shared meter for a :class:`ThreadScopedMeter` facade (idempotent;
        returns the installed facade): the query server wraps each
        execution in ``meter.scoped()`` and gets exact per-query work
        accounting, while unscoped threads keep charging the base meter.
        """
        meter = self.catalog.meter
        if isinstance(meter, ThreadScopedMeter):
            return meter
        scoped = ThreadScopedMeter(meter)
        self.catalog.meter = scoped
        for name in self.catalog.table_names():
            self.catalog.table(name).meter = scoped
        return scoped
