"""The pipelined indexed nested-loop join: the run both machines share,
and the row store's scalar machine.

A run (:class:`PipelineRun`) owns the mutation primitives
(:meth:`~PipelineRun.apply_inner_order`,
:meth:`~PipelineRun.apply_driving_switch`) and the state they mutate;
*deciding* when and how to use them is the controller's job, so a
``NONE``-mode run simply never mutates anything. A primitive installs, for
every leg it moved, the entry of the statement's step memo
(:func:`memo_step`) for where the leg now is. The scalar machine
(:class:`PipelineExecutor`), the oracle the engine
(:mod:`repro.executor.batch`) is held to, is an explicit state machine
over leg positions rather than nested generators, because the adaptive
layer must be able to permute the pipeline *between* rows:

* position 0 holds the driving cursor; position ``i`` holds the iterator of
  the inner leg's matches for the current outer row;
* when the iterator at position ``i`` is exhausted, control moves back to
  ``i - 1`` — at that exact moment every leg at position >= ``i`` is in the
  paper's *depleted state* (Sec 4.1), and the executor offers the suffix to
  the adaptation controller for reordering;
* when control returns to position 0, the whole pipeline is depleted and the
  controller may switch the driving leg (Sec 4.2).
"""

from __future__ import annotations

import time
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, NamedTuple, Protocol

from repro.catalog.catalog import Catalog
from repro.core.config import AdaptiveConfig, ReorderMode
from repro.core.events import AdaptationEvent, EventKind
from repro.core.monitor import DrivingMonitor
from repro.core.positions import PositionRegistry
from repro.core.ranks import RuntimeModel
from repro.errors import ExecutionError
from repro.executor.access import (
    Binding, Cursor, LegState, RuntimeLeg, bind_local_tests, compile_probe,
    driving_index,
)
from repro.executor.vector import cascade_start, held_by, leg_step
from repro.optimizer.params import LegModelParts, ModelProvider, leg_model_parts
from repro.optimizer.plans import PipelinePlan
from repro.robustness.guard import describe_failure
from repro.robustness.limits import ExecutionLimits, LimitEnforcer
from repro.robustness.oracle import InvariantOracle
from repro.storage.backend import COLUMNAR_BACKEND
from repro.storage.counters import WorkMeter
from repro.storage.cursor import IndexScanCursor, TableScanCursor
from repro.storage.table import Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.recorder import QueryObservability


class AdaptationHooks(Protocol):
    """What the executor expects from an adaptation controller."""

    def on_suffix_depleted(self, position: int) -> None:
        """Legs at positions >= *position* are depleted; may reorder them."""
        ...

    def on_pipeline_depleted(self) -> bool:
        """Whole pipeline depleted (before the next driving row).

        Returns True when the driving leg was switched (the executor then
        restarts its iterator stack from the new driving cursor).
        """
        ...


class _NoAdaptation:
    """Inert controller used for ReorderMode.NONE."""

    def on_suffix_depleted(self, position: int) -> None:
        return None

    def on_pipeline_depleted(self) -> bool:
        return False


_NO_ADAPTATION = _NoAdaptation()


class LegBinding(NamedTuple):
    """One leg's table side: what its executions read, not derive."""

    table: Any
    # column -> index of the leg's table, as the catalog holds them
    indexes: Mapping[str, Any]
    # ((predicate, bound row test), ...)
    local_tests: tuple
    # the execution-invariant part of the leg's run-time cost model
    model_parts: LegModelParts
    # the local predicate the driving spec pushes into its index scan
    pushed: Any


class PlanBindings(NamedTuple):
    """The order-free half of a prepared plan: predicates against schemas.

    A feedback plan (:meth:`PipelinePlan.corrected`) shares its base
    plan's: only order, estimates and class selectivities differ there.
    """

    legs: Mapping[str, LegBinding]
    # (alias, row slot) per output column, and the row projector over them
    projection_slots: tuple[tuple[str, int], ...]
    projector: Callable[[Binding], tuple[Any, ...]]
    join_graph: Any
    # Whether the tables are columnar: memo entries carry cascade steps.
    columnar: bool
    # The step memo (:func:`memo_step`): {(alias, frozenset of the aliases
    # bound before it, access predicate): step memo entry}, filled by
    # every execution of the plan and of its feedback plans under this
    # catalog generation, read-only once an entry is in.
    memo: dict


class PreparedPlan(NamedTuple):
    """Everything an execution derives from its plan and the catalog alone.

    Built once per plan and catalog generation
    (:meth:`PipelinePlan.prepared`, by :func:`_prepare`) and installed by
    every execution of the plan, in every mode and on every thread, so
    nothing in here may change after construction: the arrays are
    read-only, the records frozen. The one exception is
    :attr:`summary`, a memo filled once and read-only after.
    """

    # id() of the plan it was built for: a feedback plan starts from its
    # base plan's record and keeps only the bindings of it.
    plan_id: int
    catalog: Catalog
    generation: tuple
    bindings: PlanBindings
    # {inner alias: step memo entry} of the plan's order under its class
    # selectivities: the starting probe program.
    program: Mapping[str, Any]
    # The cascade's start (:func:`~repro.executor.vector.cascade_start`):
    # the program's assembled steps and column takers plus the fresh
    # driving walk; None on a row database.
    cascade: Any
    # One memo slot: ``[(final legs, legs summary)]`` of an unmonitored
    # run, which ends as this record describes it (empty until the flight
    # recorder first reads one: obs.recorder.QueryObservability.finish).
    summary: list


def _bind_plan(plan: PipelinePlan, catalog: Catalog) -> PlanBindings:
    legs = {}
    for alias, leg in plan.legs.items():
        table = catalog.table(leg.table_name)
        indexes = catalog.indexes_of(leg.table_name)
        legs[alias] = LegBinding(
            table,
            indexes,
            bind_local_tests(leg, table),
            leg_model_parts(leg, table, indexes),
            leg.driving.pushed(leg.local_predicates),
        )
    slots = tuple(
        (output.alias, legs[output.alias].table.schema.position_of(output.column))
        for output in plan.projection
    )

    def project(binding: Binding) -> tuple[Any, ...]:
        return tuple(binding[alias][slot] for alias, slot in slots)

    return PlanBindings(
        legs=legs,
        projection_slots=slots,
        projector=project,
        join_graph=plan.query.join_graph(),
        columnar=catalog.backend is COLUMNAR_BACKEND,
        memo={},
    )


def _prepare(
    plan: PipelinePlan,
    catalog: Catalog,
    generation: tuple,
    bindings: PlanBindings | None,
) -> PreparedPlan:
    """*plan*'s prepared record under *generation* (see :class:`PreparedPlan`).

    The probe program is the step memo's entries for the plan's order
    under its class selectivities; on a columnar database the cascade's
    start is assembled from them, with a fresh driving scan.
    """
    if bindings is None:
        bindings = _bind_plan(plan, catalog)
    order = plan.order
    graph = bindings.join_graph

    def sel_of(predicate) -> float:
        return _class_selectivity(graph, plan.class_selectivities, predicate)

    program = {
        order[position]: memo_step(bindings, order, position, sel_of)
        for position in range(1, len(order))
    }
    return PreparedPlan(
        plan_id=id(plan),
        catalog=catalog,
        generation=generation,
        bindings=bindings,
        program=program,
        cascade=(
            cascade_start(plan, program, bindings) if bindings.columnar else None
        ),
        summary=[],
    )


def memo_step(bindings: PlanBindings, order, position: int, sel_of: Callable) -> Any:
    """The step memo entry of the leg at *position* of *order*, built on a
    miss (:func:`~repro.executor.access.compile_probe`, and on a columnar
    database :func:`~repro.executor.vector.leg_step`). Its access
    predicate is the most selective under *sel_of* of the join predicates
    available with the legs before it bound: of those the leg indexes, or
    of all for a hash probe when it indexes none."""
    alias = order[position]
    bound = frozenset(order[:position])
    available = bindings.join_graph.available_predicates(alias, bound)
    indexes = bindings.legs[alias].indexes
    indexed = [p for p in available if p.column_of(alias) in indexes]
    access = min(indexed or available, key=sel_of) if available else None
    key = (alias, bound, access)
    step = bindings.memo.get(key)
    if step is None:
        try:
            if access is None:
                raise ExecutionError(
                    f"leg {alias!r} has no available join predicate; "
                    "the order is disconnected"
                )
            config = compile_probe(alias, bindings.legs, available, access)
        except ExecutionError as exc:
            raise ExecutionError(
                f"probe compilation failed for leg {alias!r} at position "
                f"{position} of order {tuple(order)}"
            ) from exc
        step = bindings.memo[key] = leg_step(
            alias, config, bindings.legs if bindings.columnar else None
        )
    return step


def held_arrays(plan: PipelinePlan, catalog: Catalog) -> list[tuple[str, Any]]:
    """``(table name, array)`` per numpy array *plan*'s prepared record keeps
    alive under *catalog*'s generation: every entry of its step memo
    (:func:`~repro.executor.vector.held_by`) and its cascade start's
    driving walk (by driving table). Builds nothing: a plan no execution
    has prepared holds none.
    """
    record = plan.__dict__.get("_prepared")
    if (
        record is None
        or record.plan_id != id(plan)
        or record.catalog is not catalog
        or record.generation != catalog.generation()
        or record.cascade is None
    ):
        return []
    legs = record.bindings.legs
    held = [
        pair for step in list(record.bindings.memo.values()) for pair in held_by(step, legs)
    ]
    walk = record.cascade[1]
    driving = legs[plan.order[0]].table.name
    held += [
        (driving, array)
        for array in (walk.rids, walk.alive, walk.survivor_at)
        if array is not None
    ]
    return held


def _class_selectivity(graph, class_selectivities, predicate) -> float:
    """A (possibly derived) join predicate's selectivity from its class."""
    class_id = graph.class_id(predicate.left, predicate.left_column)
    if class_id is None:
        return 0.01
    return class_selectivities.get(class_id, 0.01)


def starting_legs(
    plan: PipelinePlan, prepared: PreparedPlan, make: Callable = LegState
) -> dict[str, LegState]:
    """Legs of *plan*'s order as its prepared record starts them: the
    record's probe program installed, nothing run. *make* builds a leg from
    its plan leg and binding (the default: unmonitored legs, as an
    unmonitored run ends)."""
    bound = prepared.bindings.legs
    legs = {alias: make(plan.legs[alias], bound[alias]) for alias in plan.order}
    for alias, step in prepared.program.items():
        legs[alias].install_probe(step.config)
    return legs


class PipelineRun:
    """One execution of a plan on either machine: counters, clock and —
    once :meth:`_adapting` made it a run that can change its plan — the
    state a check reads and mutates. A machine brings its legs, its loop
    and how it opens a fresh driving scan (``_open_scan``)."""

    # What a run counts and records, read as these defaults until the run
    # writes its own (a run that never reorders writes no reorder count).
    inner_reorders = 0
    driving_switches = 0
    driving_rows_since_check = 0
    driving_rows_total = 0
    rows_emitted = 0
    wall_seconds = 0.0
    # This run's work delta (set when it stops), and the meter snapshot at
    # its start (lets the observability sampler attribute work units to
    # points in time).
    work: WorkMeter | None = None
    meter_before: WorkMeter | None = None
    _started = False
    # Smallest pipeline position whose suffix is currently depleted
    # (0 = whole pipeline); None while a row is bound below the suffix.
    # This is the machine-checkable form of the paper's depleted-state
    # precondition — the invariant oracle reads it before permutations.
    depleted_from: int | None = None
    _enforcer: LimitEnforcer | None = None
    # Which execution engine ran this query: "scalar" (the row store's
    # oracle), "vector" (static columnar cascade) or "vector-adaptive"
    # (chunked adaptive cascade). Surfaced on ExecutionStats.engine and the
    # flight record.
    engine_used = "scalar"
    # Set by ``Database`` on a run it will learn from (a text's first
    # monitored run in its mode) and read by the engine alone: it still
    # asks its checks at a finished scan (``scan_finished``) — they apply
    # nothing there and leave the order they propose for the write-back.
    learns_at_end = False
    scan_finished = False
    proposed_order: tuple[str, ...] | None = None
    # The driving scan being read (a cursor, or the engine's walk); None
    # before the run opens one.
    scan: Any = None
    # The run's live cost model (core.ranks), built at its first read.
    _model: RuntimeModel | None = None

    def __init__(
        self,
        plan: PipelinePlan,
        catalog: Catalog,
        config: AdaptiveConfig | None = None,
        controller: AdaptationHooks | None = None,
        limits: ExecutionLimits | None = None,
        oracle: InvariantOracle | None = None,
        obs: QueryObservability | None = None,
        generation: tuple | None = None,
    ) -> None:
        """*generation* is the catalog's, when the caller already read it
        (``Database.execute`` does, for its plan-cache lookup). What the
        run reads is built here, outside its clock."""
        self.plan = plan
        self.catalog = catalog
        self.config = config if config is not None else AdaptiveConfig(mode=ReorderMode.NONE)
        self.controller: AdaptationHooks = (
            controller if controller is not None else _NO_ADAPTATION
        )
        self.limits = limits
        self.oracle = oracle
        self.obs = obs
        self.prepared: PreparedPlan = plan.prepared(catalog, _prepare, generation)
        order = plan.order
        self.order: list[str] = list(order)
        self.order_history: list[tuple[str, ...]] = [order]
        # Applied adaptation decisions, in order (core.events).
        self.events: list = []
        self.class_selectivities = plan.class_selectivities

    def _adapting(self, leg_class: type, **leg_args: Any) -> None:
        """Make this a run that can change its plan: *leg_class* legs (and
        the machine's own *leg_args*) as the record starts them, its own
        live selectivities, a position registry."""
        window = self.config.history_window if self.config.mode.monitors else None
        # {alias: LegFlow} the run counts its row flow in: here its legs.
        make = partial(
            leg_class, history_window=window,
            degrade_hook=self._record_monitor_degraded, **leg_args,
        )
        self.flows = self.legs = starting_legs(self.plan, self.prepared, make)
        # {inner alias: step memo entry} of the pipeline as it stands.
        self.program = dict(self.prepared.program)
        # Live join selectivities, keyed by column equivalence class: start
        # from optimizer estimates, refined from monitored values (Eq 7).
        self.class_selectivities: dict[int, float] = dict(self.class_selectivities)
        self.registry = PositionRegistry()
        # How many times each leg has been switched *away from* while
        # driving; feeds the escalating anti-thrash penalty.
        self.abandon_counts: dict[str, int] = {}

    @property
    def join_graph(self) -> Any:
        return self.prepared.bindings.join_graph

    def model(self) -> ModelProvider:
        """The run's live cost model as its monitors stand now, what a
        check reads (:class:`~repro.core.ranks.RuntimeModel`: built at the
        first read, refreshed where its inputs moved since)."""
        if self._model is None:
            self._model = RuntimeModel(self)
        return self._model.current()

    def lesson(self, order: tuple[str, ...]) -> PipelinePlan:
        """The plan this finished run learned, led by *order*: its live
        model's (:meth:`~repro.core.ranks.RuntimeModel.lesson`)."""
        if self._model is None:
            self._model = RuntimeModel(self)
        return self._model.lesson(order)

    def predicate_selectivity(self, predicate) -> float:
        """Live selectivity estimate of a (possibly derived) join predicate."""
        return _class_selectivity(
            self.join_graph, self.class_selectivities, predicate
        )

    def _install_probes(self, start_position: int) -> None:
        """Install, for every leg from *start_position* on, the step memo's
        entry for where the leg now is (:func:`memo_step`, under the live
        class selectivities): its probe, an empty check count, a reset
        monitor when its access predicate changed (the old windowed
        counters do not describe the new access pattern), and the
        positional predicate of a frozen leg."""
        order = self.order
        bindings = self.prepared.bindings
        for position in range(start_position, len(order)):
            alias = order[position]
            step = memo_step(bindings, order, position, self.predicate_selectivity)
            leg = self.legs[alias]
            previous = leg.probe_config
            leg.install_probe(step.config)
            leg.model_moved = True
            if previous is not None and previous.access_predicate != (
                step.config.access_predicate
            ):
                leg.monitor.reset()
            leg.positional = self.registry.predicate_for(alias)
            self.program[alias] = step

    def _drive(self, alias: str) -> None:
        """Make *alias* the driving leg: its frozen scan resumed, else a
        fresh one; a new scan monitor, and no positional predicate (the
        scan position already excludes the past)."""
        scan = self.registry.resume_scan(alias)
        self.scan = self._open_scan(alias) if scan is None else scan
        leg = self.legs[alias]
        if self.config.mode.monitors:
            leg.driving_monitor = DrivingMonitor(self.config.history_window)
        leg.positional = None
        leg.model_moved = True

    # ------------------------------------------------------------------
    # Mutation primitives used by the adaptation controller
    # ------------------------------------------------------------------
    def apply_inner_order(self, position: int, new_suffix: list[str]) -> None:
        """Reorder the depleted suffix starting at *position* (>= 1)."""
        if self.oracle is not None:
            self.oracle.check_inner_reorder(self, position, new_suffix)
        if position < 1:
            raise ExecutionError("inner reordering cannot move the driving leg")
        current_suffix = self.order[position:]
        if sorted(current_suffix) != sorted(new_suffix):
            raise ExecutionError(
                f"new suffix {new_suffix} is not a permutation of "
                f"{current_suffix}"
            )
        if new_suffix == current_suffix:
            return
        self.order[position:] = new_suffix
        self._install_probes(position)
        self.inner_reorders += 1
        self.order_history.append(tuple(self.order))

    def apply_driving_switch(self, new_order: list[str]) -> None:
        """Switch the driving leg; only legal when the pipeline is depleted."""
        if self.oracle is not None:
            self.oracle.check_driving_switch(self)
        if sorted(new_order) != sorted(self.order):
            raise ExecutionError(
                f"new order {new_order} is not a permutation of {self.order}"
            )
        old_driving = self.order[0]
        new_driving = new_order[0]
        if new_driving == old_driving:
            raise ExecutionError(
                "apply_driving_switch called without a driving change; use "
                "apply_inner_order for inner-leg moves"
            )
        if self.scan is None:
            raise ExecutionError("pipeline has not started")
        # Freeze the outgoing driving scan; from now on the old driving leg
        # carries a positional predicate whenever it serves as an inner leg.
        self.registry.freeze(old_driving, self.scan)
        self.abandon_counts[old_driving] = (
            self.abandon_counts.get(old_driving, 0) + 1
        )
        self.order = list(new_order)
        self._drive(new_driving)
        self._install_probes(1)
        # The new driving leg's inner-probe history is stale with respect to
        # its new role (its scan monitor restarted in _drive).
        self.legs[new_driving].monitor.reset()
        self.driving_switches += 1
        self.driving_rows_since_check = 0
        self.order_history.append(tuple(self.order))

    def _note_retry(self, site: str) -> None:
        """A transient fault at *site* was retried: noted in the query's
        observation where its check stream stands."""
        obs = self.obs
        obs.retries.append((site, len(obs.checks) + len(self.events)))

    def _record_monitor_degraded(self, alias: str, exc: BaseException) -> None:
        """A leg's monitor failed; note it and keep executing (Sec 4.3 is
        advice, not execution — losing a monitor never loses rows)."""
        order = tuple(self.order)
        self.events.append(
            AdaptationEvent(
                kind=EventKind.DEGRADED,
                driving_rows_produced=self.driving_rows_total,
                old_order=order,
                new_order=order,
                estimated_current_cost=0.0,
                estimated_new_cost=0.0,
                reason=(
                    f"monitor failure on leg {alias!r}: {describe_failure(exc)}"
                ),
            )
        )

    @property
    def work_units(self) -> float:
        """Total work units this execution charged (0.0 before completion)."""
        return self.work.total_units if self.work is not None else 0.0

    def _accounted(self, run: Iterator | Callable[[], Any]) -> Any:
        """*run*, run once: limits armed, wall clock and meter delta taken
        around it. A generator (this execution's :meth:`_run`) is accounted
        as it is consumed; a callable is called in this frame
        (``run_to_completion`` of the cascade) and its value returned."""
        if self._started:
            raise ExecutionError("a PipelineExecutor instance runs only once")
        self._started = True
        if self.limits is not None and not self.limits.unlimited:
            self._enforcer = LimitEnforcer(self.limits, self)
        if not callable(run):
            return self._consumed(run)
        self.meter_before = self.catalog.meter.snapshot()
        started_at = time.perf_counter()
        try:
            return run()
        finally:
            self._stop(started_at)

    def _consumed(self, run: Iterator) -> Iterator:
        self.meter_before = self.catalog.meter.snapshot()
        started_at = time.perf_counter()
        try:
            yield from run
        finally:
            self._stop(started_at)

    def _stop(self, started_at: float) -> None:
        self.wall_seconds = time.perf_counter() - started_at
        self.work = self.catalog.meter - self.meter_before


class PipelineExecutor(PipelineRun):
    """The row store's scalar machine: a row at a time, over
    :class:`RuntimeLeg` legs and a storage cursor."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._adapting(
            RuntimeLeg,
            on_retry=self._note_retry if self.obs is not None else None,
            collect_rids=self.oracle is not None,
        )

    def _open_scan(self, alias: str) -> Cursor:
        leg = self.legs[alias]
        index = driving_index(leg.plan_leg, leg.indexes)
        if index is None:
            return TableScanCursor(leg.table)
        return IndexScanCursor(index, leg.plan_leg.driving.ranges)

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Execute the pipeline, yielding projected result rows."""
        return self._accounted(self._run())

    def _driving_rid(self) -> int:
        """RID of the driving row just produced (oracle mode).

        Valid immediately after the driving iterator yields: the cursor's
        last position — ``(rid,)`` for table scans, ``(key, rid)`` for
        index scans — is exactly the yielded row's.
        """
        assert self.scan is not None
        position = self.scan.last_position
        assert position is not None
        return position[-1]

    def _run(self) -> Iterator[tuple[Any, ...]]:
        """The row-at-a-time machine."""
        self._drive(self.order[0])
        leg_count = len(self.order)
        meter = self.catalog.meter
        project = self.prepared.bindings.projector
        limits = self._enforcer
        oracle = self.oracle
        cursor = self.scan
        driving = self.legs[self.order[0]].driving_rows(cursor)
        if leg_count == 1:
            only = self.order[0]
            for row in driving:
                if limits is not None:
                    limits.check_emit()
                self.driving_rows_total += 1
                self.rows_emitted += 1
                meter.charge_row_emitted()
                if oracle is not None:
                    oracle.record_emit({only: self._driving_rid()})
                yield project({only: row})
            return

        binding: Binding = {}
        # RIDs of the currently bound rows, keyed like binding (oracle mode).
        rid_binding: dict[str, int] = {}
        # iterators[i] yields rows for the leg at position i; index 0 is the
        # driving iterator, others are per-outer-row match lists. In oracle
        # mode rid_iterators[i] yields the matching RIDs in lockstep.
        iterators: list[Iterator[Row] | None] = [None] * leg_count
        rid_iterators: list[Iterator[int] | None] = [None] * leg_count
        position = 0
        last = leg_count - 1
        while True:
            if position == 0:
                # Whole pipeline depleted: the controller may switch the
                # driving leg before the next outer row is fetched.
                self.depleted_from = 0
                if self.controller.on_pipeline_depleted():
                    leg_count = len(self.order)
                    last = leg_count - 1
                    binding.clear()
                    rid_binding.clear()
                if self.scan is not cursor:
                    # A switch opened (or resumed) another driving scan.
                    cursor = self.scan
                    driving = self.legs[self.order[0]].driving_rows(cursor)
                if limits is not None:
                    limits.check()
                row = next(driving, None)
                if row is None:
                    return
                self.depleted_from = None
                self.driving_rows_since_check += 1
                self.driving_rows_total += 1
                binding[self.order[0]] = row
                if oracle is not None:
                    rid_binding[self.order[0]] = self._driving_rid()
                position = 1
                leg = self.legs[self.order[1]]
                iterators[1] = iter(leg.probe(binding))
                if oracle is not None:
                    rid_iterators[1] = iter(leg.match_rids)
                continue
            iterator = iterators[position]
            assert iterator is not None
            row = next(iterator, None)
            if row is None:
                # Legs at positions >= position are depleted (Sec 4.1).
                self.depleted_from = position
                self.controller.on_suffix_depleted(position)
                position -= 1
                continue
            self.depleted_from = None
            binding[self.order[position]] = row
            if oracle is not None:
                rid_iterator = rid_iterators[position]
                assert rid_iterator is not None
                rid_binding[self.order[position]] = next(rid_iterator)
            if position == last:
                if limits is not None:
                    limits.check_emit()
                self.rows_emitted += 1
                meter.charge_row_emitted()
                if oracle is not None:
                    oracle.record_emit(rid_binding)
                yield project(binding)
                continue
            position += 1
            leg = self.legs[self.order[position]]
            iterators[position] = iter(leg.probe(binding))
            if oracle is not None:
                rid_iterators[position] = iter(leg.match_rids)

    def run_to_completion(self) -> list[tuple[Any, ...]]:
        """Execute and collect every result row."""
        return list(self.rows())
