"""The pipelined indexed nested-loop join executor.

Execution is an explicit state machine over leg positions rather than nested
generators, because the adaptive layer must be able to permute the pipeline
*between* rows:

* position 0 holds the driving cursor; position ``i`` holds the iterator of
  the inner leg's matches for the current outer row;
* when the iterator at position ``i`` is exhausted, control moves back to
  ``i - 1`` — at that exact moment every leg at position >= ``i`` is in the
  paper's *depleted state* (Sec 4.1), and the executor offers the suffix to
  the adaptation controller for reordering;
* when control returns to position 0, the whole pipeline is depleted and the
  controller may switch the driving leg (Sec 4.2).

The executor owns the mutation primitives (:meth:`apply_inner_order`,
:meth:`apply_driving_switch`); *deciding* when and how to use them is the
controller's job, so a ``NONE``-mode run simply never mutates anything.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Protocol

from repro.catalog.catalog import Catalog
from repro.core.config import AdaptiveConfig, ReorderMode
from repro.core.events import AdaptationEvent, EventKind
from repro.core.positions import PositionRegistry
from repro.errors import ExecutionError
from repro.executor.access import (
    Binding,
    Cursor,
    RuntimeLeg,
    bind_local_tests,
)
from repro.obs.observer import QueryObservability
from repro.optimizer.params import LegModelParts, leg_model_parts
from repro.optimizer.plans import PipelinePlan
from repro.robustness.guard import describe_failure
from repro.robustness.limits import ExecutionLimits, LimitEnforcer
from repro.robustness.oracle import InvariantOracle
from repro.storage.counters import WorkMeter
from repro.storage.table import Row


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


class PlanBindings(NamedTuple):
    """What an executor derives from a plan and the catalog alone.

    Built once per plan and catalog generation (:meth:`PipelinePlan.bindings`)
    and shared by every execution of it — concurrently, under the query
    server — so nothing in here may change after construction. The same
    holds for what rides beside it per plan: the starting order's probe
    program (:meth:`PipelinePlan.probe_program`, kept by
    :meth:`PipelineExecutor._compile_all_probes`) and the frozen
    :class:`~repro.executor.access.ProbeConfig` records in it.
    """

    # alias -> ((predicate, compiled row test), ...)
    local_tests: Mapping[str, tuple]
    # (alias, row slot) per output column
    projection_slots: tuple[tuple[str, int], ...]
    # alias -> the execution-invariant part of the leg's run-time cost model
    model_parts: Mapping[str, LegModelParts]


def _bind_plan(plan: PipelinePlan, catalog: Catalog) -> PlanBindings:
    tables = {
        alias: catalog.table(leg.table_name) for alias, leg in plan.legs.items()
    }
    return PlanBindings(
        local_tests={
            alias: bind_local_tests(plan.leg(alias), table)
            for alias, table in tables.items()
        },
        projection_slots=tuple(
            (output.alias, tables[output.alias].schema.position_of(output.column))
            for output in plan.projection
        ),
        model_parts={
            alias: leg_model_parts(
                leg, tables[alias], catalog.indexes_of(leg.table_name)
            )
            for alias, leg in plan.legs.items()
        },
    )


class PipelineExecutor:
    """Runs one pipelined plan, optionally under adaptive reordering."""

    # A monitored leg keeps a per-sample sliding window; the engine's
    # subclass keeps one weighted ring entry per chunk instead.
    aggregated_windows = False

    def __init__(
        self,
        plan: PipelinePlan,
        catalog: Catalog,
        config: AdaptiveConfig | None = None,
        controller: AdaptationHooks | None = None,
        limits: ExecutionLimits | None = None,
        oracle: InvariantOracle | None = None,
        obs: QueryObservability | None = None,
    ) -> None:
        self.plan = plan
        self.catalog = catalog
        self.config = config if config is not None else AdaptiveConfig(mode=ReorderMode.NONE)
        self.controller: AdaptationHooks = (
            controller if controller is not None else _NoAdaptation()
        )
        self.limits = limits
        self.oracle = oracle
        self.obs = obs
        monitoring = self.config.mode.monitors
        bindings: PlanBindings = plan.bindings(catalog, _bind_plan)
        self.projection_slots = bindings.projection_slots
        # What the plan's starting probe program is kept under; None once
        # this execution has compiled a probe.
        self._program_key: PlanBindings | None = bindings
        self.legs = {
            alias: RuntimeLeg(
                plan.leg(alias),
                catalog,
                bindings.local_tests[alias],
                bindings.model_parts[alias],
                self.config.history_window,
                monitoring,
                aggregated_monitor=monitoring and self.aggregated_windows,
            )
            for alias in plan.order
        }
        for leg in self.legs.values():
            leg.degrade_hook = self._record_monitor_degraded
            leg.obs = obs
            if oracle is not None:
                leg.collect_rids = True
        self.order: list[str] = list(plan.order)
        self.schemas = {alias: leg.schema for alias, leg in self.legs.items()}
        # (alias, column) -> row slot, shared across every leg's probe
        # compilation, so repeated recompiles after reorders never
        # re-resolve schema positions.
        self._slot_cache: dict[tuple[str, str], int] = {}
        self.join_graph = plan.query.join_graph()
        # Live join selectivities, keyed by column equivalence class: start
        # from optimizer estimates, refined from monitored values (Eq 7).
        self.class_selectivities: dict[int, float] = dict(
            plan.class_selectivities
        )
        self.registry = PositionRegistry()
        self.last_abandoned_driving: str | None = None
        # How many times each leg has been switched *away from* while
        # driving; feeds the escalating anti-thrash penalty.
        self.abandon_counts: dict[str, int] = {}
        self.driving_cursor: Cursor | None = None
        self._driving_iter: Iterator[Row] | None = None
        self._projector = self._compile_projection()
        # Statistics for the experiments.
        self.inner_reorders = 0
        self.driving_switches = 0
        self.driving_rows_since_check = 0
        self.driving_rows_total = 0
        # Applied adaptation decisions, in order (core.events).
        self.events: list = []
        self.rows_emitted = 0
        self.order_history: list[tuple[str, ...]] = [tuple(self.order)]
        self.wall_seconds = 0.0
        self.work: WorkMeter | None = None  # this run's work delta
        # Meter snapshot at execution start (set by rows()); lets the
        # observability sampler attribute work units to points in time.
        self.meter_before: WorkMeter | None = None
        self._started = False
        # Smallest pipeline position whose suffix is currently depleted
        # (0 = whole pipeline); None while a row is bound below the suffix.
        # This is the machine-checkable form of the paper's depleted-state
        # precondition — the invariant oracle reads it before permutations.
        self.depleted_from: int | None = None
        self._enforcer: LimitEnforcer | None = None
        # Which execution engine ran this query: "scalar" (this class;
        # the engine's screens, gates and mid-query hand-off),
        # "vector" (static columnar cascade) or "vector-adaptive" (chunked
        # adaptive cascade). Surfaced on ExecutionStats.engine and the
        # flight record.
        self.engine_used = "scalar"
        # Why the engine did NOT (or not to its end) run the vectorized
        # cascade: the scalar-fallback screen or first failed gate. None
        # when it ran, and always on this class.
        self.vector_gate_reason: str | None = None
        # What the statement's plan-cache entry knows, set by ``Database``
        # before the run and read by the engine alone: a settled plan runs
        # in slices, and the first monitored run of an entry still asks its
        # checks at a finished scan (``scan_finished``) — they apply
        # nothing there and leave the order they propose for the write-back.
        self.settled = False
        self.learns_at_end = False
        self.scan_finished = False
        self.proposed_order: tuple[str, ...] | None = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _slot_of(self, alias: str, column: str) -> int:
        key = (alias, column)
        slot = self._slot_cache.get(key)
        if slot is None:
            slot = self.schemas[alias].position_of(column)
            self._slot_cache[key] = slot
        return slot

    def _compile_projection(self) -> Callable[[Binding], tuple[Any, ...]]:
        slots = self.projection_slots

        def project(binding: Binding) -> tuple[Any, ...]:
            return tuple(binding[alias][slot] for alias, slot in slots)

        return project

    def _compile_all_probes(self, start_position: int = 1) -> None:
        """Compile the probe of every leg from *start_position* on.

        The first compile of an execution finds the pipeline as the plan
        describes it, and what it compiles is then a function of the plan
        and the catalog generation alone: the first execution of the plan
        publishes it as the plan's probe program, every later one installs
        that. After an applied reorder or switch
        the order and the live class selectivities have moved, and the
        permuted legs are compiled for what they are now.
        """
        key, self._program_key = self._program_key, None
        starting = (
            key is not None
            and start_position == 1
            and tuple(self.order) == self.plan.order
            and self.class_selectivities == self.plan.class_selectivities
        )
        program = self.plan.probe_program(key) if starting else None
        if program is not None:
            for alias, config in program.items():
                leg = self.legs[alias]
                leg.install_probe(config)
                leg.positional = self.registry.predicate_for(alias)
            return
        for position in range(start_position, len(self.order)):
            self._compile_probe_at(position, self.order[position])
        if starting:
            self.plan.keep_probe_program(
                key,
                {alias: self.legs[alias].probe_config for alias in self.order[1:]},
            )

    def predicate_selectivity(self, predicate) -> float:
        """Live selectivity estimate of a (possibly derived) join predicate."""
        class_id = self.join_graph.class_id(predicate.left, predicate.left_column)
        if class_id is None:
            return 0.01
        return self.class_selectivities.get(class_id, 0.01)

    def _compile_probe_at(self, position: int, alias: str) -> None:
        leg = self.legs[alias]
        previous_access = (
            leg.probe_config.access_predicate if leg.probe_config else None
        )
        try:
            leg.compile_probe(
                preceding=self.order[:position],
                graph=self.join_graph,
                schemas=self.schemas,
                sel_of=self.predicate_selectivity,
                slot_of=self._slot_of,
            )
        except ExecutionError as exc:
            raise ExecutionError(
                f"probe compilation failed for leg {alias!r} at position "
                f"{position} of order {tuple(self.order)}"
            ) from exc
        new_access = leg.probe_config.access_predicate if leg.probe_config else None
        if previous_access is not None and new_access != previous_access:
            # The probe semantics changed; old windowed counters no longer
            # describe the new access pattern.
            leg.monitor.reset()
        leg.positional = self.registry.predicate_for(alias)

    def _open_driving(self, alias: str) -> None:
        leg = self.legs[alias]
        resume = self.registry.resume_cursor(alias)
        self.driving_cursor = leg.open_driving_cursor(resume=resume)
        self._driving_iter = leg.driving_rows(self.driving_cursor)
        leg.positional = None  # the cursor position already excludes the past
        if self.obs is not None:
            self.obs.on_leg_open(alias, resume is not None)

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
        self._compile_all_probes(start_position=position)
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
        if self.driving_cursor is None:
            raise ExecutionError("pipeline has not started")
        # Freeze the outgoing driving scan; from now on the old driving leg
        # carries a positional predicate whenever it serves as an inner leg.
        self.registry.freeze(old_driving, self.driving_cursor)
        self.last_abandoned_driving = old_driving
        self.abandon_counts[old_driving] = (
            self.abandon_counts.get(old_driving, 0) + 1
        )
        self.order = list(new_order)
        self._open_driving(new_driving)
        self._compile_all_probes(start_position=1)
        # The new driving leg's inner-probe history is stale with respect to
        # its new role; its scan monitor restarts inside open_driving_cursor.
        self.legs[new_driving].monitor.reset()
        self.driving_switches += 1
        self.driving_rows_since_check = 0
        self.order_history.append(tuple(self.order))

    def record_event(self, event: AdaptationEvent) -> None:
        """Append *event* to the log, notifying observability if armed."""
        self.events.append(event)
        if self.obs is not None:
            self.obs.on_event(event)
            if event.new_order != event.old_order:
                self.obs.on_order_change(event.new_order)

    def _record_monitor_degraded(self, alias: str, exc: BaseException) -> None:
        """A leg's monitor failed; note it and keep executing (Sec 4.3 is
        advice, not execution — losing a monitor never loses rows)."""
        order = tuple(self.order)
        self.record_event(
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
    def total_switches(self) -> int:
        return self.inner_reorders + self.driving_switches

    @property
    def work_units(self) -> float:
        """Total work units this execution charged (0.0 before completion)."""
        return self.work.total_units if self.work is not None else 0.0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Execute the pipeline, yielding projected result rows."""
        if self._started:
            raise ExecutionError("a PipelineExecutor instance runs only once")
        self._started = True
        if self.limits is not None and not self.limits.unlimited:
            self._enforcer = LimitEnforcer(self.limits, self)
        started_at = time.perf_counter()
        before = self.catalog.meter.snapshot()
        self.meter_before = before
        try:
            yield from self._run()
        finally:
            self.wall_seconds = time.perf_counter() - started_at
            self.work = self.catalog.meter - before

    def _driving_rid(self) -> int:
        """RID of the driving row just produced (oracle mode).

        Valid immediately after the driving iterator yields: the cursor's
        last position — ``(rid,)`` for table scans, ``(key, rid)`` for
        index scans — is exactly the yielded row's.
        """
        assert self.driving_cursor is not None
        position = self.driving_cursor.last_position
        assert position is not None
        return position[-1]

    def _run(self) -> Iterator[tuple[Any, ...]]:
        self._open_driving(self.order[0])
        self._compile_all_probes()
        yield from self._run_scalar()

    def _run_scalar(self) -> Iterator[tuple[Any, ...]]:
        """The row-at-a-time machine, on the pipeline ``_run`` opened."""
        leg_count = len(self.order)
        meter = self.catalog.meter
        limits = self._enforcer
        oracle = self.oracle
        if leg_count == 1:
            only = self.order[0]
            assert self._driving_iter is not None
            for row in self._driving_iter:
                if limits is not None:
                    limits.check_emit()
                self.driving_rows_total += 1
                self.rows_emitted += 1
                meter.charge_row_emitted()
                if oracle is not None:
                    oracle.record_emit({only: self._driving_rid()})
                yield self._projector({only: row})
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
                if limits is not None:
                    limits.check()
                assert self._driving_iter is not None
                row = next(self._driving_iter, None)
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
                yield self._projector(binding)
                continue
            position += 1
            leg = self.legs[self.order[position]]
            iterators[position] = iter(leg.probe(binding))
            if oracle is not None:
                rid_iterators[position] = iter(leg.match_rids)

    def run_to_completion(self) -> list[tuple[Any, ...]]:
        """Execute and collect every result row."""
        return list(self.rows())
