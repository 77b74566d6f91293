"""The adaptation controller: when to check, what to change.

Ties the pieces together at the two safe points the executor exposes:

* ``on_suffix_depleted(i)`` — the Fig 2 trigger: when the leg at position
  ``i`` has consumed a batch of ``c`` incoming rows and its suffix is
  depleted, rebuild run-time models and possibly permute the suffix;
* ``on_pipeline_depleted()`` — the Fig 3 trigger: when the driving leg has
  produced ``c`` rows and the whole pipeline is depleted, compare the
  remaining cost of the current plan against plans led by every other leg
  and possibly switch the driving leg.

Checks charge ``REORDER_CHECK`` work units and monitors charge
``MONITOR_UPDATE`` units, so the Sec 5.4 overhead experiment can read the
adaptation overhead straight off the meter.
"""

from __future__ import annotations

import logging
from time import perf_counter
from typing import TYPE_CHECKING

from repro.core.config import AdaptiveConfig
from repro.core.driving import decide_driving_switch
from repro.core.events import AdaptationEvent, EventKind
from repro.optimizer.cost import cost_of_order
from repro.core.ranks import RuntimeModelBuilder
from repro.core.reorder import decide_inner_order
from repro.errors import ExecutionError, ReproError
from repro.obs.recorder import DecisionRecord, granularity_of, rank_terms_for
from repro.obs.timeseries import snapshot_legs
from repro.optimizer.params import ModelProvider
from repro.storage.cursor import IndexScanCursor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executor.pipeline import PipelineExecutor

logger = logging.getLogger(__name__)


class AdaptationController:
    """Implements the executor's :class:`AdaptationHooks` protocol."""

    def __init__(self, config: AdaptiveConfig) -> None:
        self.config = config
        self.pipeline: "PipelineExecutor | None" = None
        self._builder: RuntimeModelBuilder | None = None
        # Experiment counters.
        self.inner_checks = 0
        self.driving_checks = 0
        # Wall time inside the two hooks, gates excluded.
        self.check_seconds = 0.0
        # One model snapshot per boundary: a kept inner check at position 1
        # leaves the whole pipeline depleted, and until the driving leg
        # produces another row no probe runs, no window folds and no cursor
        # moves — the driving check that follows reads the very state the
        # inner check modelled. ``(driving rows produced, provider)``.
        self._handoff: tuple[int, ModelProvider] | None = None

    def attach(self, pipeline: "PipelineExecutor") -> None:
        self.pipeline = pipeline
        self._builder = RuntimeModelBuilder(pipeline)

    def _require_pipeline(self) -> "PipelineExecutor":
        if self.pipeline is None or self._builder is None:
            raise ExecutionError("controller is not attached to a pipeline")
        return self.pipeline

    # ------------------------------------------------------------------
    # Fig 2: REORDER_INNER_TABLE(i)
    # ------------------------------------------------------------------
    def on_suffix_depleted(self, position: int) -> None:
        config = self.config
        if not config.mode.reorders_inner:
            return
        pipeline = self._require_pipeline()
        order = pipeline.order
        if position >= len(order) - 1:
            return  # a single-leg suffix cannot be permuted
        leg = pipeline.legs[order[position]]
        if leg.incoming_since_check < config.check_frequency:
            return
        started = perf_counter()
        leg.incoming_since_check = 0
        pipeline.catalog.meter.charge_reorder_check()
        self.inner_checks += 1
        self._handoff = None
        assert self._builder is not None
        try:
            if pipeline.catalog.faults is not None:
                pipeline.catalog.faults.fire("controller")
            self._builder.refresh_join_selectivities()
            provider = self._builder.build_provider()
            new_suffix = decide_inner_order(pipeline, provider, position)
            if new_suffix is not None and pipeline.scan_finished:
                # A lesson for the statement's next execution, not a change
                # to this one: audited below as the kept check it is.
                pipeline.proposed_order = tuple(order[:position]) + tuple(
                    new_suffix
                )
                new_suffix = None
            obs = pipeline.obs
            if obs is not None:
                obs.on_check(
                    pipeline,
                    "inner",
                    applied=new_suffix is not None,
                    position=position,
                )
                if obs.audit is not None:
                    if new_suffix is None:
                        # Kept check — the ~per-batch common case. One
                        # tuple append; DecisionRecord envelopes are
                        # materialized lazily off the execution path.
                        try:
                            obs.audit.on_kept(
                                "inner",
                                pipeline.driving_rows_total,
                                position,
                                tuple(pipeline.order),
                                granularity_of(pipeline.engine_used),
                            )
                        except Exception:  # pragma: no cover - advisory
                            logger.exception(
                                "decision-audit capture failed (ignored)"
                            )
                    else:
                        self._audit_check(
                            obs.audit,
                            pipeline,
                            provider,
                            check="inner",
                            position=position,
                            new_order=tuple(pipeline.order[:position])
                            + tuple(new_suffix),
                        )
            if new_suffix is not None:
                old_order = tuple(pipeline.order)
                new_order = tuple(pipeline.order[:position]) + tuple(new_suffix)
                pipeline.record_event(
                    AdaptationEvent(
                        kind=EventKind.INNER_REORDER,
                        driving_rows_produced=pipeline.driving_rows_total,
                        old_order=old_order,
                        new_order=new_order,
                        estimated_current_cost=cost_of_order(old_order, provider),
                        estimated_new_cost=cost_of_order(new_order, provider),
                        position=position,
                    )
                )
                pipeline.apply_inner_order(position, new_suffix)
            elif position == 1 and config.mode.reorders_driving:
                self._handoff = (pipeline.driving_rows_total, provider)
        except ReproError as exc:
            # Context for degraded-mode events: which check, which leg,
            # which position, and how far execution had progressed.
            raise ExecutionError(
                f"inner-reorder check failed at position {position} "
                f"(leg {order[position]!r}, order {tuple(order)}, "
                f"{pipeline.driving_rows_total} driving rows)"
            ) from exc
        finally:
            self.check_seconds += perf_counter() - started

    # ------------------------------------------------------------------
    # Fig 3: REORDER_DRIVING_TABLE()
    # ------------------------------------------------------------------
    def on_pipeline_depleted(self) -> bool:
        config = self.config
        if not config.mode.reorders_driving:
            return False
        pipeline = self._require_pipeline()
        if len(pipeline.order) < 2:
            return False
        if pipeline.driving_rows_since_check < config.check_frequency:
            return False
        cursor = pipeline.driving_cursor
        if (
            config.switch_at_key_boundary
            and isinstance(cursor, IndexScanCursor)
            and cursor.scans_multiple_keys()
            and not cursor.at_key_boundary()
        ):
            # Postpone the check until the current key group drains, so a
            # plain ``key > v`` positional predicate suffices (Sec 4.2).
            # Single-value scans ignore the key order entirely and may
            # switch anywhere (their positional predicate is RID-only).
            return False
        started = perf_counter()
        pipeline.driving_rows_since_check = 0
        pipeline.catalog.meter.charge_reorder_check()
        self.driving_checks += 1
        handoff, self._handoff = self._handoff, None
        assert self._builder is not None
        try:
            if pipeline.catalog.faults is not None:
                pipeline.catalog.faults.fire("controller")
            if handoff is not None and handoff[0] == pipeline.driving_rows_total:
                provider = handoff[1]
            else:
                self._builder.refresh_join_selectivities()
                provider = self._builder.build_provider()
            obs = pipeline.obs
            audit_costs: dict[str, float] | None = (
                {} if obs is not None and obs.audit is not None else None
            )
            new_order = decide_driving_switch(
                pipeline, provider, config, audit_costs=audit_costs
            )
            if new_order is not None and pipeline.scan_finished:
                pipeline.proposed_order = tuple(new_order)
                new_order = None
            if obs is not None:
                obs.on_check(
                    pipeline, "driving", applied=new_order is not None
                )
                if obs.audit is not None:
                    self._audit_check(
                        obs.audit,
                        pipeline,
                        provider,
                        check="driving",
                        position=0,
                        new_order=(
                            None if new_order is None else tuple(new_order)
                        ),
                        candidate_costs=audit_costs,
                    )
            if new_order is None:
                return False
            old_order = tuple(pipeline.order)
            pipeline.record_event(
                AdaptationEvent(
                    kind=EventKind.DRIVING_SWITCH,
                    driving_rows_produced=pipeline.driving_rows_total,
                    old_order=old_order,
                    new_order=tuple(new_order),
                    estimated_current_cost=cost_of_order(old_order, provider),
                    estimated_new_cost=cost_of_order(tuple(new_order), provider),
                )
            )
            pipeline.apply_driving_switch(new_order)
        except ReproError as exc:
            raise ExecutionError(
                f"driving-switch check failed (driving leg "
                f"{pipeline.order[0]!r}, order {tuple(pipeline.order)}, "
                f"{pipeline.driving_rows_total} driving rows)"
            ) from exc
        finally:
            self.check_seconds += perf_counter() - started
        return True

    def _audit_check(
        self,
        audit,
        pipeline: "PipelineExecutor",
        provider,
        *,
        check: str,
        position: int,
        new_order: tuple[str, ...] | None,
        candidate_costs: dict[str, float] | None = None,
    ) -> None:
        """Feed one check's rank-rule inputs to the flight recorder.

        Runs only at the (already metered) check points and reads only the
        memoized cost model + monitor windows — wall-clock cost, zero
        WorkMeter delta. Capture depth follows the decision: **applied**
        checks (the rare ones ``repro replay`` must explain) record the
        full Eq (3) rank terms, the monitors' window estimates, and the
        cost comparison; kept **driving** checks (also rare — once per
        ``check_frequency`` driving rows) keep the candidate cost table,
        a free side product of :func:`decide_driving_switch`. Kept
        *inner* checks — thousands per adaptive query — never reach this
        method at all: they take the tuple-cheap
        :meth:`~repro.obs.recorder.FlightRecording.on_kept` path, which
        is what holds the always-on recorder inside its ≤5% wall budget.
        Advisory like the monitors: a failure here must never degrade or
        abort the query, so everything is swallowed.
        """
        try:
            order = list(pipeline.order)
            applied = new_order is not None
            current_cost: float | None = None
            new_cost: float | None = None
            if check == "driving" and candidate_costs:
                # Side product of decide_driving_switch — already paid for.
                current_cost = candidate_costs.get(order[0])
                new_cost = (
                    candidate_costs.get(new_order[0]) if applied else None
                )
            elif applied:
                current_cost = cost_of_order(tuple(order), provider)
                new_cost = cost_of_order(tuple(new_order), provider)
            audit.on_decision(
                DecisionRecord(
                    check=check,
                    applied=applied,
                    driving_rows=pipeline.driving_rows_total,
                    position=position,
                    order_before=tuple(order),
                    order_after=new_order,
                    rank_terms=(
                        rank_terms_for(order, max(position, 1), provider)
                        if applied
                        else ()
                    ),
                    candidate_costs=dict(candidate_costs or {}),
                    estimated_current_cost=current_cost,
                    estimated_new_cost=new_cost,
                    window=snapshot_legs(pipeline) if applied else {},
                    monitor_granularity=granularity_of(pipeline.engine_used),
                )
            )
        except Exception:  # pragma: no cover - advisory-only capture
            logger.exception("decision-audit capture failed (ignored)")
