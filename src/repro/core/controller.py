"""The adaptation controller: when to check, what to change.

Ties the pieces together at the two safe points the executor exposes:

* ``on_suffix_depleted(i)`` — the Fig 2 trigger: when the leg at position
  ``i`` has consumed a batch of ``c`` incoming rows and its suffix is
  depleted, read the run's live model and possibly permute the suffix;
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
from repro.core.reorder import decide_inner_order
from repro.errors import ExecutionError, ReproError
from repro.obs.recorder import DecisionRecord, granularity_of, rank_terms_for
from repro.obs.timeseries import snapshot_legs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executor.pipeline import PipelineRun

logger = logging.getLogger(__name__)


class AdaptationController:
    """Implements the executor's :class:`AdaptationHooks` protocol."""

    def __init__(self, config: AdaptiveConfig) -> None:
        self.config = config
        self.pipeline: "PipelineRun | None" = None
        # Experiment counters.
        self.inner_checks = 0
        self.driving_checks = 0
        # Wall time inside the two hooks, gates excluded.
        self.check_seconds = 0.0

    def attach(self, pipeline: "PipelineRun") -> None:
        self.pipeline = pipeline

    def _require_pipeline(self) -> "PipelineRun":
        if self.pipeline is None:
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
        leg.incoming_since_check = 0
        self.inner_checks += 1
        self._check(pipeline, position)

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
        pipeline.driving_rows_since_check = 0
        self.driving_checks += 1
        return self._check(pipeline, 0)

    def _check(self, pipeline: "PipelineRun", position: int) -> bool:
        """The check of the suffix from *position* (Fig 2), or of the
        driving leg at 0 (Fig 3), on the run's live model; whether it
        applied a change. One proposed at a finished scan is a lesson for
        the next execution, audited as the kept check it is."""
        started = perf_counter()
        pipeline.catalog.meter.charge_reorder_check()
        order = tuple(pipeline.order)
        obs = pipeline.obs
        audit_costs: dict[str, float] | None = (
            {} if not position and obs is not None and obs.audit else None
        )
        try:
            if pipeline.catalog.faults is not None:
                pipeline.catalog.faults.fire("controller")
            provider = pipeline.model()
            if position:
                suffix = decide_inner_order(pipeline, provider, position)
                found = None if suffix is None else [*order[:position], *suffix]
            else:
                found = decide_driving_switch(
                    pipeline, provider, self.config, audit_costs=audit_costs
                )
            new_order = None if found is None else tuple(found)
            if new_order is not None and pipeline.scan_finished:
                pipeline.proposed_order = new_order
                new_order = None
            costs = None if new_order is None else (
                cost_of_order(order, provider),
                cost_of_order(new_order, provider),
            )
            if obs is not None:
                self._observe(
                    pipeline, provider, position, new_order, costs, audit_costs
                )
            if new_order is None:
                return False
            kind = EventKind.INNER_REORDER if position else EventKind.DRIVING_SWITCH
            rows = pipeline.driving_rows_total
            pipeline.events.append(
                AdaptationEvent(kind, rows, order, new_order, *costs, position)
            )
            if position:
                pipeline.apply_inner_order(position, list(new_order[position:]))
            else:
                pipeline.apply_driving_switch(list(new_order))
            return True
        except ReproError as exc:
            # Context for degraded-mode events: which check, which leg,
            # which position, and how far execution had progressed.
            now = pipeline.order
            where = (
                f"inner-reorder check failed at position {position} (leg"
                if position
                else "driving-switch check failed (driving leg"
            )
            raise ExecutionError(
                f"{where} {now[position]!r}, order {tuple(now)}, "
                f"{pipeline.driving_rows_total} driving rows)"
            ) from exc
        finally:
            self.check_seconds += perf_counter() - started

    def _observe(
        self,
        pipeline: "PipelineRun",
        provider,
        position: int,
        new_order: tuple[str, ...] | None,
        costs: tuple[float, float] | None,
        candidate_costs: dict[str, float] | None,
    ) -> None:
        """Feed one check to the query's observation, once.

        Runs only at the (already metered) check points and reads only the
        memoized cost model + monitor windows — wall-clock cost, zero
        WorkMeter delta. Capture depth follows the decision: **applied**
        checks (the rare ones ``repro replay`` must explain) record the
        full Eq (3) rank terms, the monitors' window estimates, and the
        cost comparison; kept **driving** checks under a flight recorder
        (also rare — once per ``check_frequency`` driving rows) keep the
        candidate cost table, a free side product of
        :func:`decide_driving_switch`. Every other kept check — thousands
        per adaptive query — takes the tuple-cheap
        :meth:`~repro.obs.recorder.QueryObservability.on_kept` path, which
        is what holds the always-on recorder inside its ≤5% wall budget.
        Advisory like the monitors: a failure here must never degrade or
        abort the query, so it leaves the record without the model inputs.
        """
        obs = pipeline.obs
        check = "inner" if position else "driving"
        if new_order is None and candidate_costs is None:
            obs.on_kept(pipeline, check, position)
            return
        order = tuple(pipeline.order)
        applied = new_order is not None
        record = DecisionRecord(
            check=check,
            applied=applied,
            driving_rows=pipeline.driving_rows_total,
            position=position,
            order_before=order,
            order_after=new_order,
            candidate_costs=dict(candidate_costs or {}),
            monitor_granularity=granularity_of(pipeline.engine_used),
        )
        try:
            if check == "driving" and candidate_costs:
                # Side product of decide_driving_switch — already paid for.
                record.estimated_current_cost = candidate_costs.get(order[0])
                if applied:
                    record.estimated_new_cost = candidate_costs.get(new_order[0])
            elif applied:
                record.estimated_current_cost, record.estimated_new_cost = costs
            if applied:
                record.rank_terms = rank_terms_for(
                    list(order), max(position, 1), provider
                )
                record.window = snapshot_legs(pipeline)
        except Exception:  # pragma: no cover - advisory-only capture
            logger.exception("decision-audit capture failed (ignored)")
        obs.on_decision(pipeline, record)
