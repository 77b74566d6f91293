"""Run-time cost parameters: monitored values fed into the Eq (1) model.

:class:`RuntimeModelBuilder` converts the live pipeline state into the
:class:`~repro.optimizer.params.TableModel` records the shared cost model
consumes, implementing the estimation rules of Sec 4.3:

* join-predicate selectivities are refreshed from Eq (7) measurements
  whenever a leg's index-access predicate has window data;
* each inner leg's (JC, PC) come from the monitors (Eq 11 and measured work
  per incoming row) — carried as *correction factors* against the model's
  prediction at the leg's current position, so that re-evaluating the model
  at a *candidate* position applies the Sec 4.3.4 availability adjustment
  automatically;
* the driving leg's S_LPI is the optimizer prior (Sec 4.3.3: a single index
  scan cannot measure it) and its S_LPR is monitored;
* previously-driving legs carry a ``remaining_fraction`` computed from
  index/heap metadata after their frozen position, so candidate plans are
  compared on *remaining* work (Fig 3 steps 2-3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.positions import PositionRegistry
from repro.optimizer.cost import cost_of_order
from repro.optimizer.params import ModelProvider, TableModel
from repro.optimizer.plans import PipelinePlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executor.access import LegState, RuntimeLeg
    from repro.executor.pipeline import PipelineRun

_CORRECTION_FLOOR = 1e-3
_CORRECTION_CEIL = 1e3


def _clamp(value: float, low: float, high: float) -> float:
    return low if value < low else high if value > high else value


def remaining_scan_fraction(scan) -> float:
    """Fraction of a driving scan's qualifying entries not yet consumed.

    Reads only index/heap metadata (entry counts after the scan's
    position) — the analogue of a B-tree key-range estimate, never touching
    row data. *scan* is a storage cursor or the engine's driving walk: its
    ``range_spans()`` (one RID span for a table scan) and
    ``scan_offset()``, the offset every entry before which was read. For an
    index scan this is ``SortedIndex.count_range`` /
    ``count_range_after(last_position)`` over every key range, with the
    ranges' bounds found once per scan and the position read off the scan
    instead of searched for.
    """
    start = scan.scan_offset()
    total = 0
    remaining = 0
    for lo, hi in scan.range_spans():
        total += max(hi - lo, 0)
        remaining += max(hi - max(lo, start), 0)
    if total == 0:
        return 0.0
    return remaining / total


def measured_combined_local_selectivity(leg: "LegState") -> float | None:
    """Combined selectivity of the leg's local conjunction, from monitoring.

    Local predicates are evaluated in sequence during probes, so the counts
    chain: the product of the conditional pass rates equals the pass rate of
    the whole conjunction — correlations included (the Example 2 property).
    """
    if not leg.local_counts:
        return 1.0
    first_evaluated = leg.local_counts[0][0]
    if first_evaluated == 0:
        return None
    last_passed = leg.local_counts[-1][1]
    return last_passed / first_evaluated


def measured_residual_local_selectivity(
    leg: "RuntimeLeg", pushed: object | None
) -> float | None:
    """Monitored selectivity of the locals *excluding* the pushed predicate.

    Probe-time measurements are conditioned on the join population, which
    can differ wildly from the table-wide distribution (e.g. P(model='Golf')
    among Tokyo owners vs. overall). The pushed predicate's table-wide
    selectivity is known exactly from index metadata, so only the residual
    predicates should use the (conditional) monitored pass rates.
    """
    return _slots_selectivity(
        leg.local_counts,
        [
            slot
            for slot, (predicate, _) in enumerate(leg.local_tests)
            if predicate is not pushed
        ],
    )


def _slots_selectivity(local_counts, slots) -> float | None:
    """Product of the monitored pass rates of *slots*; None before data."""
    product = 1.0
    for slot in slots:
        evaluated, passed = local_counts[slot]
        if evaluated == 0:
            return None
        product *= passed / evaluated
    return product


class RuntimeModelBuilder:
    """Builds a :class:`ModelProvider` snapshot from live pipeline state."""

    def __init__(self, pipeline: "PipelineRun") -> None:
        self.pipeline = pipeline
        self.config = pipeline.config

    # ------------------------------------------------------------------
    def refresh_join_selectivities(self) -> None:
        """Fold Eq (7) measurements into the live selectivity table."""
        pipeline = self.pipeline
        warmup = self.config.warmup_rows
        legs = pipeline.legs
        class_id_of = pipeline.join_graph.class_id
        for alias in pipeline.order[1:]:
            leg = legs[alias]
            config = leg.probe_config
            if config is None or config.access_predicate is None:
                continue
            if config.hash_column is not None:
                # Hash buckets are pre-filtered by local predicates, so the
                # match rate is sel_jp * sel_locals — not a clean Eq (7)
                # measurement of the join class.
                continue
            monitor = leg.monitor
            if monitor.lifetime_incoming < warmup:
                continue
            measured = monitor.index_join_selectivity(
                leg.model_parts.base_cardinality
            )
            if measured is None or measured <= 0:
                continue
            predicate = config.access_predicate
            class_id = class_id_of(predicate.left, predicate.left_column)
            if class_id is not None:
                pipeline.class_selectivities[class_id] = measured

    # ------------------------------------------------------------------
    def _remaining_fraction(self, alias: str) -> float:
        pipeline = self.pipeline
        registry: PositionRegistry = pipeline.registry
        if alias == pipeline.order[0] and pipeline.scan is not None:
            return remaining_scan_fraction(pipeline.scan)
        frozen = registry.frozen_scan(alias)
        if frozen is not None:
            return remaining_scan_fraction(frozen.scan)
        return 1.0

    def _table_model(
        self, alias: str, remaining_fraction: float = 1.0
    ) -> TableModel:
        """*alias*'s uncalibrated model under the current estimates.

        Everything but S_LPR and the remaining fraction is the plan's
        (:class:`~repro.optimizer.params.LegModelParts`). S_LPI is index
        metadata, table-wide and exact; S_LPR is monitored once warm — the
        scan monitor for the driving leg (Sec 4.3.1/4.3.3), the probe-time
        pass rates of the residual predicates for an inner leg (see
        :func:`measured_residual_local_selectivity`) — and the optimizer's
        prior before.
        """
        pipeline = self.pipeline
        leg = pipeline.legs[alias]
        parts = leg.model_parts
        estimates = leg.plan_leg.estimates
        sel_index = parts.sel_local_index
        if sel_index is None:
            sel_index = estimates.sel_local_index
        sel_residual = estimates.sel_local_residual
        warmup = self.config.warmup_rows
        if alias == pipeline.order[0]:
            monitor = leg.driving_monitor
            if monitor is not None and monitor.entries_scanned >= warmup:
                measured = monitor.residual_selectivity()
                if measured is not None:
                    sel_residual = measured
        elif leg.local_counts and leg.local_counts[0][0] >= warmup:
            measured = _slots_selectivity(leg.local_counts, parts.residual_slots)
            if measured is not None:
                sel_residual = min(measured, 1.0)
        return TableModel(
            alias,
            parts.base_cardinality,
            sel_index,
            sel_residual,
            parts.local_predicate_count,
            parts.indexed_columns,
            parts.driving_kind,
            parts.driving_range_count,
            remaining_fraction,
        )

    def corrected_plan(self, order: tuple[str, ...]) -> PipelinePlan:
        """End of run: the executed plan as this run measured it.

        *order* — the one the run ended on, or proposed at its finished
        scan — with every leg's ``(S_LPI, S_LPR)`` as the
        last reorder check would have read them, the Eq (7) join
        selectivities with the final windows folded in, and Eq (1) of that
        order from its start (nothing consumed, no position-bound JC / PC
        corrections) as the cost: what the plan cache keeps as the
        statement's feedback (:meth:`PipelinePlan.corrected`).
        """
        pipeline = self.pipeline
        plan = pipeline.plan
        self.refresh_join_selectivities()
        models = {alias: self._table_model(alias) for alias in pipeline.order}
        provider = ModelProvider(
            models, pipeline.class_selectivities, pipeline.join_graph
        )
        return plan.corrected(
            order,
            {
                alias: (model.sel_local_index, model.sel_local_residual)
                for alias, model in models.items()
            },
            pipeline.class_selectivities,
            cost_of_order(order, provider),
        )

    def build_provider(self) -> ModelProvider:
        """Snapshot the pipeline into a calibrated :class:`ModelProvider`.

        Model construction is **lazy**: a leg's :class:`TableModel` (and its
        calibration against the monitors) is built the first time the order
        search touches that leg. A reorder check at a deep pipeline position
        only evaluates the depleted suffix, so most checks build two or
        three models instead of one per leg — the dominant per-check cost
        in the profile. Calibration stays exact: a leg's calibrated
        (JC, PC) at any position is its uncalibrated value times its
        correction factors (``x * 1.0 == x`` and the correction multiplies
        last in ``inner_params``), so the uncalibrated evaluation done
        during calibration seeds the provider's memo with the corrected
        value instead of being recomputed.
        """
        pipeline = self.pipeline
        models = _LazyModels()
        models._builder = self
        models._warmup = self.config.warmup_rows
        models._legs = pipeline.legs
        # alias -> the legs bound before it in the current order.
        bounds = models._bounds = {}
        bound: frozenset[str] = frozenset()
        for alias in pipeline.order:
            bounds[alias] = bound
            bound = bound | {alias}
        provider = ModelProvider(
            models, pipeline.class_selectivities, pipeline.join_graph
        )
        models._provider = provider
        return provider


class _LazyModels(dict):
    """Per-alias :class:`TableModel` cache behind a :class:`ModelProvider`.

    Defined at module level (rather than a closure inside
    ``build_provider``) so a reorder check does not pay for rebuilding the
    class object; ``build_provider`` binds the snapshot context onto the
    instance instead.
    """

    _builder: "RuntimeModelBuilder"
    _provider: ModelProvider
    _warmup: int

    def __missing__(self, alias: str) -> TableModel:
        builder = self._builder
        model = builder._table_model(alias, builder._remaining_fraction(alias))
        # Visible to inner_params below, which evaluates the uncalibrated
        # model at the leg's current position.
        self[alias] = model
        bound = self._bounds.get(alias)
        if not bound:
            return model  # the driving leg: nothing flows into it
        monitor = self._legs[alias].monitor
        if monitor.lifetime_incoming < self._warmup:
            return model
        measured = monitor.join_cardinality_and_probe_cost()
        if measured is None:
            return model
        jc_measured, pc_measured = measured
        provider = self._provider
        jc_model, pc_model = provider.inner_params(alias, bound)
        jc_correction = 1.0
        pc_correction = 1.0
        if jc_model > 0:
            jc_correction = _clamp(
                jc_measured / jc_model, _CORRECTION_FLOOR, _CORRECTION_CEIL
            )
        if pc_model > 0:
            pc_correction = _clamp(
                pc_measured / pc_model, _CORRECTION_FLOOR, _CORRECTION_CEIL
            )
        if jc_correction == 1.0 and pc_correction == 1.0:
            return model
        # The model is this snapshot's alone until it is returned.
        model.jc_correction = jc_correction
        model.pc_correction = pc_correction
        # Replace the uncalibrated memo entry with the corrected
        # value (exact: the correction multiplies last).
        provider._inner_cache[(alias, bound)] = (
            jc_model * jc_correction,
            pc_model * pc_correction,
        )
        return model
