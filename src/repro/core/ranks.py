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

from repro.core.config import HashProbePolicy
from repro.core.positions import PositionRegistry
from repro.optimizer.cost import cost_of_order
from repro.optimizer.params import ModelProvider, TableModel
from repro.optimizer.plans import PipelinePlan
from repro.storage.cursor import IndexScanCursor, TableScanCursor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executor.access import RuntimeLeg
    from repro.executor.pipeline import PipelineExecutor

_CORRECTION_FLOOR = 1e-3
_CORRECTION_CEIL = 1e3


def _clamp(value: float, low: float, high: float) -> float:
    return max(min(value, high), low)


def remaining_scan_fraction(
    cursor: TableScanCursor | IndexScanCursor,
) -> float:
    """Fraction of a driving scan's qualifying entries not yet consumed.

    Reads only index/heap metadata (entry counts after the cursor's
    position) — the analogue of a B-tree key-range estimate, never touching
    row data.

    A partition-bounded cursor (``partition_entry_count`` set by the
    parallel partitioner) is measured against its own slice: the fraction is
    computed from entries yielded within the bounds, so each worker's cost
    model reasons about *its* remaining work rather than the whole scan's.
    """
    partition_total = getattr(cursor, "partition_entry_count", None)
    if partition_total is not None:
        if partition_total == 0:
            return 0.0
        remaining = partition_total - cursor.entries_yielded
        return max(remaining, 0) / partition_total
    if isinstance(cursor, TableScanCursor):
        total = len(cursor.table)
        if total == 0:
            return 0.0
        consumed = 0 if cursor.last_position is None else cursor.last_position[0] + 1
        return max(total - consumed, 0) / total
    index = cursor.index
    total = 0
    remaining = 0
    after = cursor.last_position
    for key_range in cursor.ranges:
        total += index.count_range(
            key_range.low,
            key_range.high,
            key_range.low_inclusive,
            key_range.high_inclusive,
        )
        remaining += index.count_range_after(
            after,
            key_range.low,
            key_range.high,
            key_range.low_inclusive,
            key_range.high_inclusive,
        )
    if total == 0:
        return 0.0
    return remaining / total


def measured_combined_local_selectivity(leg: "RuntimeLeg") -> float | None:
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
    product = 1.0
    saw_data = False
    for slot, (predicate, _) in enumerate(leg.local_tests):
        if predicate is pushed:
            continue
        evaluated, passed = leg.local_counts[slot]
        if evaluated == 0:
            return None
        product *= passed / evaluated
        saw_data = True
    if not saw_data:
        return 1.0
    return product


class RuntimeModelBuilder:
    """Builds a :class:`ModelProvider` snapshot from live pipeline state."""

    def __init__(self, pipeline: "PipelineExecutor") -> None:
        self.pipeline = pipeline
        self.config = pipeline.config

    # ------------------------------------------------------------------
    def refresh_join_selectivities(self) -> None:
        """Fold Eq (7) measurements into the live selectivity table."""
        warmup = self.config.warmup_rows
        for position, alias in enumerate(self.pipeline.order):
            if position == 0:
                continue
            leg = self.pipeline.legs[alias]
            config = leg.probe_config
            if config is None or config.access_predicate is None:
                continue
            if config.hash_column is not None:
                # Hash buckets are pre-filtered by local predicates, so the
                # match rate is sel_jp * sel_locals — not a clean Eq (7)
                # measurement of the join class.
                continue
            if leg.monitor.lifetime_incoming < warmup:
                continue
            measured = leg.monitor.index_join_selectivity(leg.base_cardinality)
            if measured is None or measured <= 0:
                continue
            predicate = config.access_predicate
            class_id = self.pipeline.join_graph.class_id(
                predicate.left, predicate.left_column
            )
            if class_id is not None:
                self.pipeline.class_selectivities[class_id] = measured

    # ------------------------------------------------------------------
    def _remaining_fraction(self, alias: str) -> float:
        pipeline = self.pipeline
        registry: PositionRegistry = pipeline.registry
        if alias == pipeline.order[0] and pipeline.driving_cursor is not None:
            return remaining_scan_fraction(pipeline.driving_cursor)
        frozen = registry.frozen_scan(alias)
        if frozen is not None:
            return remaining_scan_fraction(frozen.cursor)
        return 1.0

    def _index_selectivity(self, alias: str) -> float:
        """S_LPI of *alias*'s driving access path.

        Computed from index metadata (entry counts over the spec's key
        ranges) rather than the optimizer's uniformity guess — the run-time
        equivalent of a B-tree key-range estimate, which every commercial
        engine can produce without touching row data. Falls back to the
        optimizer prior when the index is unavailable.
        """
        leg = self.pipeline.legs[alias]
        cached = getattr(leg, "_slpi_metadata", None)
        if cached is not None:
            return cached
        spec = leg.plan_leg.driving
        value = leg.plan_leg.estimates.sel_local_index
        if spec.index_column is not None and spec.ranges:
            index = leg.indexes.get(spec.index_column)
            if index is not None and leg.base_cardinality > 0:
                qualified = sum(
                    index.count_range(
                        r.low, r.high, r.low_inclusive, r.high_inclusive
                    )
                    for r in spec.ranges
                )
                value = qualified / leg.base_cardinality
        leg._slpi_metadata = value
        return value

    def _local_selectivities(self, alias: str) -> tuple[float, float]:
        """(S_LPI, S_LPR) for *alias*, preferring monitored values."""
        pipeline = self.pipeline
        leg = pipeline.legs[alias]
        estimates = leg.plan_leg.estimates
        sel_index = self._index_selectivity(alias)
        if alias == pipeline.order[0]:
            # Driving leg: S_LPI from index metadata, S_LPR from the scan
            # monitor once warm (Sec 4.3.1/4.3.3).
            monitor = leg.driving_monitor
            measured = monitor.residual_selectivity() if monitor is not None else None
            if (
                measured is not None
                and monitor is not None
                and monitor.entries_scanned >= self.config.warmup_rows
            ):
                return sel_index, measured
            return sel_index, estimates.sel_local_residual
        warm = (
            leg.local_counts
            and leg.local_counts[0][0] >= self.config.warmup_rows
        )
        if not warm:
            return sel_index, estimates.sel_local_residual
        # S_LPI comes from index metadata (table-wide, exact); only the
        # residual predicates use the probe-time (join-conditional)
        # measurements — see measured_residual_local_selectivity.
        residual = measured_residual_local_selectivity(
            leg, leg.pushed_driving_predicate()
        )
        if residual is None:
            return sel_index, estimates.sel_local_residual
        return sel_index, min(residual, 1.0)

    def _table_model(
        self, alias: str, remaining_fraction: float = 1.0
    ) -> TableModel:
        """*alias*'s uncalibrated model under the current estimates."""
        leg = self.pipeline.legs[alias]
        plan_leg = leg.plan_leg
        sel_index, sel_residual = self._local_selectivities(alias)
        return TableModel(
            alias=alias,
            base_cardinality=leg.base_cardinality,
            sel_local_index=sel_index,
            sel_local_residual=sel_residual,
            local_predicate_count=len(plan_leg.local_predicates),
            indexed_columns=frozenset(leg.indexes),
            driving_kind=plan_leg.driving.kind,
            driving_range_count=max(len(plan_leg.driving.ranges), 1),
            remaining_fraction=remaining_fraction,
            hash_probes=(
                self.config.hash_probe_policy is not HashProbePolicy.OFF
            ),
        )

    def corrected_plan(self) -> PipelinePlan:
        """End of run: the executed plan as this run measured it.

        The order the run ended on, every leg's ``(S_LPI, S_LPR)`` as the
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
            pipeline.order,
            {
                alias: (model.sel_local_index, model.sel_local_residual)
                for alias, model in models.items()
                # A dynamically re-chosen access path measures another
                # index's S_LPI than the plan's spec scans.
                if pipeline.legs[alias].plan_leg.driving
                is plan.leg(alias).driving
            },
            pipeline.class_selectivities,
            cost_of_order(pipeline.order, provider),
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
        models._order = pipeline.order
        models._position_of = {
            alias: i for i, alias in enumerate(pipeline.order)
        }
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
        leg = self._legs[alias]
        model = builder._table_model(alias, builder._remaining_fraction(alias))
        position = self._position_of.get(alias, 0)
        if (
            position == 0
            or leg.monitor.lifetime_incoming < self._warmup
        ):
            self[alias] = model
            return model
        jc_measured = leg.monitor.join_cardinality()
        pc_measured = leg.monitor.probe_cost()
        # Evaluate the uncalibrated model at the leg's current
        # position (the model must be visible to inner_params).
        self[alias] = model
        provider = self._provider
        bound = frozenset(self._order[:position])
        jc_model, pc_model = provider.inner_params(alias, bound)
        jc_correction = 1.0
        pc_correction = 1.0
        if jc_measured is not None and jc_model > 0:
            jc_correction = _clamp(
                jc_measured / jc_model,
                _CORRECTION_FLOOR,
                _CORRECTION_CEIL,
            )
        if pc_measured is not None and pc_model > 0:
            pc_correction = _clamp(
                pc_measured / pc_model,
                _CORRECTION_FLOOR,
                _CORRECTION_CEIL,
            )
        if jc_correction == 1.0 and pc_correction == 1.0:
            return model
        calibrated = TableModel(
            alias=model.alias,
            base_cardinality=model.base_cardinality,
            sel_local_index=model.sel_local_index,
            sel_local_residual=model.sel_local_residual,
            local_predicate_count=model.local_predicate_count,
            indexed_columns=model.indexed_columns,
            driving_kind=model.driving_kind,
            driving_range_count=model.driving_range_count,
            remaining_fraction=model.remaining_fraction,
            jc_correction=jc_correction,
            pc_correction=pc_correction,
            hash_probes=model.hash_probes,
        )
        self[alias] = calibrated
        # Replace the uncalibrated memo entry with the corrected
        # value (exact: the correction multiplies last).
        provider._inner_cache[(alias, bound)] = (
            jc_model * jc_correction,
            pc_model * pc_correction,
        )
        return calibrated
