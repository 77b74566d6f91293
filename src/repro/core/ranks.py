"""Run-time cost parameters: the live model the checks read (Sec 4.3).

A monitored run keeps one :class:`RuntimeModel`: a
:class:`~repro.optimizer.params.TableModel` per leg, built once, and one
:class:`~repro.optimizer.params.ModelProvider` whose memo lasts the run.
The machines mark a leg (``LegState.model_moved``) where its inputs move;
a read refreshes only the marked legs, and a class selectivity that moved
marks every leg. The estimation rules are Sec 4.3's:

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

from repro.optimizer.cost import cost_of_order
from repro.optimizer.params import ModelProvider, TableModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executor.access import LegState
    from repro.executor.pipeline import PipelineRun
    from repro.optimizer.plans import PipelinePlan

_CORRECTION_FLOOR = 1e-3
_CORRECTION_CEIL = 1e3


def _clamp(value: float) -> float:
    """*value* as a JC / PC correction: within ``[1e-3, 1e3]``."""
    low, high = _CORRECTION_FLOOR, _CORRECTION_CEIL
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


def _slots_selectivity(local_counts, slots) -> float | None:
    """Product of the monitored pass rates of *slots*; None before data.

    An inner leg's S_LPR is that of the slots of the locals its driving
    spec does not push into the index scan: probe-time measurements are
    conditioned on the join population, which can differ wildly from the
    table-wide distribution (P(model='Golf') among Tokyo owners vs.
    overall), while the pushed predicate's table-wide selectivity is known
    exactly from index metadata (S_LPI).
    """
    product = 1.0
    for slot in slots:
        evaluated, passed = local_counts[slot]
        if evaluated == 0:
            return None
        product *= passed / evaluated
    return product


class RuntimeModel:
    """One monitored run's live model: its legs' models and one provider."""

    def __init__(self, run: "PipelineRun") -> None:
        """Each leg's model at its priors (its plan-fixed
        :class:`~repro.optimizer.params.LegModelParts`, the optimizer's
        S_LPR), refreshed at the first read: a leg starts marked."""
        self.run = run
        self.warmup = run.config.warmup_rows
        models = {}
        for alias, leg in run.legs.items():
            parts = leg.model_parts
            estimates = leg.plan_leg.estimates
            sel_index = parts.sel_local_index
            models[alias] = leg.model = TableModel(
                alias,
                parts.base_cardinality,
                estimates.sel_local_index if sel_index is None else sel_index,
                estimates.sel_local_residual,
                parts.local_predicate_count,
                parts.indexed_columns,
                parts.driving_kind,
                parts.driving_range_count,
            )
        self.provider = ModelProvider(models, run.class_selectivities, run.join_graph)

    def current(self) -> ModelProvider:
        """The provider as the run's monitors stand now."""
        legs = self.run.legs
        order = self.run.order
        # No inner leg moved (none folded, none re-installed): the Eq (7)
        # fold would write what it wrote last time.
        if any(legs[alias].model_moved for alias in order[1:]) and (
            self._fold_join_selectivities()
        ):
            for leg in legs.values():
                leg.model_moved = True
        for position, alias in enumerate(order):
            if legs[alias].model_moved:
                self._refresh(alias, legs[alias], frozenset(order[:position]))
        return self.provider

    def lesson(self, order: tuple[str, ...]) -> "PipelinePlan":
        """The finished run's plan corrected by what it measured, led by
        *order*, at Eq (1) of *order* from its start: nothing consumed, no
        position-bound JC / PC corrections (the models are left so)."""
        provider = self.current()
        for model in provider.models.values():
            model.remaining_fraction = model.jc_correction = model.pc_correction = 1.0
        provider.memo.clear()
        return self.run.plan.corrected(order, provider, cost_of_order(order, provider))

    def _fold_join_selectivities(self) -> bool:
        """Fold Eq (7) measurements into the run's class selectivities, in
        pipeline order; whether one moved."""
        run = self.run
        selectivities = run.class_selectivities
        class_id_of = run.join_graph.class_id
        moved = False
        for alias in run.order[1:]:
            leg = run.legs[alias]
            config = leg.probe_config  # every inner leg's has an access predicate
            if config.hash_column is not None:
                # Hash buckets are pre-filtered by local predicates, so the
                # match rate is sel_jp * sel_locals — not a clean Eq (7)
                # measurement of the join class.
                continue
            monitor = leg.monitor
            if monitor.window.lifetime_samples < self.warmup:
                continue
            measured = monitor.index_join_selectivity(
                leg.model_parts.base_cardinality
            )
            if measured is None or measured <= 0:
                continue
            predicate = config.access_predicate
            class_id = class_id_of(predicate.left, predicate.left_column)
            if class_id is not None and selectivities.get(class_id) != measured:
                selectivities[class_id] = measured
                moved = True
        return moved

    def _refresh(self, alias: str, leg: "LegState", bound: frozenset[str]) -> None:
        """*leg*'s model as its monitors stand (*bound*: the legs before
        it), its memo entries dropped. S_LPR is monitored once warm — the
        scan monitor's for the driving leg (Sec 4.3.1/4.3.3), the residual
        slots' for an inner one — else the optimizer's. An inner leg's
        corrections are its monitored JC / PC over the model's at its
        position, whose memo entry becomes the corrected value (exact: a
        correction multiplies last in ``inner_params``)."""
        model = leg.model
        warmup = self.warmup
        sel_residual = leg.plan_leg.estimates.sel_local_residual
        if not bound:
            monitor = leg.driving_monitor
            if monitor is not None and monitor.entries_scanned >= warmup:
                measured = monitor.residual_selectivity()
                if measured is not None:
                    sel_residual = measured
        elif leg.local_counts and leg.local_counts[0][0] >= warmup:
            measured = _slots_selectivity(
                leg.local_counts, leg.model_parts.residual_slots
            )
            if measured is not None:
                sel_residual = min(measured, 1.0)
        model.sel_local_residual = sel_residual
        scan = None if bound else self.run.scan
        if scan is None:
            scan = self.run.registry.resume_scan(alias)  # frozen, if it drove
        model.remaining_fraction = (
            1.0 if scan is None else remaining_scan_fraction(scan)
        )
        model.jc_correction = model.pc_correction = 1.0
        leg.model_moved = False
        provider = self.provider
        provider.memo.pop(alias, None)
        if not bound or leg.monitor.lifetime_incoming < warmup:
            return  # nothing flows into a driving leg
        measured = leg.monitor.join_cardinality_and_probe_cost()
        if measured is None:
            return
        jc_model, pc_model = provider.inner_params(alias, bound)
        if jc_model > 0:
            model.jc_correction = _clamp(measured[0] / jc_model)
        if pc_model > 0:
            model.pc_correction = _clamp(measured[1] / pc_model)
        provider.memo[alias][bound] = (
            jc_model * model.jc_correction,
            pc_model * model.pc_correction,
        )
