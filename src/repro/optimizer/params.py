"""A shared, model-driven implementation of :class:`LegParamsProvider`.

Both the static optimizer and the run-time adaptation controller evaluate
candidate orders through the same Eq (1) machinery; the only difference is
where the per-table numbers come from (catalog statistics vs. run-time
monitors). :class:`TableModel` is that common parameter record and
:class:`ModelProvider` turns a set of them into position-dependent (JC, PC)
pairs, handling join-predicate availability per Sec 4.3.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple

from repro.optimizer.plans import DrivingKind, PlanLeg
from repro.query.joingraph import JoinGraph
from repro.storage import counters as _counters

# Work-unit weights hoisted to module floats: ``inner_params`` runs inside
# every reorder-check's order search, where repeated module-attribute
# lookups through ``counters`` are measurable. The cost expressions below
# mirror the WorkMeter's charges term by term: descend, then per match the
# entry touch, the fetch and the residual evaluations.
_INDEX_DESCEND_COST = _counters.INDEX_DESCEND_COST
_INDEX_ENTRY_COST = _counters.INDEX_ENTRY_COST
_ROW_FETCH_COST = _counters.ROW_FETCH_COST
_PREDICATE_EVAL_COST = _counters.PREDICATE_EVAL_COST
_HASH_PROBE_COST = _counters.HASH_PROBE_COST
_HASH_MATCH_COST = _counters.HASH_MATCH_COST


# Not frozen=True: a frozen dataclass routes every field through
# object.__setattr__, and a monitored run's live model (core.ranks)
# rewrites its legs' run-time fields in place.
@dataclass(slots=True)
class TableModel:
    """Per-table parameters feeding the cost model.

    ``sel_local_index`` / ``sel_local_residual`` are the paper's S_LPI and
    S_LPR (Sec 4.3.1); their product with ``base_cardinality`` is C_LEG
    (Eq 9).
    """

    alias: str
    base_cardinality: float
    sel_local_index: float
    sel_local_residual: float
    local_predicate_count: int
    indexed_columns: frozenset[str]
    driving_kind: DrivingKind
    driving_range_count: int = 1
    # Extra multiplicative factor on the leg's cardinality when driving
    # (used at run time to account for the unscanned remainder of a leg
    # that has already been partially consumed as the driving leg).
    remaining_fraction: float = 1.0
    # Run-time calibration: ratio of the monitored JC/PC to the model's
    # prediction at the leg's *current* position. Carrying the ratio (rather
    # than the raw measurement) lets the Sec 4.3.4 availability adjustment
    # fall out of re-evaluating the model at a candidate position.
    jc_correction: float = 1.0
    pc_correction: float = 1.0

    @property
    def sel_local(self) -> float:
        return self.sel_local_index * self.sel_local_residual

    @property
    def leg_cardinality(self) -> float:
        return self.base_cardinality * self.sel_local


class LegModelParts(NamedTuple):
    """What a leg's run-time :class:`TableModel` holds that no execution moves.

    Read off the plan leg, its table and its indexes, so it rides with the
    cached plan's bindings; a run's live model adds only what the monitors
    measure (S_LPR, the remaining fraction, the JC / PC corrections).
    """

    base_cardinality: int
    local_predicate_count: int
    indexed_columns: frozenset[str]
    driving_kind: DrivingKind
    driving_range_count: int
    # S_LPI of the driving access path from index metadata (entry counts
    # over the spec's key ranges — a B-tree key-range estimate, no row
    # touched); None where only the optimizer's estimate exists.
    sel_local_index: float | None
    # Slots of the local predicates the driving spec does not push into
    # its index scan: the ones S_LPR is measured over.
    residual_slots: tuple[int, ...]


def leg_model_parts(
    plan_leg: PlanLeg, table: Any, indexes: Mapping[str, Any]
) -> LegModelParts:
    """*plan_leg*'s model parts against its *table* and the table's *indexes*."""
    spec = plan_leg.driving
    base_cardinality = len(table)
    sel_local_index = None
    if spec.index_column is not None:
        index = indexes.get(spec.index_column)
        if spec.ranges and index is not None and base_cardinality > 0:
            qualified = sum(
                index.count_range(r.low, r.high, r.low_inclusive, r.high_inclusive)
                for r in spec.ranges
            )
            sel_local_index = qualified / base_cardinality
    pushed = spec.pushed(plan_leg.local_predicates)
    return LegModelParts(
        base_cardinality=base_cardinality,
        local_predicate_count=len(plan_leg.local_predicates),
        indexed_columns=frozenset(indexes),
        driving_kind=spec.kind,
        driving_range_count=max(len(spec.ranges), 1),
        sel_local_index=sel_local_index,
        residual_slots=tuple(
            slot
            for slot, predicate in enumerate(plan_leg.local_predicates)
            if predicate is not pushed
        ),
    )


DEFAULT_CLASS_SELECTIVITY = 0.01


class ModelProvider:
    """Evaluates (JC, PC) for legs from :class:`TableModel` records.

    Join-predicate selectivities are keyed by the join graph's column
    **equivalence class**, so a derived predicate (implied by transitivity)
    shares the selectivity of the class it belongs to.
    """

    def __init__(
        self,
        models: Mapping[str, TableModel],
        class_selectivities: Mapping[int, float],
        graph: JoinGraph,
    ) -> None:
        self.models = models
        self.class_selectivities = class_selectivities
        self.graph = graph
        # alias -> {bound: (jc, pc)}: order search evaluates the same leg
        # at the same position for many candidate orders. A run's live
        # model (core.ranks) keeps it for the run, dropping a leg's entries
        # when that leg's model moves.
        self.memo: dict[str, dict[frozenset[str], tuple[float, float]]] = {}

    def driving_params(self, alias: str) -> tuple[float, float]:
        model = self.models[alias]
        remaining = model.remaining_fraction
        cleg = (
            model.base_cardinality
            * (model.sel_local_index * model.sel_local_residual)
            * remaining
        )
        # The remaining scan's cost, written out like the probe costs
        # below (every candidate of every driving check).
        if model.driving_kind is DrivingKind.INDEX_SCAN:
            matches = max(
                model.base_cardinality * remaining * model.sel_local_index, 0.0
            )
            scan_pc = max(
                model.driving_range_count, 1
            ) * _INDEX_DESCEND_COST + matches * (
                _INDEX_ENTRY_COST
                + _ROW_FETCH_COST
                # Residual locals are evaluated on every index match.
                + max(model.local_predicate_count - 1, 0) * _PREDICATE_EVAL_COST
            )
        else:
            scan_pc = model.base_cardinality * remaining * (
                _ROW_FETCH_COST
                + model.local_predicate_count * _PREDICATE_EVAL_COST
            )
        return cleg, scan_pc

    def inner_params(self, alias: str, bound: frozenset[str]) -> tuple[float, float]:
        entries = self.memo.get(alias)
        if entries is None:
            entries = self.memo[alias] = {}
        else:
            cached = entries.get(bound)
            if cached is not None:
                return cached
        model = self.models[alias]
        # The graph caches the structural skeleton (which equivalence
        # classes are available, which are indexed on this leg); only the
        # per-class selectivity lookups run per evaluation.
        distinct_ids, available_count, indexed_ids, all_ids = (
            self.graph.inner_structure(alias, bound, model.indexed_columns)
        )
        selectivities = self.class_selectivities
        # JC(T): matches per incoming row after locals and all available
        # join predicates (Sec 4.3.4 adjustment falls out of recomputing
        # this per candidate position). Each equivalence class filters
        # once, however many of its predicates are available.
        jc = (
            model.base_cardinality
            * (model.sel_local_index * model.sel_local_residual)
            * model.remaining_fraction
        )  # leg_cardinality * remaining_fraction, without the property hops
        for class_id in distinct_ids:
            jc *= selectivities.get(class_id, DEFAULT_CLASS_SELECTIVITY)
        jc *= model.jc_correction
        if indexed_ids:
            # Probe through the most selective indexed join predicate; the
            # others become residual checks: a descend, then per match the
            # entry, the fetch and the residual evaluations.
            access_sel = DEFAULT_CLASS_SELECTIVITY
            first = True
            for class_id in indexed_ids:
                sel = selectivities.get(class_id, DEFAULT_CLASS_SELECTIVITY)
                if first or sel < access_sel:
                    access_sel = sel
                    first = False
            residual_count = (
                available_count - 1 + model.local_predicate_count
            )
            # Probe work is NOT reduced by a frozen scan position: the index
            # still returns every match and the positional predicate rejects
            # afterwards — only JC shrinks, not PC.
            matches = max(model.base_cardinality * access_sel, 0.0)
            pc = _INDEX_DESCEND_COST + matches * (
                _INDEX_ENTRY_COST
                + _ROW_FETCH_COST
                + residual_count * _PREDICATE_EVAL_COST
            )
        else:
            # No index on an available join column: the executor probes
            # an in-memory hash table, built once over the rows passing the
            # locals (a probe plus per match the bucket hit and residual
            # evaluations; the build amortizes).
            # With no join predicate available (a Cartesian step, which the
            # executor refuses) every such row would match.
            access_sel = 1.0
            first = True
            for class_id in all_ids:
                sel = selectivities.get(class_id, DEFAULT_CLASS_SELECTIVITY)
                if first or sel < access_sel:
                    access_sel = sel
                    first = False
            matches = max(
                model.base_cardinality * model.sel_local * access_sel, 0.0
            )
            pc = _HASH_PROBE_COST + matches * (
                _HASH_MATCH_COST
                + max(available_count - 1, 0) * _PREDICATE_EVAL_COST
            )
        result = entries[bound] = (jc, pc * model.pc_correction)
        return result
