"""Physical plan structures for pipelined NLJN plans.

A :class:`PipelinePlan` is one join order over per-table *legs*. Each
:class:`PlanLeg` carries everything needed to run the table in **either**
role:

* as the *driving* leg — a :class:`DrivingSpec` (table scan, or index scan
  with pushed-down key ranges), and
* as an *inner* leg — probed through whatever join-column index is available
  given the legs bound before it (chosen at run time, because availability
  changes when the order changes).

This is the paper's "one initial execution plan with a small number of
switchable single-table access plans" (Sec 1, contribution 1): the adaptive
layer permutes legs of one plan instead of compiling many alternatives.

Legs also carry the optimizer's cardinality/selectivity estimates; the
run-time monitors start from these priors and refine them (Sec 4.3.3 notes
the initial driving leg's index selectivity comes from the optimizer).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Sequence

from repro.query.joingraph import JoinPredicate
from repro.query.predicates import LocalPredicate
from repro.query.query import OutputColumn, QuerySpec
from repro.storage.cursor import KeyRange, normalize_ranges


class DrivingKind(enum.Enum):
    TABLE_SCAN = "table-scan"
    INDEX_SCAN = "index-scan"


@dataclass(frozen=True)
class DrivingSpec:
    """How a leg scans its table when it is the driving (outer-most) leg."""

    kind: DrivingKind
    index_column: str | None = None
    ranges: tuple[KeyRange, ...] = ()
    # Estimated selectivity of the predicate(s) pushed into the index scan
    # (the paper's S_LPI); 1.0 for table scans.
    est_index_selectivity: float = 1.0

    def describe(self) -> str:
        if self.kind is DrivingKind.TABLE_SCAN:
            return "TABLE SCAN (RID order)"
        return f"INDEX SCAN on {self.index_column} ({len(self.ranges)} range(s))"

    def pushed(self, predicates: Sequence[LocalPredicate]) -> LocalPredicate | None:
        """The one of *predicates* this scan's key ranges enforce, or None.

        The predicate the ranges were taken from — not merely the first
        that is sargable on the column: a leg may carry two (``make = 'a'
        OR make = 'b'`` beside ``make = 'c'``), and the other one must
        still be evaluated on every row scanned.
        """
        if self.kind is not DrivingKind.INDEX_SCAN or self.index_column is None:
            return None
        for predicate in predicates:
            ranges = predicate.key_ranges(self.index_column)
            if ranges is not None and tuple(normalize_ranges(ranges)) == self.ranges:
                return predicate
        return None


@dataclass(frozen=True)
class LegEstimates:
    """Optimizer estimates for one leg (the run-time monitors' priors)."""

    base_cardinality: int
    # S_LPI: selectivity of locals pushed into the driving index scan.
    sel_local_index: float
    # S_LPR: selectivity of the remaining (residual) local predicates.
    sel_local_residual: float

    @property
    def sel_local(self) -> float:
        return self.sel_local_index * self.sel_local_residual

    @property
    def leg_cardinality(self) -> float:
        """C_LEG(T) = C(T) * S_LP(T) (Eq 9)."""
        return self.base_cardinality * self.sel_local


@dataclass(frozen=True)
class PlanLeg:
    """One table's switchable single-table access plan."""

    alias: str
    table_name: str
    driving: DrivingSpec
    local_predicates: tuple[LocalPredicate, ...]
    estimates: LegEstimates

    def describe(self) -> str:
        locals_str = " AND ".join(str(p) for p in self.local_predicates) or "-"
        return (
            f"{self.alias} ({self.table_name}): driving={self.driving.describe()}, "
            f"locals=[{locals_str}], "
            f"C={self.estimates.base_cardinality}, "
            f"est C_LEG={self.estimates.leg_cardinality:.1f}"
        )


@dataclass(frozen=True)
class PipelinePlan:
    """A pipelined NLJN plan: an ordered sequence of legs."""

    query: QuerySpec
    order: tuple[str, ...]  # aliases, driving leg first
    legs: Mapping[str, PlanLeg]
    join_predicates: tuple[JoinPredicate, ...]
    # Estimated selectivity per written join predicate (for display).
    join_selectivities: Mapping[JoinPredicate, float]
    # Estimated selectivity per join-column equivalence class (what the
    # cost model actually consumes — covers derived predicates too).
    class_selectivities: Mapping[int, float]
    projection: tuple[OutputColumn, ...]
    estimated_cost: float = float("nan")

    def leg(self, alias: str) -> PlanLeg:
        return self.legs[alias]

    @property
    def driving_alias(self) -> str:
        return self.order[0]

    def bindings(self, catalog: Any, bind: Callable) -> Any:
        """``bind(self, catalog)``, computed once per plan and catalog state.

        For what an executor derives from the plan and the catalog alone
        (compiled local-predicate tests, projection slots, the parts of the
        run-time cost model that are index and table metadata): every
        execution of a cached plan shares one result — concurrently, under
        the query server — until the catalog's generation moves (DDL, DML,
        ANALYZE). It must therefore be immutable; anything an execution
        counts, windows or reorders belongs to that execution's executor.
        """
        generation = catalog.generation()
        memo = self.__dict__.get("_bindings")
        if memo is None or memo[0] is not catalog or memo[1] != generation:
            # Not a field: written past the frozen-dataclass guard, the
            # way functools.cached_property does.
            memo = self.__dict__["_bindings"] = (
                catalog,
                generation,
                bind(self, catalog),
            )
        return memo[2]

    def probe_programs(self, bindings: Any) -> dict:
        """This plan's compiled starting probes, for as long as *bindings* stand.

        What an executor derives from the bindings **and** this plan's own
        order and class selectivities, so a feedback plan, which shares its
        base plan's bindings (:meth:`corrected`), keeps its own; dropped
        when the plan is rebound (the catalog's generation moved). Shared
        by concurrent executions like the bindings: entries are stored
        whole and never changed, two executions racing to fill one store
        equal values.
        """
        memo = self.__dict__.get("_probe_programs")
        if memo is None or memo[0] is not bindings:
            memo = self.__dict__["_probe_programs"] = (bindings, {})
        return memo[1]

    def with_order(self, order: Sequence[str]) -> "PipelinePlan":
        """The same plan with a different leg order (used for what-ifs)."""
        return replace(self, order=tuple(order))

    def corrected(
        self,
        order: Sequence[str],
        local_selectivities: Mapping[str, tuple[float, float]],
        class_selectivities: Mapping[int, float],
        estimated_cost: float,
    ) -> "PipelinePlan":
        """This plan as a monitored run of it measured it (plan feedback).

        Same query, access paths, join predicates and projection; *order*
        is where the run ended, each leg in *local_selectivities* carries
        the measured ``(S_LPI, S_LPR)`` in place of the optimizer's, the
        join classes carry *class_selectivities* and *estimated_cost* is
        Eq (1) of *order* under those numbers. The result shares this
        plan's bindings (they depend on predicates and schemas only), so
        it costs a few small records, not a second compiled plan; its
        probe programs (:meth:`probe_programs`) follow the order and the
        class selectivities and are its own.
        """
        legs = dict(self.legs)
        for alias, (sel_index, sel_residual) in local_selectivities.items():
            leg = legs[alias]
            legs[alias] = replace(
                leg,
                estimates=replace(
                    leg.estimates,
                    sel_local_index=sel_index,
                    sel_local_residual=sel_residual,
                ),
            )
        graph = self.query.join_graph()
        join_selectivities = dict(self.join_selectivities)
        for predicate in join_selectivities:
            class_id = graph.class_id(predicate.left, predicate.left_column)
            if class_id in class_selectivities:
                join_selectivities[predicate] = class_selectivities[class_id]
        plan = replace(
            self,
            order=tuple(order),
            legs=legs,
            join_selectivities=join_selectivities,
            class_selectivities=dict(class_selectivities),
            estimated_cost=estimated_cost,
        )
        memo = self.__dict__.get("_bindings")
        if memo is not None:
            plan.__dict__["_bindings"] = memo
        return plan

    def explain(self) -> str:
        lines = [f"PipelinePlan (estimated cost {self.estimated_cost:.1f} work units)"]
        for position, alias in enumerate(self.order, start=1):
            role = "DRIVING" if position == 1 else "INNER"
            lines.append(f"  {position}. [{role}] {self.legs[alias].describe()}")
        for predicate in self.join_predicates:
            sel = self.join_selectivities.get(predicate)
            sel_str = f" (est sel {sel:.2e})" if sel is not None else ""
            lines.append(f"  JOIN {predicate}{sel_str}")
        return "\n".join(lines)
