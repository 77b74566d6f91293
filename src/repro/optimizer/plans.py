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

    def prepared(
        self, catalog: Any, prepare: Callable, generation: tuple | None = None
    ) -> Any:
        """``prepare(self, catalog, generation, bindings)``, once per plan
        and catalog generation (*generation*, when the caller read it):
        this plan's *prepared record*.

        For everything an execution derives from the plan and the catalog
        alone (bound local tests, projection slots, model parts, the
        starting probe program, the cascade's starting kernels and the
        fresh driving scan's arrays): every execution of the plan installs
        one record — concurrently, on an embedding caller's threads — until
        the catalog's generation moves (DDL, DML, ANALYZE). It must
        therefore be immutable; anything an execution counts, windows or
        reorders belongs to that execution's executor. Two threads racing
        to build one store equal records, and each runs the one it built.

        *bindings* is None, or the order-free part of a record built for
        this plan's base plan under the same generation: a feedback plan
        (:meth:`corrected`) shares it and builds only what its own order
        and class selectivities decide.
        """
        if generation is None:
            generation = catalog.generation()
        memo = self.__dict__.get("_prepared")
        bindings = None
        if (
            memo is not None
            and memo.catalog is catalog
            and memo.generation == generation
        ):
            if memo.plan_id == id(self):
                return memo
            bindings = memo.bindings  # the base plan's (corrected())
        # Not a field: written past the frozen-dataclass guard, the way
        # functools.cached_property does.
        memo = self.__dict__["_prepared"] = prepare(
            self, catalog, generation, bindings
        )
        return memo

    def with_order(self, order: Sequence[str]) -> "PipelinePlan":
        """The same plan with a different leg order (used for what-ifs)."""
        return replace(self, order=tuple(order))

    def corrected(
        self, order: Sequence[str], provider: Any, estimated_cost: float
    ) -> "PipelinePlan":
        """This plan as a monitored run of it measured it (plan feedback).

        Same query, access paths, join predicates and projection; *order*
        is where the run ended, *provider* the run's
        :class:`~repro.optimizer.params.ModelProvider`: each leg carries
        the ``(S_LPI, S_LPR)`` of its model in place of the optimizer's and
        the join classes the provider's class selectivities, and
        *estimated_cost* is Eq (1) of *order* under those numbers. The
        result shares this plan's bindings (they depend on predicates and
        schemas only) and every leg the run measured as planned, so it
        costs a few small records, not a second compiled plan; the rest of
        its prepared record (:meth:`prepared`) follows the order and the
        class selectivities and is its own.
        """
        legs = dict(self.legs)
        for alias, leg_model in provider.models.items():
            leg = legs[alias]
            estimates = leg.estimates
            measured = (leg_model.sel_local_index, leg_model.sel_local_residual)
            if measured != (estimates.sel_local_index, estimates.sel_local_residual):
                legs[alias] = PlanLeg(
                    leg.alias,
                    leg.table_name,
                    leg.driving,
                    leg.local_predicates,
                    LegEstimates(estimates.base_cardinality, *measured),
                )
        class_selectivities = dict(provider.class_selectivities)
        class_id = provider.graph.class_id
        join_selectivities = {
            predicate: class_selectivities.get(
                class_id(predicate.left, predicate.left_column), selectivity
            )
            for predicate, selectivity in self.join_selectivities.items()
        }
        plan = PipelinePlan(
            self.query,
            tuple(order),
            legs,
            self.join_predicates,
            join_selectivities,
            class_selectivities,
            self.projection,
            estimated_cost,
        )
        memo = self.__dict__.get("_prepared")
        if memo is not None:
            plan.__dict__["_prepared"] = memo
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
