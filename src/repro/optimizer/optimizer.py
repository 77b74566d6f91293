"""The static, compile-time optimizer.

Produces one :class:`PipelinePlan` for a query: it chooses each table's
single-table access plan (its :class:`DrivingSpec` and available probe
indexes), estimates selectivities from catalog statistics under uniformity +
independence, and exhaustively searches connected join orders under the
Eq (1) cost model — i.e. it finds the plan that *is* optimal for its
estimates, the same standard the paper's commercial optimizer meets. When
the estimates are wrong (skew, correlation), so is the plan; that is the gap
the adaptive layer closes.
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.errors import PlanError
from repro.optimizer.cost import best_order_exhaustive
from repro.optimizer.params import ModelProvider, TableModel
from repro.optimizer.plans import (
    DrivingKind,
    DrivingSpec,
    LegEstimates,
    PipelinePlan,
    PlanLeg,
)
from repro.optimizer.selectivity import Estimator, join_selectivity
from repro.query.joingraph import JoinPredicate
from repro.query.predicates import LocalPredicate
from repro.query.query import OutputColumn, QuerySpec
from repro.storage.cursor import KeyRange, normalize_ranges


def _validate(query: QuerySpec, catalog: Catalog) -> None:
    for alias, table_name in query.tables.items():
        table = catalog.table(table_name)  # raises CatalogError if unknown
        for predicate in query.locals_of(alias):
            for column in predicate.columns():
                table.schema.position_of(column)
    for predicate in query.join_predicates:
        for alias in (predicate.left, predicate.right):
            table = catalog.table(query.table_of(alias))
            table.schema.position_of(predicate.column_of(alias))


def expand_projection(query: QuerySpec, catalog: Catalog) -> tuple[OutputColumn, ...]:
    """Resolve the projection; an empty projection means ``SELECT *``."""
    if query.projection:
        for output in query.projection:
            table = catalog.table(query.table_of(output.alias))
            table.schema.position_of(output.column)
        return query.projection
    expanded: list[OutputColumn] = []
    for alias, table_name in query.tables.items():
        schema = catalog.table(table_name).schema
        expanded.extend(OutputColumn(alias, name) for name in schema.column_names())
    return tuple(expanded)


def choose_driving_spec(
    alias: str,
    predicates: tuple[LocalPredicate, ...],
    indexed_columns: frozenset[str],
    estimator: Estimator,
) -> tuple[DrivingSpec, float, float]:
    """Pick the driving access path for one table.

    Returns (spec, sel_local_index, sel_local_residual). The most selective
    sargable predicate on an indexed column wins — judged by the *estimated*
    selectivity, so skew can make this choice wrong (the paper's Template 4 /
    Example 3 failure, Sec 5.3).
    """
    best_column: str | None = None
    best_ranges: list[KeyRange] | None = None
    best_sel = 1.0
    best_predicate: LocalPredicate | None = None
    for predicate in predicates:
        for column in predicate.columns():
            if column not in indexed_columns:
                continue
            ranges = predicate.key_ranges(column)
            if ranges is None:
                continue
            sel = estimator.predicate_selectivity(predicate)
            if sel < best_sel or best_column is None:
                best_column = column
                best_ranges = ranges
                best_sel = sel
                best_predicate = predicate
    if best_column is None:
        return DrivingSpec(DrivingKind.TABLE_SCAN), 1.0, estimator.conjunction_selectivity(predicates)
    residual = [p for p in predicates if p is not best_predicate]
    sel_residual = estimator.conjunction_selectivity(tuple(residual))
    spec = DrivingSpec(
        DrivingKind.INDEX_SCAN,
        index_column=best_column,
        ranges=tuple(normalize_ranges(list(best_ranges or []))),
    )
    return spec, best_sel, sel_residual


class StaticOptimizer:
    """Builds the initial pipelined plan for a query."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def optimize(self, query: QuerySpec) -> PipelinePlan:
        _validate(query, self.catalog)
        graph = query.join_graph()
        if len(query.aliases) > 1 and not graph.is_connected():
            raise PlanError(
                "query join graph is disconnected; Cartesian products are "
                "not supported by the pipelined executor"
            )

        legs: dict[str, PlanLeg] = {}
        models: dict[str, TableModel] = {}
        for alias, table_name in query.tables.items():
            table = self.catalog.table(table_name)
            stats = self.catalog.stats(table_name)
            estimator = Estimator(stats)
            indexed = frozenset(self.catalog.indexes_of(table_name))
            predicates = query.locals_of(alias)
            spec, sel_index, sel_residual = choose_driving_spec(
                alias, predicates, indexed, estimator
            )
            base_cardinality = (
                stats.cardinality if stats is not None else len(table)
            )
            estimates = LegEstimates(
                base_cardinality=base_cardinality,
                sel_local_index=sel_index,
                sel_local_residual=sel_residual,
            )
            legs[alias] = PlanLeg(
                alias=alias,
                table_name=table_name,
                driving=spec,
                local_predicates=predicates,
                estimates=estimates,
            )
            models[alias] = TableModel(
                alias=alias,
                base_cardinality=base_cardinality,
                sel_local_index=sel_index,
                sel_local_residual=sel_residual,
                local_predicate_count=len(predicates),
                indexed_columns=indexed,
                driving_kind=spec.kind,
                driving_range_count=max(len(spec.ranges), 1),
            )

        # One selectivity per column equivalence class: 1 / max(ndv) over
        # the class's endpoints (the standard equi-join estimate, applied
        # to derived predicates as well).
        class_sels: dict[int, float] = {}
        for class_index, members in enumerate(graph.classes):
            ndvs = []
            cardinalities = []
            for alias, column in members:
                stats = self.catalog.stats(query.table_of(alias))
                table = self.catalog.table(query.table_of(alias))
                cardinalities.append(
                    stats.cardinality if stats is not None else len(table)
                )
                if stats is None:
                    continue
                column_stats = stats.column(column)
                if column_stats is not None and column_stats.ndv > 0:
                    ndvs.append(column_stats.ndv)
            if ndvs:
                class_sels[class_index] = 1.0 / max(ndvs)
            elif cardinalities:
                # No column statistics: assume the class's widest table is
                # joined on its key (the textbook PK-FK default).
                class_sels[class_index] = 1.0 / max(max(cardinalities), 1)
            else:
                class_sels[class_index] = 0.01
        # Per-written-predicate selectivities, for EXPLAIN display.
        join_sels: dict[JoinPredicate, float] = {}
        for predicate in query.join_predicates:
            class_id = graph.class_id(predicate.left, predicate.left_column)
            if class_id is not None:
                join_sels[predicate] = class_sels[class_id]
            else:
                left_stats = self.catalog.stats(query.table_of(predicate.left))
                right_stats = self.catalog.stats(query.table_of(predicate.right))
                join_sels[predicate] = join_selectivity(
                    predicate, left_stats, right_stats
                )

        provider = ModelProvider(models, class_sels, graph)
        if len(query.aliases) == 1:
            order: tuple[str, ...] = (query.aliases[0],)
            cost = provider.driving_params(order[0])[1]
        else:
            order, cost = best_order_exhaustive(query.aliases, graph, provider)

        return PipelinePlan(
            query=query,
            order=order,
            legs=legs,
            join_predicates=tuple(query.join_predicates),
            join_selectivities=join_sels,
            class_selectivities=class_sels,
            projection=expand_projection(query, self.catalog),
            estimated_cost=cost,
        )
