"""Query specifications: the engine's logical query representation.

A :class:`QuerySpec` is what the SQL parser produces and what the optimizer
consumes: a set of aliased tables, per-table local predicates (implicitly
AND-ed), equality join predicates, and a projection list. Only
select-project-join queries over conjunctive predicates are supported —
exactly the query class the paper's pipelined NLJN plans cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import QueryError
from repro.query.joingraph import JoinGraph, JoinPredicate, shared_join_graph
from repro.query.predicates import LocalPredicate


@dataclass(frozen=True)
class OutputColumn:
    """One projected column, ``alias.column``."""

    alias: str
    column: str

    def __str__(self) -> str:
        return f"{self.alias}.{self.column}"


@dataclass(frozen=True)
class QuerySpec:
    """A select-project-join query, optionally with blocking modifiers.

    ``projection`` is what the *pipeline* must output (empty means
    ``SELECT *``). When the query carries aggregates, GROUP BY, ORDER BY,
    or LIMIT, those are applied by a blocking post-processing stage above
    the pipeline (Sec 3.1: the pipeline is then a "pipelined portion of a
    bigger plan"); ``select_items`` records the user-visible select list
    and ``projection`` is derived to cover every column the modifiers
    need.
    """

    tables: Mapping[str, str]  # alias -> table name
    local_predicates: Mapping[str, tuple[LocalPredicate, ...]]
    join_predicates: tuple[JoinPredicate, ...]
    projection: tuple[OutputColumn, ...]
    select_items: tuple  # tuple[SelectItem, ...]; () = plain projection
    group_by: tuple[OutputColumn, ...]
    order_by: tuple  # tuple[OrderItem, ...]
    limit: int | None

    def __init__(
        self,
        tables: Mapping[str, str],
        local_predicates: Mapping[str, Sequence[LocalPredicate]] | None = None,
        join_predicates: Sequence[JoinPredicate] = (),
        projection: Sequence[OutputColumn] = (),
        select_items: Sequence = (),
        group_by: Sequence[OutputColumn] = (),
        order_by: Sequence = (),
        limit: int | None = None,
    ) -> None:
        from repro.query.aggregates import Aggregate, OrderItem

        if not tables:
            raise QueryError("a query needs at least one table")
        tables = dict(tables)
        locals_in = dict(local_predicates or {})
        for alias in locals_in:
            if alias not in tables:
                raise QueryError(
                    f"local predicates reference unknown alias {alias!r}"
                )
        normalized_locals = {
            alias: tuple(locals_in.get(alias, ())) for alias in tables
        }
        joins = tuple(join_predicates)
        for predicate in joins:
            for alias in predicate.aliases():
                if alias not in tables:
                    raise QueryError(
                        f"join predicate {predicate} references unknown "
                        f"alias {alias!r}"
                    )

        def check_column(output: OutputColumn, what: str) -> None:
            if output.alias not in tables:
                raise QueryError(
                    f"{what} {output} references unknown alias "
                    f"{output.alias!r}"
                )

        items = tuple(select_items)
        groups = tuple(group_by)
        orders = tuple(order_by)
        for column in groups:
            check_column(column, "GROUP BY column")
        for item in orders:
            if not isinstance(item, OrderItem):
                raise QueryError("order_by entries must be OrderItem")
            check_column(item.column, "ORDER BY column")
        has_aggregates = any(isinstance(item, Aggregate) for item in items)
        for item in items:
            if isinstance(item, Aggregate):
                if item.column is not None:
                    check_column(item.column, "aggregate argument")
            elif isinstance(item, OutputColumn):
                check_column(item, "select item")
                if has_aggregates and item not in groups:
                    raise QueryError(
                        f"select item {item} must appear in GROUP BY when "
                        "aggregates are used"
                    )
            else:
                raise QueryError(
                    "select_items must be OutputColumn or Aggregate"
                )
        if groups and not has_aggregates:
            raise QueryError("GROUP BY requires at least one aggregate")
        if has_aggregates:
            for item in orders:
                if item.column not in groups:
                    raise QueryError(
                        f"ORDER BY {item.column} must appear in GROUP BY "
                        "when aggregates are used"
                    )
        if limit is not None and limit < 0:
            raise QueryError("LIMIT must be non-negative")

        if items:
            if projection:
                raise QueryError(
                    "pass either select_items or projection, not both"
                )
            # The pipeline must output every column the blocking stage
            # touches: plain select columns, group keys, aggregate
            # arguments, and order keys.
            needed: list[OutputColumn] = []

            def need(column: OutputColumn) -> None:
                if column not in needed:
                    needed.append(column)

            for item in items:
                if isinstance(item, OutputColumn):
                    need(item)
                elif item.column is not None:
                    need(item.column)
            for column in groups:
                need(column)
            for order_item in orders:
                need(order_item.column)
            proj = tuple(needed)
        else:
            proj = tuple(projection)
            for output in proj:
                check_column(output, "projection")
            if orders and not proj:
                # SELECT * with ORDER BY: the star expansion covers every
                # column, so ordering can always be resolved later.
                pass

        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "local_predicates", normalized_locals)
        object.__setattr__(self, "join_predicates", joins)
        object.__setattr__(self, "projection", proj)
        object.__setattr__(self, "select_items", items)
        object.__setattr__(self, "group_by", groups)
        object.__setattr__(self, "order_by", orders)
        object.__setattr__(self, "limit", limit)

    @property
    def has_post_processing(self) -> bool:
        """True when a blocking stage must run above the pipeline."""
        return bool(self.select_items or self.order_by) or self.limit is not None

    @property
    def aliases(self) -> tuple[str, ...]:
        return tuple(self.tables)

    def table_of(self, alias: str) -> str:
        try:
            return self.tables[alias]
        except KeyError:
            raise QueryError(f"unknown alias {alias!r}") from None

    def locals_of(self, alias: str) -> tuple[LocalPredicate, ...]:
        return self.local_predicates.get(alias, ())

    def join_graph(self) -> JoinGraph:
        """The query's join graph, shared by every query of the same shape.

        See :func:`~repro.query.joingraph.shared_join_graph`: the optimizer
        and every execution of a cached plan read the same instance.
        """
        return shared_join_graph(self.aliases, self.join_predicates)

    def describe(self) -> str:
        """Human-readable one-per-line rendering (used by EXPLAIN)."""
        lines = ["QuerySpec:"]
        for alias, table in self.tables.items():
            lines.append(f"  {alias} -> {table}")
            for predicate in self.locals_of(alias):
                lines.append(f"    WHERE {predicate}")
        for predicate in self.join_predicates:
            lines.append(f"  JOIN {predicate}")
        if self.projection:
            rendered = ", ".join(str(output) for output in self.projection)
            lines.append(f"  SELECT {rendered}")
        return "\n".join(lines)
