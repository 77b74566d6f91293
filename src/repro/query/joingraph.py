"""Join predicates and the query's join graph.

The join graph has one node per table alias and one edge per equality join
predicate. The adaptive layer consults it to answer two questions:

* which join predicates are *available* to an inner leg given the set of
  already-bound legs (this changes with the order for cyclic graphs —
  Sec 4.3.4, Fig 6), and
* whether a candidate leg order keeps every inner leg connected to its
  prefix, so no leg degenerates into a Cartesian product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from repro.errors import QueryError


@dataclass(frozen=True)
class JoinPredicate:
    """An equality join predicate ``left.left_column = right.right_column``."""

    left: str
    left_column: str
    right: str
    right_column: str

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise QueryError(
                f"join predicate joins {self.left!r} with itself"
            )

    def aliases(self) -> frozenset[str]:
        return frozenset((self.left, self.right))

    def touches(self, alias: str) -> bool:
        return alias == self.left or alias == self.right

    def column_of(self, alias: str) -> str:
        """The column this predicate constrains on table *alias*."""
        if alias == self.left:
            return self.left_column
        if alias == self.right:
            return self.right_column
        raise QueryError(f"predicate {self} does not touch alias {alias!r}")

    def other(self, alias: str) -> str:
        """The alias on the opposite side of *alias*."""
        if alias == self.left:
            return self.right
        if alias == self.right:
            return self.left
        raise QueryError(f"predicate {self} does not touch alias {alias!r}")

    def __str__(self) -> str:
        return (
            f"{self.left}.{self.left_column} = {self.right}.{self.right_column}"
        )


class JoinGraph:
    """Nodes are table aliases; edges are equality join predicates.

    Equality predicates are transitive, so the graph computes **column
    equivalence classes** over (alias, column) endpoints — the standard
    optimizer technique. ``c.ownerid = o.id`` and ``o.id = d.ownerid`` put
    all three columns in one class, which *derives* the implied predicate
    ``c.ownerid = d.ownerid``: Demographics may then be ordered before
    Owner, the freedom the paper's Example 1 exploits.

    :meth:`available_predicates` therefore returns at most one predicate
    per equivalence class (redundant members of a class filter the same
    rows), synthesizing a derived predicate when only an implied edge
    connects the leg to the bound prefix.
    """

    def __init__(
        self, aliases: Sequence[str], predicates: Iterable[JoinPredicate]
    ) -> None:
        self.aliases = tuple(aliases)
        alias_set = set(self.aliases)
        if len(alias_set) != len(self.aliases):
            raise QueryError("duplicate table aliases in join graph")
        self.predicates = tuple(predicates)
        for predicate in self.predicates:
            missing = predicate.aliases() - alias_set
            if missing:
                raise QueryError(
                    f"join predicate {predicate} references unknown "
                    f"alias(es): {sorted(missing)}"
                )
        self._by_alias: dict[str, list[JoinPredicate]] = {
            alias: [] for alias in self.aliases
        }
        for predicate in self.predicates:
            self._by_alias[predicate.left].append(predicate)
            self._by_alias[predicate.right].append(predicate)
        self._build_classes()
        # available_predicates is a pure function of (alias, bound-set) on
        # this immutable graph, and the adaptation controller evaluates it
        # for every candidate order at every reorder check — memoize it.
        self._available_cache: dict[
            tuple[str, frozenset[str]], tuple[JoinPredicate, ...]
        ] = {}
        self._structure_cache: dict[
            tuple[str, frozenset[str], frozenset[str]],
            tuple[tuple[int, ...], int, tuple[int, ...], tuple[int, ...]],
        ] = {}
        # Per-alias endpoint view of _class_of, in _class_of iteration
        # order, so cache misses walk only this alias's join columns
        # instead of every endpoint in the graph.
        self._alias_endpoints: dict[
            str, list[tuple[str, tuple[tuple[str, str], ...]]]
        ] = {}
        for endpoint, class_id in self._class_of.items():
            self._alias_endpoints.setdefault(endpoint[0], []).append(
                (endpoint[1], self.classes[class_id])
            )
        #: alias -> the aliases it shares an equivalence class with. A leg
        #: has an available predicate after *bound* exactly when *bound*
        #: meets this set, which is all the order search needs to know.
        self.neighbor_sets: dict[str, frozenset[str]] = {
            alias: frozenset(
                other
                for _, members in self._alias_endpoints.get(alias, ())
                for other, _ in members
                if other != alias
            )
            for alias in self.aliases
        }

    def _build_classes(self) -> None:
        """Union-find over (alias, column) endpoints."""
        parent: dict[tuple[str, str], tuple[str, str]] = {}

        def find(node: tuple[str, str]) -> tuple[str, str]:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        for predicate in self.predicates:
            for endpoint in (
                (predicate.left, predicate.left_column),
                (predicate.right, predicate.right_column),
            ):
                parent.setdefault(endpoint, endpoint)
            left = find((predicate.left, predicate.left_column))
            right = find((predicate.right, predicate.right_column))
            if left != right:
                parent[left] = right

        roots: dict[tuple[str, str], int] = {}
        self._class_of: dict[tuple[str, str], int] = {}
        classes: dict[int, list[tuple[str, str]]] = {}
        for endpoint in parent:
            root = find(endpoint)
            class_id = roots.setdefault(root, len(roots))
            self._class_of[endpoint] = class_id
            classes.setdefault(class_id, []).append(endpoint)
        self.classes: tuple[tuple[tuple[str, str], ...], ...] = tuple(
            tuple(sorted(classes[class_id])) for class_id in sorted(classes)
        )

    def class_id(self, alias: str, column: str) -> int | None:
        """Equivalence-class id of a join column, or None if not a join column."""
        return self._class_of.get((alias, column))

    def class_members(self, class_id: int) -> tuple[tuple[str, str], ...]:
        return self.classes[class_id]

    def predicates_of(self, alias: str) -> list[JoinPredicate]:
        try:
            return self._by_alias[alias]
        except KeyError:
            raise QueryError(f"unknown alias {alias!r}") from None

    def available_predicates(
        self, alias: str, bound: Iterable[str]
    ) -> list[JoinPredicate]:
        """Join predicates usable by leg *alias* when *bound* legs precede it.

        At most one predicate per (equivalence class, column of *alias*);
        derived predicates are synthesized when the connection is implied by
        transitivity rather than written in the query.
        """
        if alias not in self._by_alias:
            raise QueryError(f"unknown alias {alias!r}")
        bound_set = frozenset(bound)
        cached = self._available_cache.get((alias, bound_set))
        if cached is not None:
            return list(cached)
        available: list[JoinPredicate] = []
        for column, members in self._alias_endpoints.get(alias, ()):
            for other, other_column in members:
                if other in bound_set:
                    available.append(
                        JoinPredicate(alias, column, other, other_column)
                    )
                    break
        self._available_cache[(alias, bound_set)] = tuple(available)
        return available

    def inner_structure(
        self,
        alias: str,
        bound: frozenset[str],
        indexed_columns: frozenset[str],
    ) -> tuple[tuple[int, ...], int, tuple[int, ...], tuple[int, ...]]:
        """Class-id skeleton of :meth:`available_predicates` for cost evaluation.

        Returns ``(distinct_class_ids, available_count, indexed_class_ids,
        all_class_ids)`` where every tuple preserves the iteration order of
        :meth:`available_predicates`, so a cost model multiplying
        per-class selectivities over ``distinct_class_ids`` (first
        occurrence per class, like the historical seen-set dedup) or taking
        ``min`` over the others reproduces the predicate-object computation
        bit for bit. Everything here is structural — which predicates
        exist, which are indexed on *alias* — so it is cached for the
        graph's lifetime, leaving only the selectivity lookups to run per
        reorder check.
        """
        key = (alias, bound, indexed_columns)
        cached = self._structure_cache.get(key)
        if cached is not None:
            return cached
        available = self.available_predicates(alias, bound)
        distinct: list[int] = []
        seen: set[int] = set()
        indexed: list[int] = []
        all_ids: list[int] = []
        for predicate in available:
            column = predicate.column_of(alias)
            class_id = self._class_of[(alias, column)]
            all_ids.append(class_id)
            if class_id not in seen:
                seen.add(class_id)
                distinct.append(class_id)
            if column in indexed_columns:
                indexed.append(class_id)
        result = (
            tuple(distinct),
            len(available),
            tuple(indexed),
            tuple(all_ids),
        )
        self._structure_cache[key] = result
        return result

    def neighbors(self, alias: str) -> set[str]:
        """Aliases sharing an equivalence class with *alias* (incl. derived)."""
        return set(self.neighbor_sets.get(alias, ()))

    def is_connected_order(self, order: Sequence[str]) -> bool:
        """True when every leg after the first joins to some earlier leg."""
        if not order:
            return False
        bound = {order[0]}
        for alias in order[1:]:
            if not self.available_predicates(alias, bound):
                return False
            bound.add(alias)
        return True

    def is_connected(self) -> bool:
        """True when the whole graph is one connected component."""
        if not self.aliases:
            return False
        seen = {self.aliases[0]}
        frontier = [self.aliases[0]]
        while frontier:
            alias = frontier.pop()
            for neighbor in self.neighbors(alias):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self.aliases)

    def is_cyclic(self) -> bool:
        """True when the graph has more edges than a spanning tree needs."""
        distinct_edges = {predicate.aliases() for predicate in self.predicates}
        return len(distinct_edges) > len(self.aliases) - 1

    def connected_orders(self, prefix: Sequence[str] = ()) -> Iterator[tuple[str, ...]]:
        """Yield all connected total orders extending *prefix* (for search)."""
        prefix = tuple(prefix)
        remaining = [alias for alias in self.aliases if alias not in prefix]
        if not remaining:
            yield prefix
            return
        bound = set(prefix)
        for alias in remaining:
            connects = not prefix or bool(self.available_predicates(alias, bound))
            if connects:
                yield from self.connected_orders(prefix + (alias,))


@lru_cache(maxsize=64)
def shared_join_graph(
    aliases: tuple[str, ...], predicates: tuple[JoinPredicate, ...]
) -> JoinGraph:
    """The one :class:`JoinGraph` for a join shape (aliases + predicates).

    Statements that differ only in their local predicates — a whole query
    template — have the same graph, and what the order search and the
    reorder checks ask of it (which predicates are available to a leg after
    a set of bound legs, and their class skeleton) depends on the shape
    alone. Sharing one instance means those answers are computed once per
    shape, not once per statement, and a cached plan does not carry a
    private copy of them. Safe to share across executions and threads: a
    graph never changes after construction, its internal dictionaries only
    memoize pure functions of it (two threads can at worst compute the
    same entry twice), and the memo is bounded by the connected
    (leg, bound set) pairs of the shape.
    """
    return JoinGraph(aliases, predicates)
