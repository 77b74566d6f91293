"""The pipelined-plan cost model (Sec 3.2) and rank ordering (Sec 3.3).

Cost of a pipelined plan (Eq 1)::

    Cost(plan) = sum_i  PC(T_o(i)) * prod_{j<i} JC(T_o(j))

with ``JC(T_o(0)) = 1`` and ``JC(T_o(1)) = C_LEG(T_o(1))``. The first term is
therefore the driving leg's *whole-scan* cost counted once; each inner leg's
probe cost is paid once per row flowing into it.

Rank of an inner leg (Eq 3)::

    rank(T) = (JC(T) - 1) / PC(T)

By the adjacent-sequence-interchange (ASI) property, for a fixed driving leg
and position-independent parameters, ordering inner legs by ascending rank
(Eq 4) minimises Eq 1.

The same model is used twice: at compile time with optimizer estimates, and
at run time with monitored values (Sec 4.3). Both sides implement
:class:`LegParamsProvider`; parameters are *position dependent* (``bound``
is the set of legs already in the pipeline before this one) because join
predicate availability changes with the order in cyclic graphs (Sec 4.3.4).

The probe and scan costs themselves live in :mod:`repro.optimizer.params`;
they model the engine's actual work-unit charges so that the optimizer's PC
and the meter's measured work agree in expectation.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence

from repro.query.joingraph import JoinGraph


class LegParamsProvider(Protocol):
    """Position-dependent (JC, PC) parameters for cost evaluation."""

    def driving_params(self, alias: str) -> tuple[float, float]:
        """Return (C_LEG, whole-scan PC) for *alias* as the driving leg."""
        ...

    def inner_params(self, alias: str, bound: frozenset[str]) -> tuple[float, float]:
        """Return (JC, per-row PC) for *alias* as an inner leg after *bound*."""
        ...


def rank(jc: float, pc: float) -> float:
    """Eq (3): rank(T) = (JC(T) - 1) / PC(T)."""
    return (jc - 1.0) / max(pc, 1e-12)


def walk_prefix(
    prefix: Sequence[str], provider: LegParamsProvider
) -> tuple[float, float, frozenset[str]]:
    """Eq (1) over a non-empty *prefix*, left to right: ``(cost, flow, bound)``.

    What an order search carries down a shared prefix: the cost so far, the
    rows flowing out of the prefix's last leg and the legs bound. Every
    caller extends it with ``cost += flow * pc; flow *= jc``, so a complete
    order's cost is the same float whoever walked its prefix.
    """
    flow, cost = provider.driving_params(prefix[0])
    bound = frozenset(prefix[:1])
    for alias in prefix[1:]:
        jc, pc = provider.inner_params(alias, bound)
        cost += flow * pc
        flow *= jc
        bound = bound | {alias}
    return cost, flow, bound


def cost_of_order(order: Sequence[str], provider: LegParamsProvider) -> float:
    """Eq (1) evaluated left to right over *order*."""
    if not order:
        return 0.0
    return walk_prefix(order, provider)[0]


def greedy_rank_walk(
    prefix: Sequence[str],
    remaining: Iterable[str],
    graph: JoinGraph,
    provider: LegParamsProvider,
    cost: float = 0.0,
    flow: float = 0.0,
) -> tuple[tuple[str, ...], float]:
    """Extend *prefix* by ascending rank, carrying Eq (1): ``(order, cost)``.

    Connectivity is respected: at each step only legs with at least one
    available join predicate are eligible, so no leg degenerates into a
    Cartesian product. (If the join graph itself is disconnected, the
    remaining legs are appended by rank as a last resort.) Among equal
    ranks the first in *remaining* wins.

    *cost* and *flow* are :func:`walk_prefix` of *prefix*; the parameters a
    leg is ranked by are the ones its Eq (1) term is made of, so the cost
    returned is :func:`cost_of_order` of the order returned without a
    second walk. A caller that only wants the order leaves them out.
    """
    order = list(prefix)
    remaining = [alias for alias in remaining if alias not in order]
    bound = frozenset(order)
    neighbors = graph.neighbor_sets
    inner_params = provider.inner_params
    while remaining:
        eligible = [
            alias for alias in remaining if not bound.isdisjoint(neighbors[alias])
        ]
        ranked = None
        for alias in eligible or remaining:
            jc, pc = inner_params(alias, bound)
            leg_rank = (jc - 1.0) / max(pc, 1e-12)  # rank(jc, pc), inlined
            if ranked is None or leg_rank < best_rank:
                ranked, best_rank, best_jc, best_pc = alias, leg_rank, jc, pc
        cost += flow * best_pc
        flow *= best_jc
        order.append(ranked)
        remaining.remove(ranked)
        bound = bound | {ranked}
    return tuple(order), cost


def greedy_rank_suffix(
    prefix: Sequence[str],
    remaining: Iterable[str],
    graph: JoinGraph,
    provider: LegParamsProvider,
) -> tuple[str, ...]:
    """Extend *prefix* with the remaining legs in ascending-rank order."""
    return greedy_rank_walk(prefix, remaining, graph, provider)[0]


def greedy_rank_order(
    driving: str,
    inner_aliases: Iterable[str],
    graph: JoinGraph,
    provider: LegParamsProvider,
) -> tuple[str, ...]:
    """Full order for a fixed driving leg: Eq (4) ascending-rank greedily."""
    return greedy_rank_suffix((driving,), inner_aliases, graph, provider)


def best_order_exhaustive(
    aliases: Sequence[str],
    graph: JoinGraph,
    provider: LegParamsProvider,
    fixed_prefix: Sequence[str] = (),
) -> tuple[tuple[str, ...], float]:
    """Cheapest connected order, by one depth-first enumeration.

    *fixed_prefix* pins the first legs (e.g. the already-running driving
    leg), so only the suffix is permuted. Suitable for the small pipelines
    (k <= 7) the paper evaluates; the search space is the set of connected
    orders, which is far smaller than k!.

    Eq (1) is a left-to-right sum, so the search carries ``(cost, flow,
    bound)`` down the prefix: orders sharing a prefix share its cost, and
    every complete order's cost is the float :func:`cost_of_order` returns
    for it (same operations, same sequence). Orders are visited in the
    sequence of ``graph.connected_orders(fixed_prefix)`` and a complete
    order replaces the incumbent only when strictly cheaper, so among
    equal-cost orders the first visited wins. Eq (1) terms are non-negative
    (cardinalities, selectivities and probe costs are), hence a prefix
    costing at least the incumbent cannot be completed into a strictly
    cheaper order and is cut off without changing the result.
    """
    prefix = tuple(fixed_prefix)
    remaining = tuple(a for a in graph.aliases if a not in prefix)
    best: tuple[str, ...] | None = None
    best_cost = float("inf")
    neighbors = graph.neighbor_sets
    inner_params = provider.inner_params

    def extend(
        order: tuple[str, ...],
        bound: frozenset[str],
        cost: float,
        flow: float,
        rest: tuple[str, ...],
    ) -> None:
        nonlocal best, best_cost
        if not rest:
            if cost < best_cost:
                best, best_cost = order, cost
            return
        for index, alias in enumerate(rest):
            if bound.isdisjoint(neighbors[alias]):
                continue  # would be a Cartesian product here
            jc, pc = inner_params(alias, bound)
            new_cost = cost + flow * pc
            if new_cost >= best_cost:
                continue
            extend(
                order + (alias,),
                bound | {alias},
                new_cost,
                flow * jc,
                rest[:index] + rest[index + 1 :],
            )

    if set(prefix).union(remaining) == set(aliases):
        if prefix:
            starts = [(prefix, remaining)]
        else:
            starts = [
                ((alias,), remaining[:index] + remaining[index + 1 :])
                for index, alias in enumerate(remaining)
            ]
        for start, rest in starts:
            cost, flow, bound = walk_prefix(start, provider)
            if cost < best_cost:
                extend(start, bound, cost, flow, rest)
    if best is None:
        # Disconnected graph: fall back to the given order.
        best = tuple(aliases)
        best_cost = cost_of_order(best, provider)
    return best, best_cost
