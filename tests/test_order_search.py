"""``best_order_exhaustive`` is the search it replaced, float for float.

The product search is one depth-first enumeration that shares prefix costs
and cuts off prefixes already at least as expensive as the best complete
order. The search it replaced — enumerate every connected order, cost each
from position 0 with :func:`cost_of_order`, keep the first strictly
cheapest — stays here as the reference, in the tests only (the pattern of
Daft's ``#[cfg(test)]`` naive join orderer, SNIPPETS.md). Both must return
the identical ``(order, cost)``, compared with ``==`` on the float: the
plans of the whole template grid hang on it.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.driving
import repro.core.reorder
import repro.optimizer.optimizer
from repro import AdaptiveConfig, ReorderMode, StatisticsLevel
from repro.core.config import InnerReorderPolicy
from repro.dmv import four_table_workload, load_dmv, six_table_workload
from repro.executor import vector
from repro.optimizer.cost import best_order_exhaustive, cost_of_order
from repro.optimizer.params import ModelProvider, TableModel
from repro.optimizer.plans import DrivingKind
from repro.query.joingraph import JoinGraph, JoinPredicate


def reference_best_order(aliases, graph, provider, fixed_prefix=()):
    """Enumerate, then cost every order from scratch; first-wins on ties."""
    best = None
    best_cost = float("inf")
    prefix = tuple(fixed_prefix)
    alias_set = set(aliases)
    for order in graph.connected_orders(prefix):
        if set(order) != alias_set:
            continue
        cost = cost_of_order(order, provider)
        if cost < best_cost:
            best, best_cost = order, cost
    if best is None:
        best = tuple(aliases)
        best_cost = cost_of_order(best, provider)
    return best, best_cost


def assert_same_search(aliases, graph, provider, fixed_prefix=()):
    expected = reference_best_order(aliases, graph, provider, fixed_prefix)
    actual = best_order_exhaustive(aliases, graph, provider, fixed_prefix)
    assert actual[0] == expected[0], (fixed_prefix, actual, expected)
    # == on the float (NaN never reaches here: the models are finite).
    assert actual[1] == expected[1], (fixed_prefix, actual, expected)
    return actual


def checking_search(calls: list):
    """A stand-in for the product search that also runs the reference."""

    def search(aliases, graph, provider, fixed_prefix=()):
        calls.append(tuple(fixed_prefix))
        return assert_same_search(aliases, graph, provider, fixed_prefix)

    return search


GRID = [
    query.sql
    for query in (
        four_table_workload(queries_per_template=10**9)
        + six_table_workload(count=10**9)
    )
]


# ---------------------------------------------------------------------------
# The template grid, under every statistics level
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def dmv():
    db, _ = load_dmv(scale=0.02, extended=True, backend="columnar")
    return db


@pytest.mark.parametrize("level", list(StatisticsLevel), ids=lambda l: l.name)
def test_grid_plans_equal_the_reference_search(dmv, level, monkeypatch):
    """All 696 statements: same order, same cost, from the optimizer's own
    providers — and again with every one- and two-leg pinned prefix, the
    shapes the run-time callers use."""
    dmv.analyze(level=level)
    seen: list = []

    def search(aliases, graph, provider, fixed_prefix=()):
        result = checking_search(seen)(aliases, graph, provider, fixed_prefix)
        for alias in aliases:
            assert_same_search(aliases, graph, provider, (alias,))
        assert_same_search(aliases, graph, provider, result[0][:2])
        assert_same_search(aliases, graph, provider, result[0][-1:-3:-1])
        assert_same_search(aliases, graph, provider, result[0])
        return result

    monkeypatch.setattr(repro.optimizer.optimizer, "best_order_exhaustive", search)
    assert len(GRID) == 696
    for sql in GRID:
        plan = dmv.plan(dmv.parse(sql))
        assert plan.estimated_cost == cost_of_order(
            plan.order, _provider_of(dmv, plan)
        )
    assert len(seen) == 696


def _provider_of(db, plan) -> ModelProvider:
    """The optimizer's cost model for *plan*, rebuilt from the plan."""
    models = {}
    for alias, leg in plan.legs.items():
        models[alias] = TableModel(
            alias=alias,
            base_cardinality=leg.estimates.base_cardinality,
            sel_local_index=leg.estimates.sel_local_index,
            sel_local_residual=leg.estimates.sel_local_residual,
            local_predicate_count=len(leg.local_predicates),
            indexed_columns=frozenset(db.catalog.indexes_of(leg.table_name)),
            driving_kind=leg.driving.kind,
            driving_range_count=max(len(leg.driving.ranges), 1),
        )
    return ModelProvider(
        models, plan.class_selectivities, plan.query.join_graph()
    )


def test_run_time_callers_equal_the_reference_search(dmv, monkeypatch):
    """The EXHAUSTIVE inner policy drives both run-time call sites with
    monitored (calibrated, remaining-fraction-adjusted) models and pinned
    prefixes; every search they make must equal the reference's."""
    dmv.analyze(level=StatisticsLevel.CARDINALITY)
    # Decisions are applied mid-scan only: start small enough to have one.
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 16)
    driving_calls: list = []
    inner_calls: list = []
    monkeypatch.setattr(
        repro.core.driving, "best_order_exhaustive", checking_search(driving_calls)
    )
    monkeypatch.setattr(
        repro.core.reorder, "best_order_exhaustive", checking_search(inner_calls)
    )
    config = AdaptiveConfig(
        mode=ReorderMode.BOTH,
        inner_policy=InnerReorderPolicy.EXHAUSTIVE,
        check_frequency=2,
        switch_benefit_threshold=0.0,
    )
    six = [query.sql for query in six_table_workload(count=10**9)]
    switches = 0
    for sql in six[::15]:
        switches += dmv.execute(sql, config).stats.total_switches
    assert switches > 0
    assert driving_calls and all(len(prefix) == 1 for prefix in driving_calls)
    assert inner_calls and all(len(prefix) >= 1 for prefix in inner_calls)


# ---------------------------------------------------------------------------
# Generated graphs
# ---------------------------------------------------------------------------
class TableProvider:
    """Position-dependent parameters drawn once per (alias, bound set).

    Values come from a small set with repeats and zeros, so equal-cost
    orders (the tie-break) and zero flows (everything after them costs
    nothing) are common rather than freak cases.
    """

    VALUES = (0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.0, 7.5)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inner_calls = 0

    def _draw(self, *key) -> tuple[float, float]:
        rng = random.Random(repr((self.seed, key)))
        return rng.choice(self.VALUES), rng.choice(self.VALUES)

    def driving_params(self, alias):
        return self._draw("driving", alias)

    def inner_params(self, alias, bound):
        self.inner_calls += 1
        return self._draw("inner", alias, tuple(sorted(bound)))


def build_graph(shape: str, count: int, shared: bool, rng: random.Random):
    aliases = [f"t{i}" for i in range(count)]
    if shape == "chain":
        edges = [(i, i + 1) for i in range(count - 1)]
    elif shape == "star":
        edges = [(0, i) for i in range(1, count)]
    elif shape == "cycle":
        edges = [(i, (i + 1) % count) for i in range(count)] if count > 2 else [
            (i, i + 1) for i in range(count - 1)
        ]
    elif shape == "clique":
        edges = list(itertools.combinations(range(count), 2))
    else:  # random: possibly disconnected, possibly with repeated edges
        edges = [
            tuple(rng.sample(range(count), 2))
            for _ in range(rng.randrange(0, 2 * count))
        ] if count > 1 else []
    predicates = []
    for number, (left, right) in enumerate(edges):
        # shared: every edge joins on column "k", so the endpoints fall into
        # one equivalence class and implied (derived) predicates appear;
        # otherwise each edge has columns of its own.
        column = "k" if shared else f"c{number}"
        predicates.append(
            JoinPredicate(aliases[left], column, aliases[right], column)
        )
    rng.shuffle(aliases)
    return JoinGraph(aliases, predicates)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from(["chain", "star", "cycle", "clique", "random"]),
    count=st.integers(min_value=1, max_value=7),
    shared=st.booleans(),
    seed=st.integers(min_value=0, max_value=10**6),
    prefix_length=st.integers(min_value=0, max_value=7),
)
def test_generated_graphs_equal_the_reference_search(
    shape, count, shared, seed, prefix_length
):
    rng = random.Random(seed)
    graph = build_graph(shape, count, shared, rng)
    aliases = tuple(rng.sample(graph.aliases, count))
    prefix = tuple(rng.sample(graph.aliases, min(prefix_length, count)))
    assert_same_search(aliases, graph, TableProvider(seed), prefix)


@settings(max_examples=100, deadline=None)
@given(
    count=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_generated_model_providers_equal_the_reference_search(count, seed):
    """Through the real ModelProvider: indexed and unindexed legs, hash
    probes, run-time corrections and remaining fractions."""
    rng = random.Random(seed)
    graph = build_graph(
        rng.choice(["chain", "star", "cycle", "random"]), count, rng.random() < 0.5, rng
    )
    columns = {
        alias: sorted(
            {p.column_of(alias) for p in graph.predicates_of(alias)}
        )
        for alias in graph.aliases
    }
    models = {
        alias: TableModel(
            alias=alias,
            base_cardinality=float(rng.choice([0, 1, 10, 1000, 250_000])),
            sel_local_index=rng.choice([1.0, 0.5, 0.01]),
            sel_local_residual=rng.choice([1.0, 0.3, 0.0]),
            local_predicate_count=rng.randrange(0, 3),
            indexed_columns=frozenset(
                c for c in columns[alias] if rng.random() < 0.7
            ),
            driving_kind=rng.choice(list(DrivingKind)),
            driving_range_count=rng.randrange(1, 3),
            remaining_fraction=rng.choice([1.0, 0.4, 0.0]),
            jc_correction=rng.choice([1.0, 0.1, 12.0]),
            pc_correction=rng.choice([1.0, 0.5, 3.0]),
            hash_probes=rng.random() < 0.3,
        )
        for alias in graph.aliases
    }
    selectivities = {
        class_id: rng.choice([1.0, 0.5, 1e-3, 1e-6])
        for class_id in range(len(graph.classes))
    }
    for prefix_length in (0, 1, 2):
        prefix = tuple(rng.sample(graph.aliases, min(prefix_length, count)))
        assert_same_search(
            graph.aliases,
            graph,
            ModelProvider(models, selectivities, graph),
            prefix,
        )


# ---------------------------------------------------------------------------
# What the rewrite is for
# ---------------------------------------------------------------------------
def test_search_evaluates_fewer_positions_than_the_reference():
    """Six legs in a chain with a shared join column (the six-table grid's
    shape class): the reference costs every leg of every order; the product
    search costs each prefix once and drops hopeless ones."""
    graph = build_graph("chain", 6, True, random.Random(0))
    reference, product = TableProvider(11), TableProvider(11)
    expected = reference_best_order(graph.aliases, graph, reference)
    actual = best_order_exhaustive(graph.aliases, graph, product)
    assert actual == expected
    assert product.inner_calls * 2 < reference.inner_calls


def test_disconnected_graph_falls_back_to_the_given_order():
    graph = JoinGraph(
        ["a", "b", "c"], [JoinPredicate("a", "x", "b", "x")]
    )
    provider = TableProvider(3)
    assert best_order_exhaustive(["c", "a", "b"], graph, provider) == (
        ("c", "a", "b"),
        cost_of_order(("c", "a", "b"), provider),
    )


def test_neighbor_sets_agree_with_available_predicates():
    rng = random.Random(5)
    for shape in ("chain", "star", "cycle", "clique", "random"):
        for shared in (False, True):
            graph = build_graph(shape, 6, shared, rng)
            for alias in graph.aliases:
                assert graph.neighbors(alias) == set(graph.neighbor_sets[alias])
                others = [a for a in graph.aliases if a != alias]
                for size in range(len(others) + 1):
                    for bound in itertools.combinations(others, size):
                        connects = bool(graph.available_predicates(alias, bound))
                        assert connects == (
                            not graph.neighbor_sets[alias].isdisjoint(bound)
                        )
