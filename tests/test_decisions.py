"""Unit tests for the inner-reorder and driving-switch decision logic."""

import dataclasses
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.controller
from repro import AdaptiveConfig, ReorderMode
from repro.core.driving import decide_driving_switch
from repro.core.reorder import decide_inner_order, suffix_ranks
from repro.dmv import load_dmv
from repro.executor import vector
from repro.executor.pipeline import PipelineExecutor
from repro.optimizer.cost import cost_of_order, greedy_rank_suffix

from tests.conftest import build_three_table_db
from tests.test_order_search import GRID, TableProvider, build_graph

SQL = (
    "SELECT o.name FROM Owner o, Car c, Demo d "
    "WHERE c.ownerid = o.id AND o.id = d.ownerid "
    "AND c.make = 'Rare' AND o.country = 'DE' AND d.salary < 70000"
)


class FixedProvider:
    """(JC, PC) fixed per alias; driving (CLEG, scan PC) fixed per alias."""

    def __init__(self, driving, inner):
        self.driving = driving
        self.inner = inner

    def driving_params(self, alias):
        return self.driving[alias]

    def inner_params(self, alias, bound):
        return self.inner[alias]


def started_pipeline(db, sql=SQL, mode=ReorderMode.BOTH, **kwargs):
    plan = db.plan(sql)
    config = AdaptiveConfig(mode=mode, **kwargs)
    pipeline = PipelineExecutor(plan, db.catalog, config)
    iterator = pipeline.rows()
    next(iterator, None)
    return pipeline, config


class TestInnerDecision:
    def test_ascending_ranks_keep_order(self, three_table_db):
        pipeline, config = started_pipeline(three_table_db)
        provider = FixedProvider(
            {alias: (10.0, 1.0) for alias in pipeline.order},
            {alias: (0.1 * (i + 1), 1.0) for i, alias in enumerate(pipeline.order)},
        )
        decision = decide_inner_order(pipeline, provider, 1)
        assert decision is None

    def test_inverted_ranks_trigger_reorder(self, three_table_db):
        pipeline, _ = started_pipeline(three_table_db)
        inner = {}
        for i, alias in enumerate(pipeline.order):
            jc = 5.0 if i == 1 else 0.1  # position 1 has a terrible rank
            inner[alias] = (jc, 1.0)
        provider = FixedProvider(
            {alias: (10.0, 1.0) for alias in pipeline.order}, inner
        )
        decision = decide_inner_order(pipeline, provider, 1)
        assert decision is not None
        assert decision[0] != pipeline.order[1]

    def test_single_leg_suffix_never_reorders(self, three_table_db):
        pipeline, _ = started_pipeline(three_table_db)
        provider = FixedProvider(
            {alias: (10.0, 1.0) for alias in pipeline.order},
            {alias: (1.0, 1.0) for alias in pipeline.order},
        )
        last = len(pipeline.order) - 1
        assert decide_inner_order(pipeline, provider, last) is None

    def test_suffix_ranks_positions(self, three_table_db):
        pipeline, _ = started_pipeline(three_table_db)
        provider = FixedProvider(
            {alias: (10.0, 1.0) for alias in pipeline.order},
            {alias: (2.0, 4.0) for alias in pipeline.order},
        )
        ranks = suffix_ranks(pipeline.order, 1, provider)
        assert len(ranks) == len(pipeline.order) - 1
        assert all(r == pytest.approx(0.25) for r in ranks)


class TestDrivingDecision:
    def test_no_switch_when_current_is_best(self, three_table_db):
        pipeline, config = started_pipeline(three_table_db)
        driving = {alias: (1000.0, 1000.0) for alias in pipeline.order}
        driving[pipeline.order[0]] = (1.0, 1.0)  # current driving is great
        provider = FixedProvider(
            driving, {alias: (1.0, 1.0) for alias in pipeline.order}
        )
        assert decide_driving_switch(pipeline, provider, config) is None

    def test_switch_when_candidate_much_cheaper(self, three_table_db):
        pipeline, config = started_pipeline(three_table_db)
        driving = {alias: (1.0, 1.0) for alias in pipeline.order}
        driving[pipeline.order[0]] = (10_000.0, 10_000.0)
        provider = FixedProvider(
            driving, {alias: (1.0, 1.0) for alias in pipeline.order}
        )
        decision = decide_driving_switch(pipeline, provider, config)
        assert decision is not None
        assert decision[0] != pipeline.order[0]

    def test_threshold_suppresses_marginal_switch(self, three_table_db):
        pipeline, _ = started_pipeline(three_table_db)
        config = AdaptiveConfig(
            mode=ReorderMode.BOTH, switch_benefit_threshold=0.5
        )
        driving = {alias: (10.0, 100.0) for alias in pipeline.order}
        driving[pipeline.order[0]] = (10.0, 130.0)  # only ~23% worse
        provider = FixedProvider(
            driving, {alias: (1.0, 1.0) for alias in pipeline.order}
        )
        assert decide_driving_switch(pipeline, provider, config) is None

    def test_abandoned_leg_needs_bigger_margin(self, three_table_db):
        pipeline, config = started_pipeline(three_table_db)
        candidate = pipeline.order[1]
        driving = {alias: (10.0, 500.0) for alias in pipeline.order}
        driving[pipeline.order[0]] = (10.0, 130.0)
        driving[candidate] = (10.0, 95.0)  # ~23% better: would switch...
        provider = FixedProvider(
            driving, {alias: (1.0, 1.0) for alias in pipeline.order}
        )
        assert decide_driving_switch(pipeline, provider, config) is not None
        # ...but not once the candidate has been abandoned twice.
        pipeline.abandon_counts[candidate] = 2
        assert decide_driving_switch(pipeline, provider, config) is None


def unpruned_driving_switch(pipeline, provider, config, audit_costs=None):
    """Fig 3 steps 2-4 with every candidate searched and costed.

    The loop :func:`decide_driving_switch` ran before it learned to skip
    candidates whose driving scan alone rules them out; kept here, in the
    tests only, as the reference the pruned loop must agree with.
    """
    order = pipeline.order
    graph = pipeline.join_graph
    current_cost = cost_of_order(order, provider)
    best_order = None
    best_cost = current_cost
    for candidate in order:
        if candidate == order[0]:
            continue
        others = [alias for alias in order if alias != candidate]
        candidate_order = greedy_rank_suffix((candidate,), others, graph, provider)
        cost = cost_of_order(candidate_order, provider)
        abandoned = pipeline.abandon_counts.get(candidate, 0)
        if abandoned:
            cost *= (1.0 + config.switch_benefit_threshold) ** abandoned
        if cost < best_cost:
            best_cost = cost
            best_order = list(candidate_order)
    if best_order is None:
        return None
    if best_cost >= current_cost * (1.0 - config.switch_benefit_threshold):
        return None
    return best_order


class TestDrivingCandidatePruning:
    @settings(max_examples=500, deadline=None)
    @given(
        shape=st.sampled_from(["chain", "star", "cycle", "clique", "random"]),
        count=st.integers(min_value=2, max_value=7),
        shared=st.booleans(),
        seed=st.integers(min_value=0, max_value=10**6),
        threshold=st.sampled_from([0.0, 0.15, 0.5, 0.9]),
    )
    def test_pruned_loop_decides_what_the_unpruned_loop_decides(
        self, shape, count, shared, seed, threshold
    ):
        """Generated graphs and parameters (zeros and repeats, so ties and
        free suffixes are common), abandoned legs included: same order or
        same refusal, and the audit still sees every candidate."""
        rng = random.Random(seed)
        graph = build_graph(shape, count, shared, rng)
        order = rng.sample(graph.aliases, count)
        pipeline = types.SimpleNamespace(
            order=order,
            join_graph=graph,
            abandon_counts={
                alias: rng.randrange(1, 3)
                for alias in order
                if rng.random() < 0.3
            },
        )
        config = AdaptiveConfig(switch_benefit_threshold=threshold)
        provider = TableProvider(seed)
        expected = unpruned_driving_switch(pipeline, provider, config)
        assert decide_driving_switch(pipeline, provider, config) == expected
        audit: dict = {}
        assert (
            decide_driving_switch(pipeline, provider, config, audit) == expected
        )
        assert set(audit) == set(order)

    def test_ruled_out_candidates_are_not_searched(self, three_table_db):
        pipeline, config = started_pipeline(three_table_db)
        driving = {alias: (1000.0, 1000.0) for alias in pipeline.order}
        driving[pipeline.order[0]] = (1.0, 1.0)
        provider = FixedProvider(
            driving, {alias: (1.0, 1.0) for alias in pipeline.order}
        )
        asked = []
        inner_params = provider.inner_params

        def counting(alias, bound):
            asked.append(alias)
            return inner_params(alias, bound)

        provider.inner_params = counting
        assert decide_driving_switch(pipeline, provider, config) is None
        # The current order was costed; no candidate's suffix was.
        assert len(asked) == len(pipeline.order) - 1

    @pytest.mark.parametrize(
        "mode",
        [ReorderMode.DRIVING_ONLY, ReorderMode.BOTH],
        ids=lambda m: m.name.lower(),
    )
    def test_both_grids_decide_as_the_unpruned_loop(self, mode, monkeypatch):
        """All 696 statements on the engine: rows in order, WorkMeter,
        events and final order of a first execution are the unpruned
        loop's (what the parent commit ran). First chunks of 32: at 256
        most scans here are one chunk, whose checks apply nothing."""
        monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 32)
        db, _ = load_dmv(
            scale=0.02, extended=True, backend="columnar", plan_cache_size=0
        )
        config = AdaptiveConfig(mode=mode)

        def run():
            return [
                (
                    result.rows,
                    dataclasses.asdict(result.stats.work),
                    result.stats.events,
                    result.final_order,
                    result.stats.driving_checks,
                )
                for result in (db.execute(sql, config) for sql in GRID)
            ]

        pruned = run()
        monkeypatch.setattr(
            repro.core.controller,
            "decide_driving_switch",
            unpruned_driving_switch,
        )
        assert run() == pruned
        assert sum(len(events) for _, _, events, _, _ in pruned) > 0

