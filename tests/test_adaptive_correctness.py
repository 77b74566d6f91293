"""Adaptive reordering must never change query answers.

Two attack angles:

* run every reorder mode (and aggressive configurations) and compare
  against the static result and the brute-force reference evaluator;
* drive the pipeline with a *scripted* controller that performs random
  (but valid) inner reorders and driving switches at every safe point —
  far more switching than the cost-based controller would ever do — and
  verify the result multiset is exactly preserved (the DESIGN.md slab
  invariant, fuzzed).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AdaptiveConfig, ReorderMode
from repro.executor.pipeline import PipelineExecutor
from repro.query.query import QuerySpec

from tests.conftest import build_three_table_db, reference_join

QUERIES = [
    "SELECT o.name, c.make FROM Owner o, Car c WHERE c.ownerid = o.id "
    "AND c.make = 'Rare' AND o.country = 'DE'",
    "SELECT o.name FROM Owner o, Car c, Demo d "
    "WHERE c.ownerid = o.id AND o.id = d.ownerid "
    "AND (c.make = 'A' OR c.make = 'Rare') AND d.salary < 60000",
    "SELECT o.name, d.salary FROM Owner o, Car c, Demo d "
    "WHERE c.ownerid = o.id AND o.id = d.ownerid AND o.country = 'US'",
    "SELECT c.id, d.salary FROM Owner o, Car c, Demo d "
    "WHERE c.ownerid = o.id AND o.id = d.ownerid "
    "AND d.salary BETWEEN 25000 AND 90000",
]

AGGRESSIVE_CONFIGS = [
    AdaptiveConfig(mode=ReorderMode.BOTH),
    AdaptiveConfig(
        mode=ReorderMode.BOTH,
        check_frequency=1,
        history_window=5,
        switch_benefit_threshold=0.0,
        warmup_rows=1,
    ),
    AdaptiveConfig(mode=ReorderMode.INNER_ONLY, check_frequency=1, warmup_rows=1),
    AdaptiveConfig(mode=ReorderMode.DRIVING_ONLY, check_frequency=2, warmup_rows=2),
    AdaptiveConfig(mode=ReorderMode.BOTH, switch_at_key_boundary=True),
    # One-row windows, no warmup, no switch threshold: every check acts on
    # the last row alone (the Sec 5.4 fluctuation extreme).
    AdaptiveConfig(
        mode=ReorderMode.BOTH,
        check_frequency=1,
        history_window=1,
        switch_benefit_threshold=0.0,
        warmup_rows=0,
    ),
    AdaptiveConfig(mode=ReorderMode.MONITOR_ONLY),
]


def expected_rows(db, sql):
    plan = db.plan(sql)
    expanded = QuerySpec(
        tables=plan.query.tables,
        local_predicates=plan.query.local_predicates,
        join_predicates=plan.query.join_predicates,
        projection=plan.projection,
    )
    return sorted(reference_join(db, expanded))


@pytest.mark.parametrize("sql", QUERIES)
@pytest.mark.parametrize("config", AGGRESSIVE_CONFIGS)
def test_every_mode_matches_reference(sql, config, three_table_db):
    result = three_table_db.execute(sql, config)
    assert sorted(result.rows) == expected_rows(three_table_db, sql)


class ScriptedController:
    """Forces random (valid) reorders at every safe point.

    This is an adversarial stand-in for the cost-based controller: it
    exercises the duplicate-prevention machinery much harder than any
    realistic policy would.
    """

    def __init__(self, seed: int, inner_probability: float, driving_probability: float):
        self.rng = random.Random(seed)
        self.inner_probability = inner_probability
        self.driving_probability = driving_probability
        self.pipeline: PipelineExecutor | None = None
        self.switches = 0

    def attach(self, pipeline: PipelineExecutor) -> None:
        self.pipeline = pipeline

    def _random_connected_order(self, prefix):
        graph = self.pipeline.join_graph
        orders = [
            order
            for order in graph.connected_orders(tuple(prefix))
            if len(order) == len(self.pipeline.order)
        ]
        return list(self.rng.choice(orders)) if orders else None

    def on_suffix_depleted(self, position: int) -> None:
        pipeline = self.pipeline
        if position >= len(pipeline.order) - 1:
            return
        if self.rng.random() >= self.inner_probability:
            return
        order = self._random_connected_order(pipeline.order[:position])
        if order is None:
            return
        new_suffix = list(order[position:])
        if new_suffix != pipeline.order[position:]:
            pipeline.apply_inner_order(position, new_suffix)
            self.switches += 1

    def on_pipeline_depleted(self) -> bool:
        pipeline = self.pipeline
        if len(pipeline.order) < 2:
            return False
        if self.rng.random() >= self.driving_probability:
            return False
        candidates = [a for a in pipeline.order[1:]]
        self.rng.shuffle(candidates)
        for candidate in candidates:
            order = self._random_connected_order([candidate])
            if order is not None:
                pipeline.apply_driving_switch(order)
                self.switches += 1
                return True
        return False


def run_scripted(db, sql, seed, inner_probability, driving_probability):
    plan = db.plan(sql)
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    controller = ScriptedController(seed, inner_probability, driving_probability)
    executor = PipelineExecutor(plan, db.catalog, config, controller)
    controller.attach(executor)
    return sorted(executor.run_to_completion()), controller.switches


@pytest.mark.parametrize("sql", QUERIES)
def test_scripted_chaos_preserves_results(sql):
    db = build_three_table_db(owners=30, seed=3)
    expected = expected_rows(db, sql)
    total_switches = 0
    for seed in range(6):
        rows, switches = run_scripted(
            db, sql, seed, inner_probability=0.3, driving_probability=0.5
        )
        total_switches += switches
        assert rows == expected, f"seed {seed}"
    assert total_switches > 0, "the chaos controller never switched anything"


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    data_seed=st.integers(min_value=0, max_value=50),
    inner_probability=st.floats(min_value=0.0, max_value=1.0),
    driving_probability=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_random_schedules_and_data(
    seed, data_seed, inner_probability, driving_probability
):
    """Property: any switch schedule on any data preserves the answer."""
    db = build_three_table_db(owners=20, seed=data_seed)
    sql = (
        "SELECT o.name, c.make, d.salary FROM Owner o, Car c, Demo d "
        "WHERE c.ownerid = o.id AND o.id = d.ownerid AND d.salary < 70000"
    )
    expected = expected_rows(db, sql)
    rows, _ = run_scripted(db, sql, seed, inner_probability, driving_probability)
    assert rows == expected


def test_switch_back_and_forth_is_exact():
    """Deterministic A->B->A->B driving ping-pong loses and repeats nothing."""
    db = build_three_table_db(owners=25, seed=11)
    sql = (
        "SELECT o.id, c.id FROM Owner o, Car c WHERE c.ownerid = o.id"
    )
    expected = expected_rows(db, sql)

    class PingPong:
        def __init__(self):
            self.pipeline = None

        def attach(self, pipeline):
            self.pipeline = pipeline

        def on_suffix_depleted(self, position):
            return None

        def on_pipeline_depleted(self):
            pipeline = self.pipeline
            if pipeline.driving_rows_since_check < 3:
                return False
            other = [a for a in pipeline.order[1:]]
            pipeline.apply_driving_switch(other + [pipeline.order[0]])
            return True

    plan = db.plan(sql)
    controller = PingPong()
    executor = PipelineExecutor(
        plan, db.catalog, AdaptiveConfig(mode=ReorderMode.BOTH), controller
    )
    controller.attach(executor)
    rows = sorted(executor.run_to_completion())
    assert rows == expected
    assert executor.driving_switches >= 3
