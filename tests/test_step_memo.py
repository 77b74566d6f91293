"""One step memo per statement: a step program is assembled, not compiled.

A leg's probe config, group kernel or hash build, key-rank gather and
residual cells depend on the leg, the set of legs bound before it and the
access predicate chosen among them — not on their order. Every plan of a
statement under one catalog generation (its base plan and the corrected
plans feedback makes of it) shares one memo of them
(:func:`repro.executor.pipeline.memo_step`), and every step program — a
prepared record's, a monitored run's after an applied change, a corrected
plan's record — is assembled from it (:func:`repro.executor.vector.assemble`).

The differential contract: for every order one reorder or one switch
reaches, the steps assembled from a memo other orders warmed are, field by
field and kernel by kernel (by identity), the steps of a plan in that
order prepared from nothing — also where changed class selectivities
choose another access predicate for the same leg and bound set — and a
statement's second execution adds no memo entry for a context its first
one filled. Installing an entry keeps what a recompile did: every leg from
the changed position on starts an empty check count, and a leg whose
access predicate changed drops its monitor's window.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro import AdaptiveConfig, ReorderMode
from repro.dmv import load_dmv
from repro.executor import pipeline
from repro.executor.batch import BatchedPipelineExecutor
from repro.executor.pipeline import _class_selectivity, memo_step
from repro.executor.vector import assemble

from tests.test_cyclic_graphs import SQL as CYCLIC, build_cyclic_db
from tests.test_plan_cache import GRID, SCALE
from tests.test_vector_limits import HASHED, hand_off_db

# Both grids at an even stride: four- and six-table statements.
SAMPLE = GRID[::97]


@pytest.fixture(scope="module")
def dmv():
    db, _ = load_dmv(
        scale=SCALE, extended=True, backend="columnar", plan_cache_size=0
    )
    return db


def cases(dmv):
    """``(db, sql)`` of the sampled grid statements, a hash-probed and a
    cyclic one."""
    return [
        *((dmv, sql) for sql in SAMPLE),
        (hand_off_db("columnar"), HASHED),
        (build_cyclic_db(backend="columnar"), CYCLIC),
    ]


def connected(graph, order) -> bool:
    return all(
        graph.available_predicates(alias, order[:position])
        for position, alias in enumerate(order)
        if position
    )


def one_change_away(plan) -> list[tuple[str, ...]]:
    """Every connected order one inner reorder (a permuted suffix) or one
    driving switch (another leg drives, any order behind it) reaches from
    *plan*'s."""
    graph = plan.query.join_graph()
    order = plan.order
    reached = set()
    for position in range(1, len(order) - 1):
        for suffix in itertools.permutations(order[position:]):
            reached.add(order[:position] + suffix)
    for moved in itertools.permutations(order):
        if moved[0] != order[0]:
            reached.add(moved)
    reached.discard(order)
    return sorted(o for o in reached if connected(graph, o))


def selectivity(plan, class_selectivities=None):
    graph = plan.query.join_graph()
    chosen = (
        plan.class_selectivities
        if class_selectivities is None
        else class_selectivities
    )
    return lambda predicate: _class_selectivity(graph, chosen, predicate)


def warm_steps(bindings, plan, order, class_selectivities=None):
    """*order*'s steps and takers assembled from the memo of *bindings*."""
    sel_of = selectivity(plan, class_selectivities)
    program = {
        order[position]: memo_step(bindings, order, position, sel_of)
        for position in range(1, len(order))
    }
    return assemble(order, program, {}, bindings)


def fresh_steps(db, plan):
    """The record's steps and takers of *plan*, prepared from nothing."""
    assert "_prepared" not in plan.__dict__
    record = plan.prepared(db.catalog, pipeline._prepare)
    steps, _, takers = record.cascade
    return list(steps), takers


def by_array(taker):
    """What a ``take`` bound method gathers from, and that it takes."""
    if taker is None or isinstance(taker, str):
        return taker
    assert taker.__name__ == "take"
    return id(taker.__self__)


def assert_steps_alike(got, want, where) -> None:
    (steps, takers), (fresh, fresh_takers) = got, want
    assert len(steps) == len(fresh), where
    for step, other in zip(steps, fresh):
        for field in step._fields:
            mine, theirs = getattr(step, field), getattr(other, field)
            if field == "kernel":
                assert mine is theirs, (where, step.alias)
            elif field in ("translate", "gather", "touched", "evals"):
                assert by_array(mine) == by_array(theirs), (where, step.alias, field)
            elif field == "probe":
                assert (mine is None) == (theirs is None), (where, step.alias)
                if mine is None:
                    continue
                assert mine.build is theirs.build, (where, step.alias)
                assert len(mine.residuals) == len(theirs.residuals)
                for residual, twin in zip(mine.residuals, theirs.residuals):
                    assert residual[0] == twin[0], (where, step.alias)
                    for cells, twin_cells in zip(residual[1:], twin[1:]):
                        assert (cells is None) == (twin_cells is None)
                        if cells is not None:
                            assert np.array_equal(cells, twin_cells), where
            else:
                assert mine == theirs, (where, step.alias, field)
    assert [at for at, _ in takers] == [at for at, _ in fresh_takers], where
    assert [by_array(take) for _, take in takers] == [
        by_array(take) for _, take in fresh_takers
    ], where


def test_assembled_steps_equal_a_freshly_prepared_plans(dmv):
    checked = 0
    for db, sql in cases(dmv):
        plan = db.plan(sql)
        bindings = plan.prepared(db.catalog, pipeline._prepare).bindings
        for order in one_change_away(plan):
            got = warm_steps(bindings, plan, order)
            assert_steps_alike(
                got, fresh_steps(db, plan.with_order(order)), (sql, order)
            )
            checked += 1
    assert checked > 300, checked


def two_access_paths(plan, bindings):
    """``(order, position, class selectivities)`` where the leg at
    *position* of *order* has join predicates of two classes available on
    indexed columns and the returned selectivities choose the one the
    plan's do not; None when no order of *plan* has such a leg."""
    graph = bindings.join_graph
    sel_of = selectivity(plan)
    for order in [plan.order, *one_change_away(plan)]:
        for position in range(1, len(order)):
            alias = order[position]
            indexes = bindings.legs[alias].indexes
            indexed = [
                p
                for p in graph.available_predicates(alias, order[:position])
                if p.column_of(alias) in indexes
            ]
            if len({graph.class_id(p.left, p.left_column) for p in indexed}) < 2:
                continue
            chosen = min(indexed, key=sel_of)
            other = next(p for p in indexed if p is not chosen)
            altered = dict(plan.class_selectivities)
            altered[graph.class_id(other.left, other.left_column)] = 1e-9
            return order, position, altered
    return None


def test_changed_selectivities_choose_another_entry_for_the_same_context(dmv):
    """One leg and bound set, two access predicates: two memo entries, each
    the step a plan prepared from nothing under those selectivities has.
    (The cyclic statement's third leg joins both legs before it through
    indexed columns of two classes.)"""
    found = 0
    for db, sql in cases(dmv):
        plan = db.plan(sql)
        bindings = plan.prepared(db.catalog, pipeline._prepare).bindings
        spot = two_access_paths(plan, bindings)
        if spot is None:
            continue
        order, position, altered = spot
        usual = warm_steps(bindings, plan, order)
        moved = warm_steps(bindings, plan, order, altered)
        alias = order[position]
        bound = frozenset(order[:position])
        entries = {
            key[2]: step for key, step in bindings.memo.items()
            if key[:2] == (alias, bound)
        }
        assert len(entries) == 2, sql
        usual_step, moved_step = usual[0][position - 1], moved[0][position - 1]
        access = (
            usual_step.config.access_predicate,
            moved_step.config.access_predicate,
        )
        assert access[0] != access[1] and set(access) == set(entries), sql
        assert usual_step.kernel is entries[access[0]].kernel
        assert moved_step.kernel is entries[access[1]].kernel
        twin = dataclasses.replace(plan, class_selectivities=altered)
        assert_steps_alike(
            moved, fresh_steps(db, twin.with_order(order)), (sql, order)
        )
        found += 1
    assert found, "no statement has a leg with two access paths"


def test_execution_two_adds_no_entry_for_a_context_execution_one_filled(
    dmv, monkeypatch
):
    """Execution 1 learns a corrected plan; execution 2 prepares that
    plan's record from the memo the two share, building only entries for
    contexts execution 1 never reached."""
    built: list[str] = []
    leg_step = pipeline.leg_step

    def recording(alias, config, legs):
        step = leg_step(alias, config, legs)
        built.append(alias)
        return step

    monkeypatch.setattr(pipeline, "leg_step", recording)
    db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    learned = reused = 0
    for sql in GRID[::23]:
        first = db.execute(sql, config)
        record = first.plan.__dict__["_prepared"]
        memo = record.bindings.memo
        filled = dict(memo)
        del built[:]
        second = db.execute(sql, config)
        if second.plan is first.plan:
            continue  # nothing learned: the same record
        learned += 1
        assert second.plan.__dict__["_prepared"].bindings.memo is memo, sql
        added = {key for key in memo if key not in filled}
        assert len(built) == len(added), sql
        assert all(memo[key] is step for key, step in filled.items()), sql
        kept = {id(step) for step in filled.values()}
        program = second.plan.__dict__["_prepared"].program
        reused += sum(id(step) in kept for step in program.values())
    assert learned, "no statement learned a corrected plan"
    assert reused, "no corrected record reused an entry"


def test_installing_keeps_a_recompiles_side_effects():
    """From the changed position on each leg gets the memo's entry for
    where it is and an empty check count; the leg whose access predicate
    the new class selectivities change also drops its window, a leg
    before the position keeps everything."""
    db = build_cyclic_db(backend="columnar")
    plan = db.plan(CYCLIC)
    bindings = plan.prepared(db.catalog, pipeline._prepare).bindings
    order, position, altered = two_access_paths(plan, bindings)
    moved = plan.with_order(order)
    executor = BatchedPipelineExecutor(
        moved, db.catalog, AdaptiveConfig(mode=ReorderMode.BOTH)
    )
    for alias in order[1:]:
        leg = executor.legs[alias]
        leg.monitor.record_probe(3, 1, 7.0)
        leg.incoming_since_check = 5
    before = {alias: executor.legs[alias].probe_config for alias in order}
    executor.class_selectivities.update(altered)
    executor._install_probes(position)
    bindings = executor.prepared.bindings
    for at, alias in enumerate(order[1:], 1):
        leg = executor.legs[alias]
        if at < position:
            assert leg.probe_config is before[alias]
            assert leg.incoming_since_check == 5
            assert leg.monitor.lifetime_incoming == 1
            continue
        entry = memo_step(bindings, order, at, executor.predicate_selectivity)
        assert executor.program[alias] is entry
        assert leg.probe_config is entry.config
        assert leg.incoming_since_check == 0
        changed = entry.config.access_predicate != before[alias].access_predicate
        assert changed == (at == position), alias
        assert leg.monitor.lifetime_incoming == (0 if changed else 1), alias
