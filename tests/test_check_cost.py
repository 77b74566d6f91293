"""What a chunk boundary's checks may cost, by counting — no timers.

A boundary models the pipeline once: the inner and the driving check share
one :class:`~repro.optimizer.params.ModelProvider` (lazily built models,
calibrations, ``inner_params`` memo) whenever nothing can have moved in
between, and only then. This file pins both halves:

* cost — each leg's model is built at most once per boundary, a kept
  boundary compiles no probe and builds no kernel plan, an applied inner
  reorder recompiles the permuted suffix and nothing before it;
* invalidation — the driving check models afresh after an applied inner
  reorder, after a ``dynamic_access_path`` spec refresh, after any monitor
  fold (the scalar oracle's checks at deeper positions, a produced driving
  row);
* the decision audit records what it recorded before the snapshot was
  shared;
* the starting order's probe program rides with the plan: a second
  execution compiles no probe before its first applied change and searches
  no key array, and what it installs is what it would have compiled.

``tests/test_check_identity.py`` holds the other side of the bargain: the
decisions themselves did not move.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy
import pytest

import repro.core.controller
import repro.executor.vector
from repro import AdaptiveConfig, HashProbePolicy, ReorderMode
from repro.core.controller import AdaptationController
from repro.core.monitor import LegMonitor
from repro.core.ranks import RuntimeModelBuilder
from repro.dmv import load_dmv
from repro.dmv.templates import four_table_workload, six_table_workload
from repro.executor.access import ProbeConfig, RuntimeLeg
from repro.executor import vector
from repro.executor.batch import BatchedPipelineExecutor
from repro.executor.pipeline import PipelineExecutor
from repro.obs.explain import render_explain_analyze
from repro.obs.recorder import FlightRecorder

from tests.test_plan_cache import SCALE
from tests.test_vector_limits import executor_class

STATEMENTS = [query.sql for query in six_table_workload(count=96)]
# The CI "check-cost smoke" statement (X2, make 'Porsche').
PORSCHE = (
    "SELECT o.name, a.damage, t.year "
    "FROM Owner o, Car c, Demographics d, Accidents a, Location l, Time t "
    "WHERE c.ownerid = o.id AND o.id = d.ownerid AND c.id = a.carid "
    "AND a.locationid = l.id AND a.timeid = t.id "
    "AND c.make = 'Porsche' AND d.salary < 55000 "
    "AND l.urban = 1 AND t.month = 6 AND a.damage > 10000"
)
FOUR_TABLE = [query.sql for query in four_table_workload(queries_per_template=2)]


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    """A scale-0.02 driving scan still crosses several chunk boundaries
    before it ends: chunks double while nothing changes, and the boundary
    that ends the scan asks nothing (these executors have no entry)."""
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 4)


@pytest.fixture(scope="module")
def columnar():
    db, _ = load_dmv(
        scale=SCALE, extended=True, backend="columnar", plan_cache_size=0
    )
    return db


@pytest.fixture(scope="module")
def row():
    db, _ = load_dmv(scale=SCALE, extended=True, plan_cache_size=0)
    return db


class CheckLog:
    """The checks of one execution, in order, with the provider each used.

    ``("inner", driving rows, position, provider, new suffix | None)`` and
    ``("driving", driving rows, provider, new order | None)``, plus
    ``("fold",)`` for every probe a monitor folded in, ``("model", alias)``
    for every run-time model built and ``("hook", driving rows)`` whenever
    the executor calls one of the controller's two hooks.
    """

    def __init__(self, monkeypatch) -> None:
        self.entries: list[tuple] = []
        controller = repro.core.controller
        decide_inner = controller.decide_inner_order
        decide_driving = controller.decide_driving_switch
        table_model = RuntimeModelBuilder._table_model
        record_probe = LegMonitor.record_probe
        log = self.entries

        def inner(pipeline, provider, position, policy):
            decision = decide_inner(pipeline, provider, position, policy)
            log.append(
                ("inner", pipeline.driving_rows_total, position, provider, decision)
            )
            return decision

        def driving(pipeline, provider, config, audit_costs=None):
            decision = decide_driving(pipeline, provider, config, audit_costs)
            log.append(
                ("driving", pipeline.driving_rows_total, provider, decision)
            )
            return decision

        def model(builder, alias, remaining_fraction=1.0):
            log.append(("model", alias))
            return table_model(builder, alias, remaining_fraction)

        def fold(monitor, *sample):
            log.append(("fold",))
            return record_probe(monitor, *sample)

        for name in ("on_suffix_depleted", "on_pipeline_depleted"):
            monkeypatch.setattr(
                AdaptationController,
                name,
                self._announced(getattr(AdaptationController, name)),
            )
        monkeypatch.setattr(controller, "decide_inner_order", inner)
        monkeypatch.setattr(controller, "decide_driving_switch", driving)
        monkeypatch.setattr(RuntimeModelBuilder, "_table_model", model)
        monkeypatch.setattr(LegMonitor, "record_probe", fold)

    def _announced(self, hook):
        def announced(controller, *args):
            self.entries.append(("hook", controller.pipeline.driving_rows_total))
            return hook(controller, *args)

        return announced

    def clear(self) -> None:
        del self.entries[:]

    def checks(self) -> list[tuple]:
        return [entry for entry in self.entries if entry[0] in ("inner", "driving")]

    def boundaries(self) -> list[list[tuple]]:
        """The entries between hook calls, grouped by driving rows produced:
        on the engine, one group per chunk boundary."""
        groups: list[list[tuple]] = []
        at = None
        for entry in self.entries:
            if entry[0] == "hook":
                if entry[1] != at:
                    at = entry[1]
                    groups.append([])
            elif groups:
                groups[-1].append(entry)
        return groups


def run(db, sql, config, order=None):
    """Execute *sql* on a hand-built executor; ``(executor, controller)``.

    *order* starts it from another order than the optimizer's (what a
    statement's learned executions do).
    """
    executor_cls = executor_class(db)
    controller = AdaptationController(config)
    plan = db.plan(sql)
    if order is not None:
        plan = plan.with_order(order)
    executor = executor_cls(plan, db.catalog, config, controller)
    controller.attach(executor)
    executor.run_to_completion()
    return executor, controller


# ---------------------------------------------------------------------------
# Cost: what one boundary builds
# ---------------------------------------------------------------------------
def test_a_boundary_builds_each_legs_model_at_most_once(columnar, monkeypatch):
    """On the engine both checks of a boundary run back to back: one
    snapshot, six models at most — twice that only where the inner check
    changed the order under the driving check's feet."""
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    boundaries = kept = 0
    log = CheckLog(monkeypatch)
    for sql in STATEMENTS:
        log.clear()
        run(columnar, sql, config)
        for boundary in log.boundaries():
            built = Counter(entry[1] for entry in boundary if entry[0] == "model")
            reordered = any(
                entry[0] == "inner" and entry[4] is not None for entry in boundary
            )
            boundaries += 1
            kept += not reordered
            assert max(built.values()) <= (2 if reordered else 1), sql
    assert boundaries > 200 and kept > 100, (boundaries, kept)


def test_a_kept_boundary_compiles_and_plans_nothing(columnar, monkeypatch):
    """Probes are compiled at open and after an applied change, the kernel
    plan once per boundary that applied one: nothing per kept boundary."""
    compiles: list[str] = []
    plans: list[int] = []
    compile_probe = RuntimeLeg.compile_probe
    adaptive_plan = repro.executor.vector._adaptive_plan

    def counting_compile(leg, *args, **kwargs):
        compiles.append(leg.alias)
        return compile_probe(leg, *args, **kwargs)

    def counting_plan(executor):
        plans.append(executor.driving_rows_total)
        return adaptive_plan(executor)

    monkeypatch.setattr(RuntimeLeg, "compile_probe", counting_compile)
    monkeypatch.setattr(repro.executor.vector, "_adaptive_plan", counting_plan)
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    quiet = 0
    for sql in STATEMENTS:
        order = None
        for _ in range(3):  # the optimizer's order, then what the run before ended on
            del compiles[:], plans[:]
            executor, controller = run(columnar, sql, config, order)
            order = tuple(executor.order)
            assert executor.engine_used == "vector-adaptive"
            inner_legs = len(executor.order) - 1
            recompiled = sum(
                inner_legs - (event.position or 1) + 1 for event in executor.events
            )
            assert len(compiles) == inner_legs + recompiled, sql
            changed_boundaries = {e.driving_rows_produced for e in executor.events}
            assert len(plans) == 1 + len(changed_boundaries), sql
            if not executor.events and controller.inner_checks > 1:
                quiet += 1
    assert quiet > 0, "no statement crossed several boundaries and kept them all"


def test_an_applied_inner_reorder_recompiles_only_the_permuted_suffix(
    row, monkeypatch
):
    """The scalar oracle reorders at every depth: legs before the permuted
    position keep their probe (``probe_epoch`` does not move), each leg
    from it on is compiled exactly once."""
    seen = []
    apply_inner_order = PipelineExecutor.apply_inner_order

    def watching(executor, position, new_suffix):
        before = {alias: leg.probe_epoch for alias, leg in executor.legs.items()}
        order = list(executor.order)
        apply_inner_order(executor, position, new_suffix)
        moved = {
            alias
            for alias, leg in executor.legs.items()
            if leg.probe_epoch != before[alias]
        }
        assert moved == set(order[position:])
        assert all(
            executor.legs[alias].probe_epoch == before[alias] + 1 for alias in moved
        )
        seen.append(position)

    monkeypatch.setattr(PipelineExecutor, "apply_inner_order", watching)
    config = AdaptiveConfig(mode=ReorderMode.INNER_ONLY)
    for sql in STATEMENTS[:8]:
        run(row, sql, config)
    assert any(position > 1 for position in seen)


# ---------------------------------------------------------------------------
# Invalidation: when the driving check must model afresh
# ---------------------------------------------------------------------------
def test_snapshot_is_shared_when_kept_and_rebuilt_after_an_applied_reorder(
    columnar, monkeypatch
):
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    shared = rebuilt = 0
    log = CheckLog(monkeypatch)
    for sql in STATEMENTS:
        log.clear()
        run(columnar, sql, config)
        checks = log.checks()
        for before, after in zip(checks, checks[1:]):
            if before[0] != "inner" or after[0] != "driving":
                continue
            assert before[1] == after[1], "the engine checks back to back"
            if before[4] is None:
                assert after[2] is before[3], sql
                shared += 1
            else:
                assert after[2] is not before[3], sql
                rebuilt += 1
    assert shared > 100 and rebuilt > 5, (shared, rebuilt)


def test_snapshot_is_rebuilt_after_a_dynamic_access_path_refresh(
    columnar, monkeypatch
):
    """A spec refresh replaces a leg's plan-invariant model parts: the
    inner check's models are of the old spec."""
    config = AdaptiveConfig(
        mode=ReorderMode.BOTH, dynamic_access_path=True
    )
    refresh = AdaptationController._refresh_dynamic_specs
    outcomes = []

    def watching(controller):
        parts = {
            alias: leg.model_parts for alias, leg in controller.pipeline.legs.items()
        }
        refreshed = refresh(controller)
        moved = any(
            leg.model_parts is not parts[alias]
            for alias, leg in controller.pipeline.legs.items()
        )
        assert refreshed == moved
        outcomes.append(refreshed)
        return refreshed

    monkeypatch.setattr(AdaptationController, "_refresh_dynamic_specs", watching)
    saw = Counter()
    log = CheckLog(monkeypatch)
    for sql in FOUR_TABLE + STATEMENTS[:8]:
        log.clear()
        del outcomes[:]
        run(columnar, sql, config)
        checks = log.checks()
        driving = [entry for entry in checks if entry[0] == "driving"]
        assert len(driving) == len(outcomes)
        for before, after in zip(checks, checks[1:]):
            if before[0] == "inner" and after[0] == "driving" and before[4] is None:
                refreshed = outcomes[driving.index(after)]
                assert (after[2] is before[3]) == (not refreshed), sql
                saw[refreshed] += 1
    assert saw[True] > 0 and saw[False] > 0


def test_oracle_never_shares_across_a_monitor_fold(row, monkeypatch):
    """The scalar oracle checks per row at every depth. Only a kept check
    at position 1 leaves the whole pipeline depleted; after a deeper one,
    or once the driving leg has produced another row, probes have folded
    into the windows and the driving check models afresh."""
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    shared = folded = 0
    log = CheckLog(monkeypatch)
    for sql in STATEMENTS[:8]:
        log.clear()
        run(row, sql, config)
        previous = None
        deeper = []  # providers of inner checks below position 1
        folds_since_deeper = 0
        for entry in log.entries:
            if entry[0] == "fold":
                folds_since_deeper += bool(deeper)
            elif entry[0] == "inner" and entry[2] > 1:
                deeper.append(entry[3])
            elif entry[0] == "driving":
                assert all(entry[2] is not provider for provider in deeper), sql
                folded += bool(folds_since_deeper)
                if previous is not None and entry[2] is previous[3]:
                    # Straight from a kept check at position 1.
                    assert previous[0] == "inner" and previous[2] == 1
                    assert previous[4] is None and previous[1] == entry[1]
                    shared += 1
                deeper, folds_since_deeper = [], 0
            if entry[0] in ("inner", "driving"):
                previous = entry
    assert shared > 0 and folded > 0, (shared, folded)


def test_the_hand_off_names_its_boundary(row):
    """A hand-off is good for the boundary it was made at — no driving row
    produced since — and for no other. (A provider that is no provider
    shows which one the driving check picked up.)"""
    config = AdaptiveConfig(mode=ReorderMode.DRIVING_ONLY)
    static = row.execute(row.plan(STATEMENTS[0]), AdaptiveConfig(mode=ReorderMode.NONE))

    def planted(driving_rows):
        controller = AdaptationController(config)
        executor = PipelineExecutor(
            row.plan(STATEMENTS[0]), row.catalog, config, controller
        )
        controller.attach(executor)
        controller._handoff = (driving_rows, object())
        return executor, controller

    executor, controller = planted(config.check_frequency - 1)
    assert sorted(executor.run_to_completion()) == sorted(static.rows)
    assert controller.driving_checks > 0 and controller._handoff is None
    # The scalar machine's first driving check comes after check_frequency rows.
    executor, _ = planted(config.check_frequency)
    with pytest.raises(AttributeError):
        executor.run_to_completion()


def test_decision_records_are_those_of_unshared_snapshots(columnar, monkeypatch):
    """Flight-recorder ``DecisionRecord``s (candidate costs, rank terms,
    window estimates) with the snapshot shared equal those of a controller
    that models every check afresh."""
    config = AdaptiveConfig(mode=ReorderMode.BOTH)

    def audited(sql):
        recorder = FlightRecorder()
        bundle = recorder.arm()
        result = columnar.execute(columnar.plan(sql), config, obs=bundle)
        return result.decisions, result.stats.events

    shared = [audited(sql) for sql in STATEMENTS]
    inner_check = AdaptationController.on_suffix_depleted

    def never_hand_over(controller, position):
        inner_check(controller, position)
        controller._handoff = None

    monkeypatch.setattr(AdaptationController, "on_suffix_depleted", never_hand_over)
    assert [audited(sql) for sql in STATEMENTS] == shared
    applied = sum(d.applied for decisions, _ in shared for d in decisions)
    assert applied > 5 and any(
        d.check == "driving" and d.candidate_costs
        for decisions, _ in shared
        for d in decisions
    )


# ---------------------------------------------------------------------------
# check_seconds
# ---------------------------------------------------------------------------
def test_check_seconds_is_reported_and_zero_without_checks(columnar):
    both = columnar.execute(PORSCHE, AdaptiveConfig(mode=ReorderMode.BOTH))
    checks = both.stats.inner_checks + both.stats.driving_checks
    assert checks > 0 and 0.0 < both.stats.check_seconds < both.stats.wall_seconds
    for mode in (ReorderMode.NONE, ReorderMode.MONITOR_ONLY):
        idle = columnar.execute(PORSCHE, AdaptiveConfig(mode=mode))
        assert idle.stats.check_seconds == 0.0
    explained = columnar.execute(
        PORSCHE, AdaptiveConfig(mode=ReorderMode.BOTH), obs=True
    )
    line = next(
        line
        for line in render_explain_analyze(explained).splitlines()
        if line.startswith("checks:")
    )
    assert " ms, " in line and "us per check" in line


# ---------------------------------------------------------------------------
# The starting probe program rides with the plan
# ---------------------------------------------------------------------------
def permuted_suffix_compiles(executor) -> int:
    """Probe compiles the applied events of *executor* account for: an
    inner reorder recompiles from its position on, a switch every inner leg."""
    inner_legs = len(executor.order) - 1
    return sum(inner_legs - (event.position or 1) + 1 for event in executor.events)


def run_plan(db, plan, config, running=None):
    """Execute *plan*; *running*, a list, holds the executor meanwhile."""
    executor_cls = executor_class(db)
    controller = AdaptationController(config)
    executor = executor_cls(plan, db.catalog, config, controller)
    controller.attach(executor)
    if running is not None:
        running[:] = [executor]
    rows = executor.run_to_completion()
    return executor, rows


@pytest.mark.parametrize("mode", [ReorderMode.NONE, ReorderMode.BOTH])
def test_second_execution_compiles_no_starting_probe_and_searches_no_keys(
    columnar, monkeypatch, mode
):
    """The first execution of a plan compiles the starting order's probes
    and builds the rank arrays it gathers through; the second installs and
    gathers. Recompiles after an applied change stay what they were."""
    starting: list[str] = []  # compiles before the first applied change
    compiles: list[str] = []
    searches: list[int] = []
    running: list = []
    compile_probe = RuntimeLeg.compile_probe
    searchsorted = numpy.searchsorted

    def counting_compile(leg, *args, **kwargs):
        compiles.append(leg.alias)
        (executor,) = running
        if tuple(executor.order) == executor.plan.order and not executor.events:
            starting.append(leg.alias)
        return compile_probe(leg, *args, **kwargs)

    def counting_search(*args, **kwargs):
        searches.append(1)
        return searchsorted(*args, **kwargs)

    monkeypatch.setattr(RuntimeLeg, "compile_probe", counting_compile)
    monkeypatch.setattr(numpy, "searchsorted", counting_search)
    config = AdaptiveConfig(mode=mode)
    changed = 0
    for sql in STATEMENTS:
        plan = columnar.plan(sql)  # cache off: a plan no one has executed
        first, first_rows = run_plan(columnar, plan, config, running)
        inner_legs = len(plan.order) - 1
        assert len(starting) == inner_legs, sql
        assert len(compiles) == inner_legs + permuted_suffix_compiles(first)
        del starting[:], compiles[:], searches[:]
        second, second_rows = run_plan(columnar, plan, config, running)
        assert starting == [] and searches == [], sql
        assert len(compiles) == permuted_suffix_compiles(second), sql
        assert second_rows == first_rows
        assert second.work == first.work and second.events == first.events
        assert second.order_history == first.order_history
        # Probe epochs count installs like compiles.
        assert {a: leg.probe_epoch for a, leg in second.legs.items()} == {
            a: leg.probe_epoch for a, leg in first.legs.items()
        }
        assert second.engine_used == first.engine_used
        changed += bool(second.events)
        del compiles[:]
    assert (changed > 5) == mode.reorders_driving


def probe_facts(config: ProbeConfig, binding: dict) -> dict:
    """Every field of *config*; the getters by what they read off *binding*."""
    facts = {
        field.name: getattr(config, field.name)
        for field in dataclasses.fields(ProbeConfig)
    }
    getter = facts.pop("key_getter")
    facts["key_read"] = None if getter is None else getter(binding)
    facts["residual_reads"] = tuple(
        (get_outer(binding), slot) for get_outer, slot in facts.pop("residual_joins")
    )
    return facts


@pytest.mark.parametrize("policy", list(HashProbePolicy))
def test_installed_probe_configs_are_the_freshly_compiled_ones(columnar, policy):
    """Both grids, every statement: what the plan's second executor
    installs equals, field by field, what an executor of a plan no one has
    bound compiles."""
    from tests.test_plan_cache import GRID

    config = AdaptiveConfig(
        mode=ReorderMode.BOTH, hash_probe_policy=policy
    )
    hashed = 0
    for sql in GRID:
        plan = columnar.plan(sql)
        executors = [
            BatchedPipelineExecutor(candidate, columnar.catalog, config)
            for candidate in (plan, plan, columnar.plan(sql))
        ]
        for executor in executors:
            executor._compile_all_probes()
        published, installed, fresh = executors
        binding = {
            alias: leg.table.raw_rows()[0] for alias, leg in fresh.legs.items()
        }
        for alias in plan.order[1:]:
            shared = installed.legs[alias].probe_config
            assert shared is published.legs[alias].probe_config
            compiled = fresh.legs[alias].probe_config
            assert shared is not compiled and shared == compiled, sql
            assert probe_facts(shared, binding) == probe_facts(compiled, binding)
            assert installed.legs[alias].probe_epoch == 1
            assert installed.legs[alias].positional is None
            hashed += shared.hash_column is not None
    assert (hashed > 0) == (policy is HashProbePolicy.ALWAYS)


def test_one_plan_under_two_hash_policies_shares_no_probe(columnar, row):
    sql = STATEMENTS[0]
    plan = columnar.plan(sql)
    oracle = sorted(row.execute(row.plan(sql), AdaptiveConfig(mode=ReorderMode.NONE)).rows)
    legs = {}
    for policy in (HashProbePolicy.ALWAYS, HashProbePolicy.OFF):
        config = AdaptiveConfig(
            mode=ReorderMode.NONE, hash_probe_policy=policy
        )
        for _ in range(2):
            executor, rows = run_plan(columnar, plan, config)
            assert sorted(rows) == oracle
        legs[policy] = executor.legs
    programs = plan.probe_programs(plan.bindings(columnar.catalog, None))
    assert set(programs) == {HashProbePolicy.ALWAYS, HashProbePolicy.OFF}
    always, off = (programs[policy] for policy in programs)
    for alias in plan.order[1:]:
        assert always[alias].hash_column is not None
        assert off[alias].hash_column is None and off[alias].access_index is not None
        assert legs[HashProbePolicy.OFF][alias].probe_config is off[alias]


def test_a_pipeline_that_left_the_plan_compiles_for_where_it_is(columnar):
    """The program is the *plan's* order under the *plan's* selectivities:
    an executor moved off either before its first compile gets no install
    and publishes nothing."""
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    plan = columnar.plan(PORSCHE)
    moved = BatchedPipelineExecutor(plan, columnar.catalog, config)
    class_id = next(iter(moved.class_selectivities))
    moved.class_selectivities[class_id] *= 0.5
    moved._compile_all_probes()
    programs = plan.probe_programs(plan.bindings(columnar.catalog, None))
    assert programs == {}
    usual = BatchedPipelineExecutor(plan, columnar.catalog, config)
    usual._compile_all_probes()
    (program,) = programs.values()
    shared = dict(program)
    # Recompiling (what an applied reorder does) gives the executor configs
    # of its own and leaves the plan's alone.
    usual._compile_all_probes(start_position=2)
    assert usual.legs[plan.order[1]].probe_config is shared[plan.order[1]]
    assert usual.legs[plan.order[2]].probe_config is not shared[plan.order[2]]
    again = BatchedPipelineExecutor(plan, columnar.catalog, config)
    again._compile_all_probes()
    assert program == shared
    assert all(
        again.legs[alias].probe_config is shared[alias] for alias in plan.order[1:]
    )
