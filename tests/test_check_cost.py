"""What a check may cost, by counting — no timers but one loose bound.

A monitored run reads one live model (:class:`~repro.core.ranks.
RuntimeModel`): each leg's :class:`~repro.optimizer.params.TableModel`,
built once a run and refreshed only where its inputs moved, and one
:class:`~repro.optimizer.params.ModelProvider` whose ``inner_params`` memo
lasts the run. This file pins both halves:

* cost — a run builds each leg's model and its provider at most once (a
  static run neither), a check takes well under 500 us, a kept boundary
  installs no probe and assembles no step program, an applied inner
  reorder re-installs the permuted suffix and nothing before it;
* invalidation — the driving check after a kept inner check refreshes
  nothing, after an applied reorder the re-installed legs; on the scalar
  oracle every leg a probe folded into is refreshed before the next check
  reads it;
* the decision audit records what a controller reading a fresh snapshot
  at every check records (``tests/test_live_model.py`` compares the
  numbers themselves);
* the starting order's probe program rides with the plan and every probe
  with the statement's step memo: a second execution compiles no probe
  and searches no key array, and what it installs is what it would have
  compiled.

``tests/test_check_identity.py`` holds the other side of the bargain: the
decisions themselves did not move.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter

import numpy
import pytest

import repro.core.controller
import repro.executor.vector
from repro import AdaptiveConfig, ReorderMode
from repro.core.controller import AdaptationController
from repro.core.ranks import RuntimeModel
from repro.dmv import load_dmv
from repro.dmv.templates import six_table_workload
from repro.executor.access import LegState, ProbeConfig, RuntimeLeg
from repro.executor import pipeline, vector
from repro.executor.batch import BatchedPipelineExecutor
from repro.executor.pipeline import PipelineExecutor, PipelineRun, memo_step
from repro.obs.explain import render_explain_analyze
from repro.obs.recorder import FlightRecorder
from repro.optimizer.params import ModelProvider, TableModel

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
    ``("fold", alias)`` for every probe a monitor folded in on the scalar
    machine, ``("model", alias)`` for every leg model built, ``("refresh",
    alias)`` for every leg model a read refreshed and ``("hook", driving
    rows)`` whenever the executor calls one of the controller's two hooks.
    """

    def __init__(self, monkeypatch) -> None:
        self.entries: list[tuple] = []
        controller = repro.core.controller
        decide_inner = controller.decide_inner_order
        decide_driving = controller.decide_driving_switch
        build = TableModel.__init__
        refresh = RuntimeModel._refresh
        probe = RuntimeLeg.probe
        log = self.entries

        def inner(pipeline, provider, position):
            decision = decide_inner(pipeline, provider, position)
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

        def model(table_model, *args, **kwargs):
            # The optimizer names its fields; only a run's count here.
            if not kwargs:
                log.append(("model", args[0]))
            build(table_model, *args, **kwargs)

        def refreshed(live, alias, leg, bound):
            log.append(("refresh", alias))
            refresh(live, alias, leg, bound)

        def fold(leg, binding):
            if leg.monitoring_enabled:
                log.append(("fold", leg.alias))
            return probe(leg, binding)

        for name in ("on_suffix_depleted", "on_pipeline_depleted"):
            monkeypatch.setattr(
                AdaptationController,
                name,
                self._announced(getattr(AdaptationController, name)),
            )
        monkeypatch.setattr(controller, "decide_inner_order", inner)
        monkeypatch.setattr(controller, "decide_driving_switch", driving)
        monkeypatch.setattr(TableModel, "__init__", model)
        monkeypatch.setattr(RuntimeModel, "_refresh", refreshed)
        monkeypatch.setattr(RuntimeLeg, "probe", fold)

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
    """On the engine both checks of a boundary run back to back, and every
    boundary of a run reads the same live model: six models at most a run,
    built at its first check, however many boundaries it crosses."""
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    boundaries = kept = 0
    log = CheckLog(monkeypatch)
    for sql in STATEMENTS:
        log.clear()
        executor, _ = run(columnar, sql, config)
        built = Counter(entry[1] for entry in log.entries if entry[0] == "model")
        assert set(built) == set(executor.order) and max(built.values()) == 1
        for boundary in log.boundaries():
            reordered = any(
                entry[0] == "inner" and entry[4] is not None for entry in boundary
            )
            boundaries += 1
            kept += not reordered
    assert boundaries > 200 and kept > 100, (boundaries, kept)


def test_a_run_builds_its_model_once_and_a_check_stays_cheap(
    columnar, monkeypatch
):
    """The X2 'Porsche' statement at a first chunk of 16, its plan handed
    in (as text its second execution runs statically and has no boundary
    left): each leg's model and the provider are built once a run — the
    first check builds them, the boundaries after it read them — and a
    check takes well under 500 us of wall (a loose bound for a shared
    runner; ``ExecutionStats.check_seconds``). A static run and a
    monitor-only one (no check) build neither."""
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 16)
    plan = columnar.plan(PORSCHE)
    built = Counter()
    for cls in (TableModel, ModelProvider):
        init = cls.__init__

        def counting(instance, *args, init=init, name=cls.__name__):
            built[name] += 1
            init(instance, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    for mode in (ReorderMode.NONE, ReorderMode.MONITOR_ONLY):
        columnar.execute(plan, AdaptiveConfig(mode=mode))
        assert not built, mode
    for _ in range(3):  # warm: kernels and rank arrays are resident
        built.clear()
        result = columnar.execute(plan, AdaptiveConfig(mode=ReorderMode.BOTH))
    stats = result.stats
    assert stats.engine == "vector-adaptive", stats.engine
    checks = stats.inner_checks + stats.driving_checks
    boundaries = {e.driving_rows_produced for e in stats.events}
    assert checks >= 4, checks
    assert built == {"TableModel": len(plan.order), "ModelProvider": 1}, built
    assert 0.0 < stats.check_seconds / checks < 500e-6, (stats.check_seconds, checks)
    assert len(boundaries) < checks // 2, "every boundary applied a change"


def test_a_kept_boundary_compiles_and_plans_nothing(columnar, monkeypatch):
    """Probes are installed at open and after an applied change, the step
    program assembled once per boundary that applied one: nothing per kept
    boundary."""
    installs: list[str] = []
    assemblies: list[int] = []
    lookup = pipeline.memo_step
    assemble = vector.assemble

    def counting_lookup(bindings, order, position, sel_of):
        installs.append(order[position])
        return lookup(bindings, order, position, sel_of)

    def counting_assemble(order, *args):
        assemblies.append(tuple(order))
        return assemble(order, *args)

    monkeypatch.setattr(pipeline, "memo_step", counting_lookup)
    monkeypatch.setattr(vector, "assemble", counting_assemble)
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    quiet = 0
    for sql in STATEMENTS:
        order = None
        for _ in range(3):  # the optimizer's order, then what the run before ended on
            del installs[:], assemblies[:]
            executor, controller = run(columnar, sql, config, order)
            order = tuple(executor.order)
            assert executor.engine_used == "vector-adaptive"
            inner_legs = len(executor.order) - 1
            assert len(installs) == inner_legs + permuted_suffix_installs(executor)
            changed_boundaries = {e.driving_rows_produced for e in executor.events}
            assert len(assemblies) == 1 + len(changed_boundaries), sql
            if not executor.events and controller.inner_checks > 1:
                quiet += 1
    assert quiet > 0, "no statement crossed several boundaries and kept them all"


def test_an_applied_inner_reorder_recompiles_only_the_permuted_suffix(
    row, monkeypatch
):
    """The scalar oracle reorders at every depth: legs before the permuted
    position keep their probe, each leg from it on is installed exactly
    once (its step memo entry, compiled on a miss)."""
    seen = []
    installed: list[str] = []
    apply_inner_order = PipelineExecutor.apply_inner_order
    install_probe = LegState.install_probe

    def counting_install(leg, config):
        installed.append(leg.alias)
        return install_probe(leg, config)

    def watching(executor, position, new_suffix):
        order = list(executor.order)
        del installed[:]
        apply_inner_order(executor, position, new_suffix)
        assert sorted(installed) == sorted(order[position:])
        seen.append(position)

    monkeypatch.setattr(LegState, "install_probe", counting_install)
    monkeypatch.setattr(PipelineExecutor, "apply_inner_order", watching)
    config = AdaptiveConfig(mode=ReorderMode.INNER_ONLY)
    for sql in STATEMENTS[:8]:
        run(row, sql, config)
    assert any(position > 1 for position in seen)


# ---------------------------------------------------------------------------
# Invalidation: what a check refreshes
# ---------------------------------------------------------------------------
def test_the_model_is_kept_when_a_check_keeps_and_refreshed_after_a_reorder(
    columnar, monkeypatch
):
    """Every check of a run reads the one provider. Between the two checks
    of a boundary nothing folds: after a kept inner check the driving check
    refreshes nothing; after an applied one it refreshes the re-installed
    legs, and only those."""
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    kept = reordered = 0
    log = CheckLog(monkeypatch)
    for sql in STATEMENTS:
        log.clear()
        run(columnar, sql, config)
        providers = {entry[-2] for entry in log.checks()}
        assert len(providers) <= 1, sql
        entries = log.entries
        for at, (before, after) in enumerate(zip(entries, entries[1:])):
            if before[0] != "inner" or after[0] != "hook":
                continue
            following = entries[at + 2 :]
            check = next(e for e in following if e[0] in ("inner", "driving"))
            if check[0] != "driving":
                continue
            assert before[1] == check[1], "the engine checks back to back"
            refreshed = {
                entry[1]
                for entry in following[: following.index(check)]
                if entry[0] == "refresh"
            }
            if before[4] is None:
                assert not refreshed, sql
                kept += 1
            else:
                assert refreshed == set(before[4]), sql
                reordered += 1
    assert kept > 100 and reordered > 5, (kept, reordered)


def test_oracle_never_shares_across_a_monitor_fold(row, monkeypatch):
    """The scalar oracle checks per row at every depth: every leg a probe
    folded into since the last check is refreshed before the next one
    reads the model. Only a kept check at position 1 leaves the whole
    pipeline depleted, so the driving check after it refreshes nothing."""
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    shared = folded = 0
    log = CheckLog(monkeypatch)
    for sql in STATEMENTS[:8]:
        log.clear()
        run(row, sql, config)
        moved: set[str] = set()
        refreshed: set[str] = set()
        previous = None
        for entry in log.entries:
            if entry[0] == "fold":
                moved.add(entry[1])
            elif entry[0] == "refresh":
                refreshed.add(entry[1])
            elif entry[0] in ("inner", "driving"):
                assert moved <= refreshed, sql
                folded += bool(moved)
                if (
                    entry[0] == "driving"
                    and previous is not None
                    and previous[0] == "inner"
                    and previous[2] == 1
                    and previous[4] is None
                    and previous[1] == entry[1]
                ):
                    assert not refreshed, sql
                    shared += 1
                moved, refreshed, previous = set(), set(), entry
    assert shared > 0 and folded > 0, (shared, folded)


def test_decision_records_are_those_of_unshared_snapshots(columnar, monkeypatch):
    """Flight-recorder ``DecisionRecord``s (candidate costs, rank terms,
    window estimates) and events read off the live model equal those of a
    controller that reads a fresh snapshot at every check."""
    from tests.test_live_model import fresh_snapshot

    config = AdaptiveConfig(mode=ReorderMode.BOTH)

    def audited(sql):
        recorder = FlightRecorder()
        bundle = recorder.arm()
        result = columnar.execute(columnar.plan(sql), config, obs=bundle)
        return result.decisions, result.stats.events

    live = [audited(sql) for sql in STATEMENTS]

    def snapshot(run):
        selectivities, provider = fresh_snapshot(run)
        run.class_selectivities.update(selectivities)
        provider.class_selectivities = run.class_selectivities
        return provider

    monkeypatch.setattr(PipelineRun, "model", snapshot)
    assert [audited(sql) for sql in STATEMENTS] == live
    applied = sum(d.applied for decisions, _ in live for d in decisions)
    assert applied > 5 and any(
        d.check == "driving" and d.candidate_costs
        for decisions, _ in live
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
def permuted_suffix_installs(executor) -> int:
    """Probe installs the applied events of *executor* account for: an
    inner reorder re-installs from its position on, a switch every inner
    leg."""
    inner_legs = len(executor.order) - 1
    return sum(inner_legs - (event.position or 1) + 1 for event in executor.events)


def run_plan(db, plan, config, running=None):
    """Execute *plan*; *running*, a list, holds the executor meanwhile."""
    executor_cls = executor_class(db)
    controller = AdaptationController(config)
    if running is not None:
        del running[:]
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
    """The first execution of a plan compiles the starting order's probes,
    and each one a change first reaches, and builds the rank arrays it
    gathers through; the second finds every probe in the step memo and
    gathers. It installs what the first installed, where the first did."""
    starting: list[str] = []  # compiles before the first applied change
    compiles: list[str] = []
    installs: list[str] = []
    searches: list[int] = []
    running: list = []
    compile_probe = pipeline.compile_probe
    install_probe = LegState.install_probe
    searchsorted = numpy.searchsorted

    def counting_compile(alias, *args):
        compiles.append(alias)
        # No executor yet: the plan's prepared record compiles its program.
        executor = running[0] if running else None
        if executor is None or (
            tuple(executor.order) == executor.plan.order and not executor.events
        ):
            starting.append(alias)
        return compile_probe(alias, *args)

    def counting_install(leg, config):
        installs.append(leg.alias)
        return install_probe(leg, config)

    def counting_search(*args, **kwargs):
        searches.append(1)
        return searchsorted(*args, **kwargs)

    monkeypatch.setattr(pipeline, "compile_probe", counting_compile)
    monkeypatch.setattr(LegState, "install_probe", counting_install)
    monkeypatch.setattr(numpy, "searchsorted", counting_search)
    config = AdaptiveConfig(mode=mode)
    changed = 0
    for sql in STATEMENTS:
        plan = columnar.plan(sql)  # cache off: a plan no one has executed
        first, first_rows = run_plan(columnar, plan, config, running)
        first_installs = sorted(installs)
        inner_legs = len(plan.order) - 1
        assert len(starting) == inner_legs, sql
        assert len(compiles) <= inner_legs + permuted_suffix_installs(first)
        # A static run has no legs: it installs nothing.
        assert len(installs) == mode.monitors * (
            inner_legs + permuted_suffix_installs(first)
        )
        del starting[:], compiles[:], searches[:], installs[:]
        second, second_rows = run_plan(columnar, plan, config, running)
        assert compiles == [] and searches == [], sql
        assert sorted(installs) == first_installs, sql
        assert second_rows == first_rows
        assert second.work == first.work and second.events == first.events
        assert second.order_history == first.order_history
        assert second.engine_used == first.engine_used
        changed += bool(second.events)
        del installs[:]
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


def installed_equals_fresh(db, sql) -> int:
    """What the plan's second executor installs equals, field by field,
    what an executor of a plan no one has bound compiles. Returns how many
    of the installed legs hash-probe."""
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    plan = db.plan(sql)
    published, installed, fresh = [
        BatchedPipelineExecutor(candidate, db.catalog, config)
        for candidate in (plan, plan, db.plan(sql))
    ]
    binding = {
        alias: tuple(
            leg.table.cells(slot, [0])[0]
            for slot in range(len(leg.table.schema.columns))
        )
        for alias, leg in fresh.prepared.bindings.legs.items()
    }
    hashed = 0
    for alias in plan.order[1:]:
        shared = installed.legs[alias].probe_config
        assert shared is published.legs[alias].probe_config
        compiled = fresh.legs[alias].probe_config
        assert shared is not compiled and shared == compiled, sql
        assert probe_facts(shared, binding) == probe_facts(compiled, binding)
        assert installed.program[alias] is installed.prepared.program[alias]
        assert installed.legs[alias].positional is None
        hashed += shared.hash_column is not None
    return hashed


def test_installed_probe_configs_are_the_freshly_compiled_ones(columnar):
    """Both grids, every statement. Every DMV join column is indexed, so
    no installed leg hashes."""
    from tests.test_plan_cache import GRID

    assert sum(installed_equals_fresh(columnar, sql) for sql in GRID) == 0


def test_installed_hash_probe_configs_are_the_freshly_compiled_ones():
    """A plan that hash-probes an unindexed join column: its hash program
    is installed as compiled."""
    from tests.test_vector_limits import HASHED, hand_off_db

    # B.cid is unindexed: B alone hashes.
    assert installed_equals_fresh(hand_off_db("columnar"), HASHED) == 1


def test_a_pipeline_that_left_the_plan_compiles_for_where_it_is(columnar):
    """The program is the *plan's* order under the *plan's* selectivities:
    every executor starts on it and on the record's cascade start; one moved
    off the selectivities installs the memo's entries for where it is and
    leaves the plan's record alone."""
    config = AdaptiveConfig(mode=ReorderMode.BOTH)
    plan = columnar.plan(PORSCHE)
    moved = BatchedPipelineExecutor(plan, columnar.catalog, config)
    program = moved.prepared.program
    shared = dict(program)
    cascade = moved.prepared.cascade
    assert cascade is not None and len(moved.order_history) == 1
    assert all(moved.program[alias] is shared[alias] for alias in plan.order[1:])
    class_id = next(iter(moved.class_selectivities))
    moved.class_selectivities[class_id] *= 0.5
    moved._install_probes(1)
    bindings = moved.prepared.bindings
    for position, alias in enumerate(plan.order[1:], 1):
        entry = memo_step(
            bindings, moved.order, position, moved.predicate_selectivity
        )
        assert moved.program[alias] is entry
        assert moved.legs[alias].probe_config is entry.config
    usual = BatchedPipelineExecutor(plan, columnar.catalog, config)
    assert usual.prepared is moved.prepared
    assert usual.prepared.cascade is cascade
    # Re-installing (what an applied reorder does) changes the executor's
    # program and leaves the plan's alone.
    graph = usual.join_graph
    usual.order[2:] = next(
        suffix
        for suffix in itertools.permutations(plan.order[2:])
        if suffix != plan.order[2:]
        and all(
            graph.available_predicates(alias, plan.order[:2] + suffix[:at])
            for at, alias in enumerate(suffix)
        )
    )
    usual._install_probes(2)
    assert usual.legs[plan.order[1]].probe_config is shared[plan.order[1]].config
    # A leg keeps its entry exactly where the legs bound before it are
    # the same set: an order-free memo.
    moved_legs = 0
    for position, alias in enumerate(usual.order[2:], 2):
        before = plan.order[: plan.order.index(alias)]
        same = frozenset(usual.order[:position]) == frozenset(before)
        assert (usual.program[alias] is shared[alias]) == same, alias
        moved_legs += not same
    assert moved_legs
    again = BatchedPipelineExecutor(plan, columnar.catalog, config)
    assert program == shared
    assert all(program[alias] is shared[alias] for alias in plan.order[1:])
    assert again.prepared.cascade is cascade
    assert all(
        again.legs[alias].probe_config is shared[alias].config
        for alias in plan.order[1:]
    )
