"""The live model equals a fresh snapshot, at every check.

A monitored run keeps one run-time model (``core.ranks.RuntimeModel``):
each leg's :class:`~repro.optimizer.params.TableModel`, refreshed only
where its inputs moved, and one :class:`~repro.optimizer.params.
ModelProvider` whose ``(alias, bound) -> (JC, PC)`` memo lasts the run.
This file holds it to :func:`fresh_snapshot`, which builds the same
numbers from nothing, the way every check once did: at every check of a
sample of both grids, on the engine and on the scalar oracle, the class
selectivities, every leg's model fields and every ``(JC, PC)`` the search
reads are compared with ``==``. A leg the machine forgot to mark, or a
memo entry kept past its leg's move or a class selectivity's, shows here.
"""

from __future__ import annotations

import pytest

import repro.core.controller
from repro import AdaptiveConfig, ReorderMode
from repro.core.controller import AdaptationController
from repro.core.ranks import _clamp, _slots_selectivity, remaining_scan_fraction
from repro.dmv import four_table_workload, load_dmv, six_table_workload
from repro.executor import vector
from repro.optimizer.params import ModelProvider, TableModel

from tests.test_vector_limits import executor_class

BOTH = AdaptiveConfig(mode=ReorderMode.BOTH)
SAMPLE = [
    query.sql
    for query in (
        four_table_workload(queries_per_template=10**9)[::8]
        + six_table_workload(count=10**9)[::6]
    )
]


def fresh_snapshot(run) -> tuple[dict, ModelProvider]:
    """``(class selectivities, provider)`` of *run* built from nothing.

    The class selectivities are the run's with every inner leg's Eq (7)
    measurement folded in once more, in pipeline order: what the run's own
    fold left them as, if it missed nothing. Each leg's model is built
    afresh — S_LPI from index metadata (else the optimizer's), S_LPR
    monitored once warm, the remaining fraction off its scan, and an inner
    leg's JC / PC corrections against the uncalibrated model at its
    position — over a provider with an empty memo.
    """
    warmup = run.config.warmup_rows
    graph = run.join_graph
    selectivities = dict(run.class_selectivities)
    for alias in run.order[1:]:
        leg = run.legs[alias]
        config = leg.probe_config
        if config.access_predicate is None or config.hash_column is not None:
            continue
        if leg.monitor.lifetime_incoming < warmup:
            continue
        rate = leg.monitor.index_match_rate()
        base = leg.model_parts.base_cardinality
        measured = None if rate is None or base <= 0 else rate / base
        if measured is None or measured <= 0:
            continue
        predicate = config.access_predicate
        class_id = graph.class_id(predicate.left, predicate.left_column)
        if class_id is not None:
            selectivities[class_id] = measured
    models = {}
    for position, alias in enumerate(run.order):
        leg = run.legs[alias]
        parts = leg.model_parts
        estimates = leg.plan_leg.estimates
        sel_residual = estimates.sel_local_residual
        if position == 0:
            monitor = leg.driving_monitor
            if monitor is not None and monitor.entries_scanned >= warmup:
                if monitor.residual_selectivity() is not None:
                    sel_residual = monitor.residual_selectivity()
        elif leg.local_counts and leg.local_counts[0][0] >= warmup:
            measured = _slots_selectivity(leg.local_counts, parts.residual_slots)
            if measured is not None:
                sel_residual = min(measured, 1.0)
        frozen = run.registry.frozen_scan(alias)
        if position == 0 and run.scan is not None:
            remaining = remaining_scan_fraction(run.scan)
        elif frozen is not None:
            remaining = remaining_scan_fraction(frozen.scan)
        else:
            remaining = 1.0
        model = models[alias] = TableModel(
            alias,
            parts.base_cardinality,
            estimates.sel_local_index
            if parts.sel_local_index is None
            else parts.sel_local_index,
            sel_residual,
            parts.local_predicate_count,
            parts.indexed_columns,
            parts.driving_kind,
            parts.driving_range_count,
            remaining,
        )
        measured = leg.monitor.join_cardinality_and_probe_cost()
        if position and leg.monitor.lifetime_incoming >= warmup and measured:
            bound = frozenset(run.order[:position])
            uncalibrated = ModelProvider(models, selectivities, graph)
            jc_model, pc_model = uncalibrated.inner_params(alias, bound)
            if jc_model > 0:
                model.jc_correction = _clamp(measured[0] / jc_model)
            if pc_model > 0:
                model.pc_correction = _clamp(measured[1] / pc_model)
    return selectivities, ModelProvider(models, selectivities, graph)


class Compared:
    """Checks every model read of the runs it watches against a fresh
    snapshot; counts what it compared."""

    def __init__(self, monkeypatch) -> None:
        self.checks = self.reads = self.calibrated = 0
        controller = repro.core.controller
        for name in ("decide_inner_order", "decide_driving_switch"):
            monkeypatch.setattr(
                controller, name, self._watched(getattr(controller, name))
            )

    def _watched(self, decide):
        def watched(run, provider, *args, **kwargs):
            selectivities, fresh = fresh_snapshot(run)
            assert provider is run._model.provider
            assert selectivities == run.class_selectivities
            assert provider.models == fresh.models  # every field, by ==
            self.calibrated += sum(
                model.jc_correction != 1.0 for model in provider.models.values()
            )
            reads = []
            inner, driving = provider.inner_params, provider.driving_params
            provider.inner_params = lambda alias, bound: reads.append(
                ("inner", alias, bound, inner(alias, bound))
            ) or reads[-1][3]
            provider.driving_params = lambda alias: reads.append(
                ("driving", alias, None, driving(alias))
            ) or reads[-1][3]
            try:
                decision = decide(run, provider, *args, **kwargs)
            finally:
                del provider.inner_params, provider.driving_params
            for kind, alias, bound, value in reads:
                if kind == "inner":
                    assert value == fresh.inner_params(alias, bound), (alias, bound)
                else:
                    assert value == fresh.driving_params(alias), alias
            self.checks += 1
            self.reads += len(reads)
            return decision

        return watched


@pytest.fixture(scope="module")
def dbs():
    """(row, columnar) at scale 0.02, plan caches off: hand-built runs."""
    return tuple(
        load_dmv(scale=0.02, extended=True, backend=backend, plan_cache_size=0)[0]
        for backend in ("row", "columnar")
    )


def run(db, sql, config=BOTH):
    controller = AdaptationController(config)
    executor = executor_class(db)(db.plan(sql), db.catalog, config, controller)
    controller.attach(executor)
    executor.run_to_completion()
    return executor


@pytest.mark.parametrize("chunk_rows", [4, 16])
def test_live_model_equals_a_fresh_snapshot(dbs, chunk_rows, monkeypatch):
    """Both grids' sample on the engine at first chunks of 4 and 16 (and
    on the scalar oracle, which checks every ``c`` rows at every depth):
    every check's model is the snapshot's, bit for bit."""
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", chunk_rows)
    compared = Compared(monkeypatch)
    row, columnar = dbs
    switches = 0
    for sql in SAMPLE:
        switches += run(columnar, sql).driving_switches
    engine_checks = compared.checks
    for sql in SAMPLE[:: 4 if chunk_rows == 4 else 8]:
        run(row, sql)
    # Not vacuous: checks on both machines, switches, calibrated legs.
    assert engine_checks > 300 and compared.checks - engine_checks > 300
    assert compared.reads > 5 * compared.checks
    assert switches > 0 and compared.calibrated > 0
