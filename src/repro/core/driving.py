"""Driving-leg switching (Sec 4.2, Fig 3) and dynamic access-path choice.

:func:`decide_driving_switch` implements Fig 3 steps 2-4: estimate the
remaining work of the current plan and the cost of plans led by every other
leg (using remaining-fraction-adjusted monitored parameters), and propose
the cheapest one if it beats the current plan by the configured margin. The
mechanics of the switch — freezing the scan position, adding the positional
predicate, resuming/resetting cursors (steps 5-7) — live in
:meth:`repro.executor.pipeline.PipelineExecutor.apply_driving_switch`.

:func:`dynamic_driving_spec` is the paper's future-work extension (Sec 6,
motivated by the Template 4 regression in Sec 5.3): before a leg drives for
the first time, re-choose its index access path using *monitored* local
selectivities instead of the optimizer's uniformity-based guess.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.core.config import AdaptiveConfig, InnerReorderPolicy
from repro.optimizer.cost import (
    best_order_exhaustive,
    cost_of_order,
    greedy_rank_walk,
)
from repro.optimizer.params import ModelProvider, leg_model_parts
from repro.optimizer.plans import DrivingKind, DrivingSpec
from repro.storage.cursor import normalize_ranges

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executor.access import RuntimeLeg
    from repro.executor.pipeline import PipelineExecutor


def decide_driving_switch(
    pipeline: "PipelineExecutor",
    provider: ModelProvider,
    config: AdaptiveConfig,
    audit_costs: dict[str, float] | None = None,
) -> list[str] | None:
    """A cheaper full order led by a different leg, or None.

    When *audit_costs* is given (the flight recorder's decision audit),
    every candidate's estimated full-order cost — after the anti-thrash
    penalty, exactly the number the comparison below uses — is recorded
    under its leading alias, plus the current order's cost under the
    current driving alias. Pure cost-model reads; never charges the meter.

    Eq (1) terms are non-negative, so an order costs at least its driving
    scan. A candidate whose scan alone (anti-thrash penalty included)
    already reaches the incumbent, or the bar a switch must clear, can
    never be the order returned: its suffix search is skipped. Candidates
    are still visited in pipeline order and replace the incumbent only when
    strictly cheaper, so the decision — ties included — is the unpruned
    loop's. The audit records every candidate's cost, so it prunes nothing.
    """
    order = pipeline.order
    graph = pipeline.join_graph
    threshold = config.switch_benefit_threshold
    current_cost = cost_of_order(order, provider)
    if audit_costs is not None:
        audit_costs[order[0]] = current_cost
    switch_bar = current_cost * (1.0 - threshold)
    best_order: list[str] | None = None
    best_cost = current_cost
    for candidate in order:
        if candidate == order[0]:
            continue
        abandoned = pipeline.abandon_counts.get(candidate, 0)
        flow, scan_cost = provider.driving_params(candidate)
        if audit_costs is None and (
            scan_cost * (1.0 + threshold) ** abandoned
            >= min(best_cost, switch_bar)
        ):
            continue
        if config.inner_policy is InnerReorderPolicy.EXHAUSTIVE:
            candidate_order, cost = best_order_exhaustive(
                order, graph, provider, fixed_prefix=(candidate,)
            )
        else:
            # The rank walk carries Eq (1) down the order it builds.
            candidate_order, cost = greedy_rank_walk(
                (candidate,), order, graph, provider, scan_cost, flow
            )
        if abandoned:
            # Anti-thrash: switching *back* to a leg we already abandoned
            # must clear an escalating bar, otherwise near-tie estimates
            # cause ping-ponging (the fluctuation Sec 5.4 observes for
            # small history windows).
            cost *= (1.0 + threshold) ** abandoned
        if audit_costs is not None:
            audit_costs[candidate] = cost
        if cost < best_cost:
            best_cost = cost
            best_order = list(candidate_order)
    if best_order is None:
        return None
    if best_cost >= switch_bar:
        return None
    return best_order


def dynamic_driving_spec(leg: "RuntimeLeg") -> DrivingSpec | None:
    """Re-choose *leg*'s driving access path from monitored selectivities.

    Returns a new spec when some sargable indexed predicate measures more
    selective than the one the optimizer chose; None to keep the plan spec.
    """
    current = leg.plan_leg.driving
    best_column: str | None = None
    best_ranges = None
    best_sel = float("inf")
    for slot, (predicate, _) in enumerate(leg.local_tests):
        measured = leg.measured_local_selectivity(slot)
        if measured is None:
            continue
        for column in predicate.columns():
            if column not in leg.indexes:
                continue
            ranges = predicate.key_ranges(column)
            if ranges is None:
                continue
            if measured < best_sel:
                best_sel = measured
                best_column = column
                best_ranges = ranges
    if best_column is None:
        return None
    if (
        current.kind is DrivingKind.INDEX_SCAN
        and current.index_column == best_column
    ):
        return None
    return DrivingSpec(
        DrivingKind.INDEX_SCAN,
        index_column=best_column,
        ranges=tuple(normalize_ranges(list(best_ranges or []))),
        est_index_selectivity=best_sel,
    )


def apply_dynamic_spec(leg: "RuntimeLeg", spec: DrivingSpec) -> None:
    """Install a dynamically chosen driving spec on *leg*'s plan leg."""
    estimates = dataclasses.replace(
        leg.plan_leg.estimates,
        sel_local_index=spec.est_index_selectivity,
        sel_local_residual=min(
            leg.plan_leg.estimates.sel_local
            / max(spec.est_index_selectivity, 1e-12),
            1.0,
        ),
    )
    leg.plan_leg = dataclasses.replace(
        leg.plan_leg, driving=spec, estimates=estimates
    )
    # S_LPI, the pushed predicate and the scan shape are the old spec's.
    leg.model_parts = leg_model_parts(leg.plan_leg, leg.table, leg.indexes)
