"""Driving-leg switching (Sec 4.2, Fig 3).

:func:`decide_driving_switch` implements Fig 3 steps 2-4: estimate the
remaining work of the current plan and the cost of plans led by every other
leg (using remaining-fraction-adjusted monitored parameters), and propose
the cheapest one if it beats the current plan by the configured margin. A
candidate's inner legs follow it in ascending-rank order (Eq 4), as after an
inner reorder. The mechanics of the switch — freezing the scan position,
adding the positional predicate, resuming or opening the driving scan
(steps 5-7) — live in
:meth:`repro.executor.pipeline.PipelineRun.apply_driving_switch`.

A leg that starts to drive scans through the access path the optimizer
chose for it. Re-choosing that path from monitored local selectivities (the
Sec 6 future-work item) measured within 0.3% of keeping it on both grids
(EXPERIMENTS.md, "Ablations") and is not implemented.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import AdaptiveConfig
from repro.optimizer.cost import cost_of_order, greedy_rank_walk
from repro.optimizer.params import ModelProvider

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executor.pipeline import PipelineRun


def decide_driving_switch(
    pipeline: "PipelineRun",
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
