"""Inner-table reordering (Sec 4.1, Fig 2).

When the suffix of the pipeline starting at position ``i`` is depleted, the
controller asks :func:`decide_inner_order` whether the suffix should be
permuted. The rule is the paper's: compute each suffix leg's rank (Eq 3)
from monitored values; if the ranks are not ascending (Eq 4), rebuild the
suffix greedily by ascending rank, respecting join-graph connectivity.

An exhaustive search of the connected suffixes under Eq (1) measured the
same work on the four-table grid and up to 3.3% more on the six-table one
(EXPERIMENTS.md, "Ablations"): the rank rule is optimal on the tree-shaped
join graphs both grids use. :func:`~repro.optimizer.cost.best_order_exhaustive`
stays the optimizer's search, not a run-time choice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.optimizer.cost import greedy_rank_suffix, rank
from repro.optimizer.params import ModelProvider

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.executor.pipeline import PipelineRun

# Relative slack below which a rank inversion is ignored, so measurement
# jitter does not cause churn.
_RANK_SLACK = 1e-9


def suffix_ranks(
    order: list[str], position: int, provider: ModelProvider
) -> list[float]:
    """Ranks of the legs at positions >= *position*, at their positions."""
    bound = frozenset(order[:position])
    ranks: list[float] = []
    for alias in order[position:]:
        jc, pc = provider.inner_params(alias, bound)
        ranks.append(rank(jc, pc))
        bound = bound | {alias}
    return ranks


def decide_inner_order(
    pipeline: "PipelineRun", provider: ModelProvider, position: int
) -> list[str] | None:
    """New suffix for positions >= *position*, or None to keep the order."""
    order = pipeline.order
    suffix = order[position:]
    if len(suffix) < 2:
        return None
    ranks = suffix_ranks(order, position, provider)
    ascending = all(
        ranks[i] <= ranks[i + 1] + _RANK_SLACK for i in range(len(ranks) - 1)
    )
    if ascending:
        return None
    new_order = greedy_rank_suffix(
        order[:position], suffix, pipeline.join_graph, provider
    )
    new_suffix = list(new_order[position:])
    if new_suffix == suffix:
        return None
    return new_suffix
