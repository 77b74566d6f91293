"""Adaptation event log: what changed, when, and what the model believed.

Every inner reorder and driving switch is recorded with the cost estimates
that justified it, so a regression ("why did this query switch?") can be
answered from the :class:`~repro.db.QueryResult` alone — the run-time
equivalent of the paper's EXPLAIN story.

A third kind, ``DEGRADED``, records the robustness guarantee in action: the
adaptive layer raised, the sandbox disabled further reordering, and the
query continued under its current (static) order. The event's ``reason``
carries the chained exception context so the "why was adaptation turned
off?" question is also answerable from the result alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class EventKind(enum.Enum):
    INNER_REORDER = "inner-reorder"
    DRIVING_SWITCH = "driving-switch"
    # The adaptive layer failed; execution continues without reordering.
    DEGRADED = "degraded"


@dataclass(frozen=True)
class AdaptationEvent:
    """One applied reordering decision (or a degradation of the layer)."""

    kind: EventKind
    # How many rows the driving leg had produced when the decision fired.
    driving_rows_produced: int
    old_order: tuple[str, ...]
    new_order: tuple[str, ...]
    # The run-time cost model's view at decision time (Eq 1, work units).
    estimated_current_cost: float
    estimated_new_cost: float
    # For inner reorders: the depleted-suffix position (1-based pipeline
    # position); 0 for driving switches and degradations.
    position: int = 0
    # For DEGRADED events: why the adaptive layer was disabled (the full
    # chained-exception context).
    reason: str = ""

    @property
    def estimated_benefit(self) -> float:
        """Fraction of the current plan's remaining cost the switch saves.

        Clamped to ``[0, 1]``: a decision whose new plan was estimated
        *costlier* (possible when hysteresis or key-boundary constraints
        forced a switch anyway) reports 0.0 benefit, not a negative one.
        """
        if self.estimated_current_cost <= 0:
            return 0.0
        return max(0.0, 1.0 - self.estimated_new_cost / self.estimated_current_cost)

    def describe(self) -> str:
        if self.kind is EventKind.DEGRADED:
            return (
                f"[{self.kind.value}] after {self.driving_rows_produced} "
                f"driving rows: adaptation disabled, continuing with order "
                f"{','.join(self.old_order)} — {self.reason}"
            )
        arrow = f"{','.join(self.old_order)} -> {','.join(self.new_order)}"
        return (
            f"[{self.kind.value}] after {self.driving_rows_produced} driving "
            f"rows: {arrow} (est. {self.estimated_current_cost:,.0f} -> "
            f"{self.estimated_new_cost:,.0f} work units, "
            f"{self.estimated_benefit * 100:.0f}% predicted benefit)"
        )
