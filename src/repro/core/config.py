"""Configuration of the adaptive reordering layer.

The two tunables the paper names are the reordering **check frequency** ``c``
(Fig 2 line 1 / Fig 3 line 1; default 10 in Sec 5) and the **history
window** ``w`` over which run-time monitors aggregate (Sec 4.3.5; default
1000). The remaining knobs select which of the paper's mechanisms are
active and how eagerly they act.

Options that measured nothing are not among them (EXPERIMENTS.md,
"Ablations"): the inner reorder is the paper's ascending-rank rule (Eq 4),
a driving leg keeps the access path the optimizer chose, an inner leg with
no index on an available join column is hash-probed (the Sec 6 pipelined
hash join, :mod:`repro.executor.hashprobe`), and a driving switch is never
postponed to a key boundary: the composite positional predicate makes any
switch point safe (Sec 4.2).

Which machine executes is not among them either: the store picks it. A row
database runs the oracle (the scalar row-at-a-time machine, reorder checks
every ``c`` rows, Fig 2/3); a columnar database runs the engine (the
vectorized cascade, whose monitored chunks fold into a leg's window as one
weighted aggregate each and whose reorder checks fire at chunk boundaries,
DESIGN.md Sec 4d) for every statement it accepts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ReorderMode(enum.Enum):
    """Which reordering mechanisms are enabled (the Sec 5 experiment axes)."""

    NONE = "none"                  # static plan, no monitoring
    MONITOR_ONLY = "monitor-only"  # monitors run, no reordering (overhead exp.)
    INNER_ONLY = "inner-only"      # Sec 5.2
    DRIVING_ONLY = "driving-only"  # Sec 5.3
    BOTH = "both"                  # Sec 5.1

    @property
    def reorders_inner(self) -> bool:
        return self in (ReorderMode.INNER_ONLY, ReorderMode.BOTH)

    @property
    def reorders_driving(self) -> bool:
        return self in (ReorderMode.DRIVING_ONLY, ReorderMode.BOTH)

    @property
    def monitors(self) -> bool:
        return self is not ReorderMode.NONE


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive join reordering run time."""

    mode: ReorderMode = ReorderMode.BOTH
    # "c": check reordering every c incoming rows per leg (Sec 5: default 10).
    check_frequency: int = 10
    # "w": history window, in incoming rows, for monitored estimates
    # (Sec 5: default 1000).
    history_window: int = 1000
    # Minimum relative cost improvement before the driving leg is switched;
    # guards against thrashing on near-tie estimates (Sec 5.4 discusses
    # fluctuation for small windows).
    switch_benefit_threshold: float = 0.15
    # Monitored estimates are trusted only after a leg has seen this many
    # incoming rows; before that, optimizer priors are blended in.
    warmup_rows: int = 10

    def __post_init__(self) -> None:
        if self.check_frequency < 1:
            raise ValueError("check_frequency must be >= 1")
        if self.history_window < 1:
            raise ValueError("history_window must be >= 1")
        if not 0.0 <= self.switch_benefit_threshold < 1.0:
            raise ValueError("switch_benefit_threshold must be in [0, 1)")
        if self.warmup_rows < 0:
            raise ValueError("warmup_rows must be >= 0")
