"""Configuration of the adaptive reordering layer.

The two tunables the paper names are the reordering **check frequency** ``c``
(Fig 2 line 1 / Fig 3 line 1; default 10 in Sec 5) and the **history
window** ``w`` over which run-time monitors aggregate (Sec 4.3.5; default
1000). The remaining knobs select which of the paper's mechanisms and
variants are active, including the future-work extensions we implement.

Which machine executes is not among them: the store picks it. A row
database runs the oracle (the scalar row-at-a-time machine, reorder checks
every ``c`` rows, Fig 2/3); a columnar database runs the engine (the
vectorized cascade, whose monitored chunks fold into a leg's window as one
weighted aggregate each and whose reorder checks fire at chunk boundaries,
DESIGN.md Sec 4d) wherever its screens and gates pass.
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


class InnerReorderPolicy(enum.Enum):
    """How a depleted suffix is re-ordered (ablation axis)."""

    RANK_GREEDY = "rank-greedy"    # the paper's ascending-rank rule (Eq 4)
    EXHAUSTIVE = "exhaustive"      # cheapest connected suffix under Eq (1)


class HashProbePolicy(enum.Enum):
    """Whether inner legs may be probed via in-memory hash tables.

    The Sec 6 extension ("this technique can be extended to pipelined hash
    joins as well"). ``FALLBACK`` hashes only legs that have no usable
    index on any available join column (replacing the full-scan probe);
    ``ALWAYS`` hashes every inner leg.
    """

    OFF = "off"
    FALLBACK = "fallback"
    ALWAYS = "always"


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive join reordering run time."""

    mode: ReorderMode = ReorderMode.BOTH
    # "c": check reordering every c incoming rows per leg (Sec 5: default 10).
    check_frequency: int = 10
    # "w": history window, in incoming rows, for monitored estimates
    # (Sec 5: default 1000).
    history_window: int = 1000
    inner_policy: InnerReorderPolicy = InnerReorderPolicy.RANK_GREEDY
    # Minimum relative cost improvement before the driving leg is switched;
    # guards against thrashing on near-tie estimates (Sec 5.4 discusses
    # fluctuation for small windows).
    switch_benefit_threshold: float = 0.15
    # Postpone a driving switch until the index-scan cursor crosses a key
    # boundary, so the positional predicate is a plain ``key > v``
    # (the "postpone the change" variant of Sec 4.2).
    switch_at_key_boundary: bool = False
    # Future-work extension (Sec 6): re-run driving access-path selection
    # with monitored local selectivities when a leg becomes the driving leg.
    dynamic_access_path: bool = False
    # Sec 6 extension: probe inner legs via in-memory hash tables.
    hash_probe_policy: HashProbePolicy = HashProbePolicy.OFF
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
