"""Adaptive join reordering: the paper's contribution (Sec 4)."""

from repro.core.config import AdaptiveConfig, ReorderMode
from repro.core.controller import AdaptationController
from repro.core.driving import decide_driving_switch
from repro.core.events import AdaptationEvent, EventKind
from repro.core.monitor import DrivingMonitor, LegMonitor, SlidingWindow
from repro.core.positions import FrozenScan, PositionRegistry
from repro.core.ranks import (
    RuntimeModelBuilder,
    measured_combined_local_selectivity,
    remaining_scan_fraction,
)
from repro.core.reorder import decide_inner_order, suffix_ranks

__all__ = [
    "AdaptationController",
    "AdaptationEvent",
    "EventKind",
    "AdaptiveConfig",
    "DrivingMonitor",
    "FrozenScan",
    "LegMonitor",
    "PositionRegistry",
    "ReorderMode",
    "RuntimeModelBuilder",
    "SlidingWindow",
    "decide_driving_switch",
    "decide_inner_order",
    "measured_combined_local_selectivity",
    "remaining_scan_fraction",
    "suffix_ranks",
]
