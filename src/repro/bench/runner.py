"""Workload runner: execute queries under several reorder modes and measure.

The primary metric is deterministic **work units** (see
:mod:`repro.storage.counters`); wall-clock seconds are recorded as a
secondary metric. One :class:`QueryMeasurement` per (query, mode).
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Mapping

from repro.core.config import AdaptiveConfig, ReorderMode
from repro.db import Database
from repro.dmv.templates import WorkloadQuery
from repro.obs.metrics import MetricsRegistry

#: Histogram buckets for per-query work units, spanning the DMV scales
#: the experiments run at (hundreds of units at scale 0.005, millions at 1.0).
WORK_BUCKETS = (
    100.0, 500.0, 1_000.0, 5_000.0, 10_000.0,
    50_000.0, 100_000.0, 500_000.0, 1_000_000.0,
)


def host_metadata() -> dict:
    """Where the numbers were taken; wall-clock rows mean nothing without it."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def write_json_atomic(path: str, payload: Any) -> None:
    """Write *payload* as JSON via a temp file + ``os.replace``.

    A crash mid-write leaves either the old file or nothing — never a
    truncated JSON document that a later analysis run would choke on.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def merge_json_atomic(path: str, sections: Mapping[str, Any]) -> dict:
    """Replace *sections*' top-level keys in the JSON object at *path*.

    For a results file several benchmarks share, each owning its own keys:
    every other key is kept as it was. A missing or unreadable file counts
    as empty. Written with :func:`write_json_atomic`; returns what the file
    held before (the caller's stored baseline).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        previous = {}
    if not isinstance(previous, dict):
        previous = {}
    write_json_atomic(path, {**previous, **sections})
    return previous


@dataclass(frozen=True)
class QueryMeasurement:
    """Measurements of one query under one mode."""

    qid: str
    template: int
    mode: str
    work: float
    execution_work: float
    adaptation_work: float
    wall_seconds: float
    rows: int
    inner_reorders: int
    driving_switches: int
    order_changed: bool

    @property
    def total_switches(self) -> int:
        return self.inner_reorders + self.driving_switches

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class WorkloadResult:
    """All measurements for one workload run, indexed by (qid, mode)."""

    measurements: list[QueryMeasurement] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def add(self, measurement: QueryMeasurement) -> None:
        self.measurements.append(measurement)
        self._record(measurement)

    def _record(self, m: QueryMeasurement) -> None:
        metrics = self.metrics
        metrics.counter(
            "bench_queries_total", "query executions by mode"
        ).inc(m.mode)
        metrics.counter(
            "bench_work_units_total", "total work units by mode"
        ).inc(m.mode, m.work)
        metrics.counter(
            "bench_adaptation_work_units_total", "adaptation work units by mode"
        ).inc(m.mode, m.adaptation_work)
        metrics.counter(
            "bench_switches_total", "applied reorders/switches by mode"
        ).inc(m.mode, m.total_switches)
        if m.order_changed:
            metrics.counter(
                "bench_order_changed_total",
                "queries finishing on a different order, by mode",
            ).inc(m.mode)
        metrics.histogram(
            "bench_query_work_units",
            WORK_BUCKETS,
            "per-query work-unit distribution by mode",
        ).observe(m.work, label=m.mode)

    def by_mode(self, mode: str) -> dict[str, QueryMeasurement]:
        return {m.qid: m for m in self.measurements if m.mode == mode}

    def modes(self) -> list[str]:
        seen: list[str] = []
        for measurement in self.measurements:
            if measurement.mode not in seen:
                seen.append(measurement.mode)
        return seen

    def templates(self) -> list[int]:
        return sorted({m.template for m in self.measurements})

    def to_payload(self) -> dict[str, Any]:
        """JSON-ready snapshot: every measurement plus the rolled-up registry."""
        return {
            "measurements": [m.as_dict() for m in self.measurements],
            "metrics": self.metrics.as_dict(),
        }

    def save_json(self, path: str) -> None:
        write_json_atomic(path, self.to_payload())


def standard_configs(
    history_window: int = 1000, check_frequency: int = 10
) -> dict[str, AdaptiveConfig]:
    """The four Sec 5 measurement modes."""
    return {
        "static": AdaptiveConfig(mode=ReorderMode.NONE),
        "inner-only": AdaptiveConfig(
            mode=ReorderMode.INNER_ONLY,
            history_window=history_window,
            check_frequency=check_frequency,
        ),
        "driving-only": AdaptiveConfig(
            mode=ReorderMode.DRIVING_ONLY,
            history_window=history_window,
            check_frequency=check_frequency,
        ),
        "both": AdaptiveConfig(
            mode=ReorderMode.BOTH,
            history_window=history_window,
            check_frequency=check_frequency,
        ),
    }


def run_workload(
    db: Database,
    workload: Iterable[WorkloadQuery],
    configs: Mapping[str, AdaptiveConfig],
    verify_against: str | None = "static",
) -> WorkloadResult:
    """Run every query under every mode.

    When *verify_against* names one of the modes, every other mode's result
    rows are checked against it (adaptation must never change the answer);
    a mismatch raises ``AssertionError`` — a benchmark that produces wrong
    answers must fail loudly, not report numbers.
    """
    result = WorkloadResult()
    ordered_configs = dict(configs)
    if verify_against is not None and verify_against in ordered_configs:
        # The reference mode must run first so every other mode is checked.
        reference_config = ordered_configs.pop(verify_against)
        ordered_configs = {verify_against: reference_config, **ordered_configs}
    for query in workload:
        reference: list | None = None
        # Every mode runs the optimizer's plan: executing the text again
        # would start a monitored mode from what the previous one learned
        # (plan feedback), and the experiments compare single executions.
        plan = db.plan(query.sql)
        for mode, config in ordered_configs.items():
            outcome = db.execute(plan, config)
            if verify_against is not None:
                if mode == verify_against:
                    reference = sorted(outcome.rows)
                elif reference is not None:
                    assert sorted(outcome.rows) == reference, (
                        f"{query.qid}: mode {mode!r} changed the result set"
                    )
            result.add(
                QueryMeasurement(
                    qid=query.qid,
                    template=query.template,
                    mode=mode,
                    work=outcome.stats.total_work,
                    execution_work=outcome.stats.execution_work,
                    adaptation_work=outcome.stats.adaptation_work,
                    wall_seconds=outcome.stats.wall_seconds,
                    rows=len(outcome.rows),
                    inner_reorders=outcome.stats.inner_reorders,
                    driving_switches=outcome.stats.driving_switches,
                    order_changed=outcome.stats.order_changed,
                )
            )
    return result
