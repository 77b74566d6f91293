"""Telemetry analytics: aggregate the flight-recorder store.

Rolls the per-query :class:`~repro.obs.recorder.FlightRecord` stream up
into the cross-query views the ROADMAP's feedback-loop direction needs:

* **per template** — query count, outcome mix, adaptations per query,
  latency/work aggregates, slow-query count;
* **per (template, leg)** — estimate-error statistics: the measured
  Eq (7) index-join selectivity vs. the optimizer's prior (geometric
  mean + max q-error), which is exactly the input a future feedback
  store in ``catalog/statistics.py`` would consume to stop repeating
  the same mis-costings.

Pure post-processing of recorded data — no execution, no meter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.obs.recorder import FlightRecord


@dataclass
class LegErrorStats:
    """Estimate-error accumulation for one (template, leg) pair."""

    samples: int = 0
    log_q_sum: float = 0.0
    max_q_error: float = 0.0
    s_jp_sum: float = 0.0
    prior: float | None = None

    def add(self, s_jp: float, s_jp_prior: float) -> None:
        q_error = max(s_jp / s_jp_prior, s_jp_prior / s_jp)
        self.samples += 1
        self.log_q_sum += math.log(q_error)
        self.max_q_error = max(self.max_q_error, q_error)
        self.s_jp_sum += s_jp
        self.prior = s_jp_prior

    @property
    def geo_mean_q_error(self) -> float | None:
        if self.samples == 0:
            return None
        return math.exp(self.log_q_sum / self.samples)

    @property
    def mean_s_jp(self) -> float | None:
        if self.samples == 0:
            return None
        return self.s_jp_sum / self.samples

    def as_dict(self) -> dict[str, Any]:
        return {
            "samples": self.samples,
            "geo_mean_q_error": self.geo_mean_q_error,
            "max_q_error": self.max_q_error if self.samples else None,
            "mean_s_jp": self.mean_s_jp,
            "optimizer_prior": self.prior,
        }


@dataclass
class TemplateSummary:
    """Aggregates over every recorded run of one query template."""

    template: str
    queries: int = 0
    outcomes: dict[str, int] = field(default_factory=dict)
    events_total: int = 0
    events_by_kind: dict[str, int] = field(default_factory=dict)
    checks_total: int = 0
    checks_applied: int = 0
    slow_total: int = 0
    wall_ms_sum: float = 0.0
    wall_ms_max: float = 0.0
    work_sum: float = 0.0
    rows_sum: int = 0
    leg_errors: dict[str, LegErrorStats] = field(default_factory=dict)
    final_orders: dict[str, int] = field(default_factory=dict)

    def add(self, record: FlightRecord) -> None:
        self.queries += 1
        self.outcomes[record.outcome] = self.outcomes.get(record.outcome, 0) + 1
        self.events_total += len(record.events)
        for event in record.events:
            kind = event.get("kind", "?")
            self.events_by_kind[kind] = self.events_by_kind.get(kind, 0) + 1
        self.checks_total += len(record.decisions)
        self.checks_applied += sum(
            1 for decision in record.decisions if decision.applied
        )
        if record.slow:
            self.slow_total += 1
        self.wall_ms_sum += record.wall_ms
        self.wall_ms_max = max(self.wall_ms_max, record.wall_ms)
        self.work_sum += record.work_units
        self.rows_sum += record.rows
        if record.final_order:
            key = " -> ".join(record.final_order)
            self.final_orders[key] = self.final_orders.get(key, 0) + 1
        for alias, leg in record.legs.items():
            s_jp = leg.get("s_jp")
            prior = leg.get("s_jp_prior")
            if s_jp and prior and s_jp > 0 and prior > 0:
                self.leg_errors.setdefault(alias, LegErrorStats()).add(
                    s_jp, prior
                )

    @property
    def adaptations_per_query(self) -> float:
        return self.events_total / self.queries if self.queries else 0.0

    @property
    def mean_wall_ms(self) -> float:
        return self.wall_ms_sum / self.queries if self.queries else 0.0

    @property
    def mean_work(self) -> float:
        return self.work_sum / self.queries if self.queries else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "template": self.template,
            "queries": self.queries,
            "outcomes": dict(sorted(self.outcomes.items())),
            "adaptations_per_query": round(self.adaptations_per_query, 4),
            "events_by_kind": dict(sorted(self.events_by_kind.items())),
            "checks_total": self.checks_total,
            "checks_applied": self.checks_applied,
            "slow_total": self.slow_total,
            "mean_wall_ms": round(self.mean_wall_ms, 3),
            "max_wall_ms": round(self.wall_ms_max, 3),
            "mean_work_units": round(self.mean_work, 3),
            "rows_total": self.rows_sum,
            "final_orders": dict(
                sorted(self.final_orders.items(), key=lambda kv: -kv[1])
            ),
            "leg_estimate_errors": {
                alias: stats.as_dict()
                for alias, stats in sorted(self.leg_errors.items())
            },
        }


class TelemetryAnalytics:
    """The aggregated view over a list of flight records."""

    def __init__(self) -> None:
        self.templates: dict[str, TemplateSummary] = {}
        self.records_total = 0

    @classmethod
    def from_records(
        cls, records: list[FlightRecord]
    ) -> "TelemetryAnalytics":
        analytics = cls()
        for record in records:
            analytics.add(record)
        return analytics

    def add(self, record: FlightRecord) -> None:
        self.records_total += 1
        summary = self.templates.get(record.template)
        if summary is None:
            summary = TemplateSummary(template=record.template)
            self.templates[record.template] = summary
        summary.add(record)

    # -- export --------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        return {
            "records_total": self.records_total,
            "templates": {
                template: summary.as_dict()
                for template, summary in sorted(self.templates.items())
            },
        }

    def render(self) -> str:
        if self.records_total == 0:
            return "(no telemetry records)"
        lines = [
            f"TELEMETRY ANALYTICS — {self.records_total} record(s), "
            f"{len(self.templates)} template(s)",
        ]
        for template, summary in sorted(
            self.templates.items(), key=lambda kv: -kv[1].queries
        ):
            shown = template if len(template) <= 72 else template[:69] + "..."
            lines.append("")
            lines.append(f"template: {shown}")
            lines.append(
                f"  queries={summary.queries} "
                f"outcomes={dict(sorted(summary.outcomes.items()))} "
                f"slow={summary.slow_total}"
            )
            lines.append(
                f"  adaptations/query={summary.adaptations_per_query:.2f} "
                f"({dict(sorted(summary.events_by_kind.items()))}); "
                f"checks {summary.checks_applied}/{summary.checks_total} "
                f"applied"
            )
            lines.append(
                f"  wall mean={summary.mean_wall_ms:.1f}ms "
                f"max={summary.wall_ms_max:.1f}ms  "
                f"work mean={summary.mean_work:,.0f}"
            )
            if summary.leg_errors:
                lines.append("  estimate errors (q-error of Eq 7 vs prior):")
                for alias, stats in sorted(summary.leg_errors.items()):
                    lines.append(
                        f"    {alias:<12s} geo-mean="
                        f"{stats.geo_mean_q_error:.2f} "
                        f"max={stats.max_q_error:.2f} "
                        f"(n={stats.samples})"
                    )
            if len(summary.final_orders) > 1:
                lines.append("  final orders:")
                for order, count in sorted(
                    summary.final_orders.items(), key=lambda kv: -kv[1]
                ):
                    lines.append(f"    {count:>4d}x {order}")
        return "\n".join(lines)
