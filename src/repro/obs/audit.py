"""Offline decision audit: replay a recorded query's adaptation timeline.

``repro replay <query-id>`` loads the telemetry store, finds the query's
:class:`~repro.obs.recorder.FlightRecord`, and renders an
EXPLAIN-ANALYZE-style report that answers *why did the driving leg
switch at row N*: every adaptation event is matched to the controller
check (:class:`~repro.obs.recorder.DecisionRecord`) that produced it,
annotated with the per-leg Eq (3) rank terms, the monitors' window
estimates, the candidate driving-order costs (Fig 3), and the estimated
benefit — the full inputs of the rank rule at decision time.

``repro replay --diff A B`` compares two runs of the same template:
plans, event timelines, per-leg estimate errors, and latency/work.

Everything here is pure post-processing of recorded JSONL — no database,
no execution, no meter.
"""

from __future__ import annotations

from typing import Any

from repro.core.events import AdaptationEvent
from repro.obs.recorder import (
    DecisionRecord,
    FlightRecord,
    TelemetryStore,
    event_from_dict,
)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------
def load_records(directory: str) -> list[FlightRecord]:
    """Every flight record in *directory*'s finalized segments, oldest first."""
    records: list[FlightRecord] = []
    for obj in TelemetryStore.iter_records(directory):
        if obj.get("type") != "flight":
            continue
        try:
            records.append(FlightRecord.from_dict(obj))
        except (KeyError, TypeError, ValueError):
            continue
    return records


def find_record(
    records: list[FlightRecord], query_id: str
) -> FlightRecord | None:
    for record in reversed(records):
        if record.query_id == query_id:
            return record
    return None


def latest_record(records: list[FlightRecord]) -> FlightRecord | None:
    return records[-1] if records else None


def reconstruct_events(record: FlightRecord) -> list[AdaptationEvent]:
    """The exact AdaptationEvent sequence of the live run, rebuilt offline."""
    return [event_from_dict(event) for event in record.events]


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------
def _fmt(value: Any, digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def _order(order: tuple[str, ...] | list[str]) -> str:
    return " -> ".join(order) if order else "(none)"


def _matching_decision(
    record: FlightRecord, event: dict[str, Any]
) -> DecisionRecord | None:
    """The applied check that produced *event* (matched on kind + orders)."""
    kind = event.get("kind")
    check = "driving" if kind == "driving-switch" else "inner"
    for decision in record.decisions:
        if not decision.applied or decision.check != check:
            continue
        if (
            list(decision.order_before) == list(event.get("old_order", []))
            and decision.order_after is not None
            and list(decision.order_after) == list(event.get("new_order", []))
            and decision.driving_rows == event.get("driving_rows")
        ):
            return decision
    return None


def _render_decision_why(decision: DecisionRecord, indent: str) -> list[str]:
    lines: list[str] = []
    if decision.rank_terms:
        lines.append(f"{indent}rank terms (Eq 3, at decision time):")
        for term in decision.rank_terms:
            lines.append(
                f"{indent}  [{term.position}] {term.alias:<12s} "
                f"jc={_fmt(term.jc)}  pc={_fmt(term.pc)}  "
                f"rank={_fmt(term.rank)}"
            )
    if decision.candidate_costs:
        lines.append(
            f"{indent}candidate driving orders (Fig 3, est. remaining cost):"
        )
        for alias, cost in sorted(
            decision.candidate_costs.items(), key=lambda item: (item[1], item[0])
        ):
            marker = (
                " <- chosen"
                if decision.order_after and alias == decision.order_after[0]
                else ""
            )
            lines.append(f"{indent}  lead {alias:<12s} {_fmt(cost)}{marker}")
    if decision.window:
        lines.append(f"{indent}window estimates (Eq 5-11):")
        for alias, data in decision.window.items():
            if data.get("role") == "driving":
                lines.append(
                    f"{indent}  {alias:<12s} driving: "
                    f"scanned={_fmt(data.get('entries_scanned'))} "
                    f"survived={_fmt(data.get('rows_survived'))} "
                    f"s_lpr={_fmt(data.get('s_lpr'))}"
                )
            else:
                lines.append(
                    f"{indent}  {alias:<12s} jc={_fmt(data.get('jc'))} "
                    f"pc={_fmt(data.get('pc'))} "
                    f"s_jp={_fmt(data.get('s_jp'))} "
                    f"(prior {_fmt(data.get('s_jp_prior'))}) "
                    f"fill={_fmt(data.get('window_fill'))}"
                )
    lines.append(
        f"{indent}est. cost {_fmt(decision.estimated_current_cost)} -> "
        f"{_fmt(decision.estimated_new_cost)} "
        f"(benefit {_fmt(decision.estimated_benefit)}); "
        f"granularity={decision.monitor_granularity}"
    )
    return lines


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------
def render_replay(record: FlightRecord) -> str:
    """The offline adaptation-timeline report for one recorded query."""
    lines = [
        f"FLIGHT RECORD {record.query_id}",
        f"  sql:      {record.sql}",
        f"  template: {record.template}",
        f"  mode={record.mode} "
        f"granularity={record.monitor_granularity} "
        f"engine={record.engine} plan_cache={record.plan_cache or '-'}",
        f"  outcome={record.outcome} rows={record.rows} "
        f"work={_fmt(record.work_units)} wall={_fmt(record.wall_ms)}ms"
        + (f" (SLOW)" if record.slow else ""),
    ]
    if record.vector_gate:
        lines.append(f"  vector cascade gated: {record.vector_gate}")
    if record.plan_feedback:
        lines.append(
            f"  plan feedback: started from the learned order below "
            f"({record.plan_feedback['writes']} write-back(s) to the entry)"
        )
    if record.session is not None:
        lines.append(
            f"  served: session={record.session} shed={record.shed} "
            f"queued={_fmt(record.queued_ms)}ms"
        )
    if record.error:
        lines.append(f"  error: {record.error}")
    lines.append("")
    lines.append(f"  plan order:  {_order(record.plan_order)}"
                 + (f"  (est. cost {_fmt(record.plan_cost)})"
                    if record.plan_cost is not None else ""))
    lines.append(f"  final order: {_order(record.final_order)}")
    lines.append("")

    # Per-leg estimated vs actual.
    if record.legs:
        lines.append("  legs (optimizer estimate vs. final monitor window):")
        lines.append(
            "    leg           est_card     s_jp      s_jp_prior  q_error   "
            "role"
        )
        for alias in sorted(
            record.legs, key=lambda a: record.legs[a].get("position", 99)
        ):
            leg = record.legs[alias]
            lines.append(
                f"    {alias:<12s} {_fmt(leg.get('est_cardinality')):>9s} "
                f"{_fmt(leg.get('s_jp')):>9s} {_fmt(leg.get('s_jp_prior')):>11s} "
                f"{_fmt(leg.get('q_error')):>8s}   {leg.get('role', '-')}"
            )
        lines.append("")

    # The adaptation timeline, each event annotated with its decision.
    if not record.events:
        lines.append("  no adaptation events (the static order survived)")
    else:
        lines.append(f"  adaptation timeline ({len(record.events)} event(s)):")
        for index, event in enumerate(record.events, 1):
            kind = event.get("kind", "?")
            rows = event.get("driving_rows", "?")
            lines.append(
                f"  [{index}] {kind} at driving row {rows}"
                f" (position {event.get('position', 0)}):"
            )
            lines.append(
                f"      {_order(event.get('old_order', []))}"
                f"  =>  {_order(event.get('new_order', []))}"
            )
            decision = _matching_decision(record, event)
            if decision is not None:
                lines.append("      why:")
                lines.extend(_render_decision_why(decision, "        "))
            elif kind == "degraded":
                lines.append(
                    f"      why: adaptive layer sandboxed off "
                    f"({event.get('reason', 'unknown failure')})"
                )
            else:
                lines.append("      why: no matching decision captured")

    # Checks that kept the order are part of the story too.
    kept = [d for d in record.decisions if not d.applied]
    if kept:
        lines.append("")
        lines.append(
            f"  {len(kept)} check(s) kept the order "
            f"(inner {sum(1 for d in kept if d.check == 'inner')}, "
            f"driving {sum(1 for d in kept if d.check == 'driving')})"
        )
    return "\n".join(lines)


def render_listing(records: list[FlightRecord]) -> str:
    """One line per record, newest last (``repro replay --list``)."""
    if not records:
        return "(telemetry store is empty)"
    lines = [
        "query_id                 outcome          rows    wall_ms  "
        "events  template"
    ]
    for record in records:
        template = record.template
        if len(template) > 48:
            template = template[:45] + "..."
        lines.append(
            f"{record.query_id:<24s} {record.outcome:<15s} "
            f"{record.rows:>6d} {record.wall_ms:>9.1f} "
            f"{record.adaptations:>7d}  {template}"
        )
    return "\n".join(lines)


def render_diff(a: FlightRecord, b: FlightRecord) -> str:
    """Compare two recorded runs (typically of the same template)."""
    lines = [f"DIFF {a.query_id} vs {b.query_id}"]
    if a.template == b.template:
        lines.append(f"  template: {a.template}")
    else:
        lines.append("  WARNING: different templates")
        lines.append(f"    A: {a.template}")
        lines.append(f"    B: {b.template}")
    lines.append("")

    def row(label: str, va: Any, vb: Any) -> str:
        marker = "  " if va == vb else " *"
        return f" {marker}{label:<22s} A={_fmt(va):<20s} B={_fmt(vb)}"

    lines.append(row("outcome", a.outcome, b.outcome))
    lines.append(row("mode", a.mode, b.mode))
    lines.append(row("rows", a.rows, b.rows))
    lines.append(row("work_units", a.work_units, b.work_units))
    lines.append(row("wall_ms", round(a.wall_ms, 1), round(b.wall_ms, 1)))
    lines.append(row("plan_order", _order(a.plan_order), _order(b.plan_order)))
    lines.append(
        row("final_order", _order(a.final_order), _order(b.final_order))
    )
    lines.append(row("adaptations", a.adaptations, b.adaptations))
    lines.append(
        row(
            "checks",
            len(a.decisions),
            len(b.decisions),
        )
    )
    lines.append("")

    # Event timelines side by side.
    count = max(len(a.events), len(b.events))
    if count:
        lines.append("  event timeline:")
        for index in range(count):
            ea = a.events[index] if index < len(a.events) else None
            eb = b.events[index] if index < len(b.events) else None

            def describe(event: dict[str, Any] | None) -> str:
                if event is None:
                    return "(none)"
                return (
                    f"{event.get('kind')}@{event.get('driving_rows')} "
                    f"-> {_order(event.get('new_order', []))}"
                )

            same = (
                ea is not None
                and eb is not None
                and ea.get("kind") == eb.get("kind")
                and ea.get("new_order") == eb.get("new_order")
            )
            marker = "  " if same else " *"
            lines.append(f" {marker}[{index + 1}] A: {describe(ea)}")
            lines.append(f"   {' ' * len(str(index + 1))}  B: {describe(eb)}")

    # Per-leg q-error comparison.
    aliases = sorted(set(a.legs) | set(b.legs))
    if aliases:
        lines.append("")
        lines.append("  per-leg q-error (measured s_jp vs optimizer prior):")
        for alias in aliases:
            qa = a.legs.get(alias, {}).get("q_error")
            qb = b.legs.get(alias, {}).get("q_error")
            lines.append(f"    {alias:<12s} A={_fmt(qa):<10s} B={_fmt(qb)}")
    return "\n".join(lines)
