"""EXPLAIN ANALYZE: the run-time report of what the adaptive executor did.

Renders one executed :class:`~repro.db.QueryResult` as a plain-text
report combining:

* the optimizer's static plan (with its estimates),
* the **final** pipeline order with per-leg actual row flow (from the
  metrics registry) against the optimizer's and the monitors' estimates,
* the full adaptation-event timeline and check hit/keep counts,
* the work-unit breakdown by physical action, and
* budget and fault/degradation summaries from the robustness layer.

The per-leg table compares three views of each leg:

=============  =============================================================
column         meaning
=============  =============================================================
``est C_LEG``  optimizer: base cardinality x estimated local selectivity
``rows in``    actual incoming outer rows (driving leg: entries scanned)
``cand``       actual access-method candidates fetched
``rows out``   actual rows surviving every predicate at the leg
``JC meas``    monitor's Eq (11) windowed output/incoming ratio
``S_JP``       optimizer prior -> monitor's Eq (7) measured selectivity
=============  =============================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db import QueryResult
    from repro.robustness.limits import ExecutionLimits


def _fmt(value: Any, precision: str = ",.0f") -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return format(value, precision)
    return format(value, ",d") if isinstance(value, int) else str(value)


def _fmt_sel(value: Any) -> str:
    if value is None:
        return "-"
    return f"{value:.2e}"


def _counter_value(result: "QueryResult", name: str, label: str) -> int | None:
    if result.metrics is None:
        return None
    metric = result.metrics.get(name)
    if metric is None:
        return None
    return int(metric.value(label))


def _leg_rows(result: "QueryResult", alias: str, driving: bool):
    """(rows_in, candidates, rows_out) actuals for one leg, or Nones."""
    if driving:
        rows_in = _counter_value(result, "scan_rows_total", alias)
        rows_out = _counter_value(result, "scan_rows_survived_total", alias)
        return rows_in, rows_in, rows_out
    return (
        _counter_value(result, "leg_rows_in_total", alias),
        _counter_value(result, "leg_index_matches_total", alias),
        _counter_value(result, "leg_rows_out_total", alias),
    )


def _final_sample(result: "QueryResult"):
    return result.samples[-1] if result.samples else None


def render_explain_analyze(
    result: "QueryResult", limits: "ExecutionLimits | None" = None
) -> str:
    """The full EXPLAIN ANALYZE report for one executed query."""
    stats = result.stats
    work = stats.work
    lines: list[str] = ["EXPLAIN ANALYZE", "=" * 15, "", result.plan.explain(), ""]

    # -- per-leg actuals vs estimates ---------------------------------
    sample = _final_sample(result)
    header = (
        f"{'pos':>3}  {'leg':<6} {'role':<8} {'est C_LEG':>12} "
        f"{'rows in':>10} {'cand':>10} {'rows out':>10} "
        f"{'JC meas':>9}  {'S_JP est -> meas':<22}"
    )
    lines.append(
        f"pipeline actuals (final order: {', '.join(result.final_order)}; "
        f"{stats.total_switches} order change(s)):"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for position, alias in enumerate(result.final_order):
        leg = result.plan.leg(alias)
        role = "DRIVING" if position == 0 else "INNER"
        rows_in, candidates, rows_out = _leg_rows(result, alias, position == 0)
        jc = s_jp = s_jp_prior = None
        if sample is not None:
            data = sample.legs.get(alias, {})
            jc = data.get("jc")
            s_jp = data.get("s_jp")
            s_jp_prior = data.get("s_jp_prior")
        sel_pair = (
            f"{_fmt_sel(s_jp_prior)} -> {_fmt_sel(s_jp)}"
            if position > 0
            else "-"
        )
        lines.append(
            f"{position:>3}  {alias:<6} {role:<8} "
            f"{leg.estimates.leg_cardinality:>12,.1f} "
            f"{_fmt(rows_in):>10} {_fmt(candidates):>10} {_fmt(rows_out):>10} "
            f"{_fmt(jc, '.3f'):>9}  {sel_pair:<22}"
        )
    lines.append("")

    # -- execution totals + work breakdown ----------------------------
    lines.append(
        f"executed: {len(result.rows)} row(s), "
        f"{stats.total_work:,.0f} work units "
        f"({stats.execution_work:,.0f} execution + "
        f"{stats.adaptation_work:,.0f} adaptation), "
        f"{stats.wall_seconds * 1000:.1f} ms"
    )
    engine_line = f"engine: {stats.engine}"
    if stats.vector_gate is not None:
        engine_line += f" (vector cascade gated: {stats.vector_gate})"
    lines.append(engine_line)
    lines.append(
        "plan cache: "
        + (stats.plan_cache or "not consulted (the caller passed a spec or a plan)")
    )
    if stats.plan_feedback is None:
        lines.append("plan feedback: none (started from the optimizer's order)")
    else:
        order, writes = stats.plan_feedback
        lines.append(
            f"plan feedback: started from {' -> '.join(order)} "
            f"(learned; {writes} write-back(s) to this plan-cache entry)"
        )
    lines.append(
        "work breakdown: "
        f"{work.index_descends:,d} index descend(s), "
        f"{work.index_entries:,d} index entrie(s), "
        f"{work.row_fetches:,d} row fetch(es), "
        f"{work.predicate_evals:,d} predicate eval(s), "
        f"{work.monitor_updates:,d} monitor update(s), "
        f"{work.reorder_checks:,d} reorder check(s)"
    )
    if work.hash_probes or work.hash_build_entries:
        lines.append(
            "hash probing: "
            f"{work.hash_build_entries:,d} build entrie(s), "
            f"{work.hash_probes:,d} probe(s), {work.hash_matches:,d} match(es)"
        )
    checks = stats.inner_checks + stats.driving_checks
    lines.append(
        f"checks: {stats.inner_checks} inner, {stats.driving_checks} driving "
        f"({stats.check_seconds * 1e3:.2f} ms, "
        f"{stats.check_seconds * 1e6 / max(checks, 1):.0f} us per check); "
        f"switches: {stats.inner_reorders} inner, "
        f"{stats.driving_switches} driving"
    )

    # -- adaptation timeline ------------------------------------------
    if stats.events:
        lines.append("adaptation timeline:")
        lines.extend(f"  {event.describe()}" for event in stats.events)
    else:
        lines.append("adaptation timeline: none (the initial order held)")
    if result.samples:
        lines.append(
            f"estimate samples: {len(result.samples)} "
            f"(one per checked driving-row count, and the end at row "
            f"{result.samples[-1].driving_rows})"
        )

    # -- robustness: budget + faults ----------------------------------
    if limits is not None and not limits.unlimited:
        parts = []
        if limits.max_rows is not None:
            parts.append(f"max_rows={limits.max_rows}")
        if limits.max_work_units is not None:
            parts.append(f"max_work_units={limits.max_work_units:,.0f}")
        if limits.timeout_seconds is not None:
            parts.append(f"timeout={limits.timeout_seconds * 1000:.0f}ms")
        lines.append(f"budget: {', '.join(parts)} (not exceeded)")
    else:
        lines.append("budget: unlimited")
    retries = None
    if result.metrics is not None:
        metric = result.metrics.get("fault_retries_total")
        retries = int(metric.total) if metric is not None else 0
    degraded = sum(1 for event in stats.events if event.kind.value == "degraded")
    lines.append(
        f"faults: {_fmt(retries)} transient retrie(s), "
        f"{degraded} degradation(s)"
        + (" — adaptive layer was DISABLED mid-query" if degraded else "")
    )
    return "\n".join(lines)
