"""Declarative JSONL schemas shared by the validators and the tooling.

Two line-oriented formats exist in this repo:

* **span traces** (``obs/trace.py``): one span object per line with
  exactly ``JSONL_KEYS``;
* **telemetry segments** (``obs/recorder.py``): one typed record per
  line; every record carries a ``"type"`` tag (currently only
  ``"flight"``) and unknown types are a validation **error**, so schema
  drift fails loudly instead of being silently skipped.

``scripts/validate_trace.py`` is a thin CLI over the validators here —
the single source of truth for both schemas (no external jsonschema
dependency; the field specs below are plain data).

A field spec maps name -> (types, required, allow_none). Validators
return a list of human-readable problems (empty = valid); the stateful
:class:`TraceValidator` / :class:`TelemetryValidator` additionally check
cross-line invariants (unique span ids, parents-before-children, unique
query ids, at least one root).
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.trace import JSONL_KEYS, SPAN_KINDS
from repro.optimizer.plancache import OUTCOMES

#: Record types a telemetry segment may carry.
TELEMETRY_RECORD_TYPES = ("flight",)

#: How a statement's plan was obtained (``ExecutionStats.plan_cache``): the
#: values of a flight record's ``plan_cache`` field and of a ``plan-cache``
#: span's ``outcome`` attribute.
PLAN_CACHE_OUTCOMES = OUTCOMES

_NUMBER = (int, float)

# name -> (accepted types, required, allow None)
SPAN_FIELDS: dict[str, tuple[tuple, bool, bool]] = {
    "span_id": ((int,), True, False),
    "parent_id": ((int,), True, True),
    "name": ((str,), True, False),
    "kind": ((str,), True, False),
    "start_ms": (_NUMBER, True, False),
    "end_ms": (_NUMBER, True, True),
    "attrs": ((dict,), True, False),
}

FLIGHT_FIELDS: dict[str, tuple[tuple, bool, bool]] = {
    "type": ((str,), True, False),
    "query_id": ((str,), True, False),
    "ts": (_NUMBER, True, False),
    "sql": ((str,), True, False),
    "template": ((str,), True, False),
    "mode": ((str,), True, False),
    "outcome": ((str,), True, False),
    "wall_ms": (_NUMBER, True, True),
    "work_units": (_NUMBER, True, True),
    "rows": ((int,), True, False),
    "plan_order": ((list,), True, False),
    "plan_cost": (_NUMBER, False, True),
    "final_order": ((list,), True, False),
    "monitor_granularity": ((str,), False, False),
    # Written until PR 22 (``engine`` says what ran): accepted, not read.
    "batched": ((bool,), False, False),
    "engine": ((str,), False, False),
    "vector_gate": ((str,), False, True),
    "plan_cache": ((str,), False, True),
    "plan_feedback": ((dict,), False, True),
    "legs": ((dict,), True, False),
    "events": ((list,), True, False),
    "decisions": ((list,), True, False),
    "error": ((str,), False, True),
    "slow": ((bool,), False, False),
    "session": ((str,), False, True),
    "shed": ((str,), False, True),
    "queued_ms": (_NUMBER, False, True),
}

#: A flight record's ``plan_feedback`` object: the learned order the run
#: started from and the write-backs its plan-cache entry had seen. Records
#: written before learned runs became static may carry ``settled`` (the
#: entry's last run in that mode had changed nothing): accepted, not read.
PLAN_FEEDBACK_FIELDS: dict[str, tuple[tuple, bool, bool]] = {
    "order": ((list,), True, False),
    "writes": ((int,), True, False),
    "settled": ((bool,), False, False),
}

DECISION_FIELDS: dict[str, tuple[tuple, bool, bool]] = {
    "check": ((str,), True, False),
    "applied": ((bool,), True, False),
    "driving_rows": ((int,), True, False),
    "position": ((int,), True, False),
    "order_before": ((list,), True, False),
    "order_after": ((list,), True, True),
    "rank_terms": ((list,), True, False),
    "candidate_costs": ((dict,), False, False),
    "estimated_current_cost": (_NUMBER, False, True),
    "estimated_new_cost": (_NUMBER, False, True),
    "estimated_benefit": (_NUMBER, False, True),
    "window": ((dict,), False, False),
    "monitor_granularity": ((str,), False, False),
}

EVENT_FIELDS: dict[str, tuple[tuple, bool, bool]] = {
    "kind": ((str,), True, False),
    "driving_rows": ((int,), True, False),
    "old_order": ((list,), True, False),
    "new_order": ((list,), True, False),
    "estimated_current_cost": (_NUMBER, False, True),
    "estimated_new_cost": (_NUMBER, False, True),
    "estimated_benefit": (_NUMBER, False, True),
    "position": ((int,), False, False),
    "reason": ((str,), False, False),
}


def check_fields(
    obj: dict[str, Any],
    fields: dict[str, tuple[tuple, bool, bool]],
    *,
    context: str = "record",
    allow_extra: bool = False,
) -> list[str]:
    """Validate *obj* against a field spec; returns problems (empty = OK)."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"{context}: expected an object, got {type(obj).__name__}"]
    for name, (types, required, allow_none) in fields.items():
        if name not in obj:
            if required:
                problems.append(f"{context}: missing required field {name!r}")
            continue
        value = obj[name]
        if value is None:
            if not allow_none:
                problems.append(f"{context}: field {name!r} must not be null")
            continue
        # bool is an int subclass; only accept it where bool is the spec.
        if isinstance(value, bool) and bool not in types:
            problems.append(
                f"{context}: field {name!r} must be "
                f"{'/'.join(t.__name__ for t in types)}, got bool"
            )
            continue
        if not isinstance(value, types):
            problems.append(
                f"{context}: field {name!r} must be "
                f"{'/'.join(t.__name__ for t in types)}, "
                f"got {type(value).__name__}"
            )
    if not allow_extra:
        extras = set(obj) - set(fields)
        if extras:
            problems.append(
                f"{context}: unexpected field(s) {sorted(extras)!r}"
            )
    return problems


# ---------------------------------------------------------------------------
# Span traces
# ---------------------------------------------------------------------------
def validate_span(obj: Any, *, context: str = "span") -> list[str]:
    problems = check_fields(obj, SPAN_FIELDS, context=context)
    if problems:
        return problems
    if tuple(obj) != JSONL_KEYS:
        problems.append(
            f"{context}: keys {tuple(obj)!r} != expected order {JSONL_KEYS!r}"
        )
    if obj["span_id"] < 1:
        problems.append(f"{context}: span_id must be >= 1, got {obj['span_id']}")
    if not obj["name"]:
        problems.append(f"{context}: name must be non-empty")
    if obj["kind"] not in SPAN_KINDS:
        problems.append(
            f"{context}: kind {obj['kind']!r} not in {SPAN_KINDS}"
        )
    end_ms = obj["end_ms"]
    if end_ms is not None and end_ms < obj["start_ms"]:
        problems.append(
            f"{context}: end_ms {end_ms} < start_ms {obj['start_ms']}"
        )
    if (
        obj["name"] == "plan-cache"
        and obj["attrs"].get("outcome") not in PLAN_CACHE_OUTCOMES
    ):
        problems.append(
            f"{context}: plan-cache span outcome "
            f"{obj['attrs'].get('outcome')!r} not in {PLAN_CACHE_OUTCOMES}"
        )
    return problems


class TraceValidator:
    """Cross-line invariants of one span-trace file."""

    def __init__(self) -> None:
        self.seen_ids: set[int] = set()
        self.roots = 0
        self.lines = 0

    def feed(self, obj: Any, *, context: str = "span") -> list[str]:
        self.lines += 1
        problems = validate_span(obj, context=context)
        if problems:
            return problems
        span_id = obj["span_id"]
        if span_id in self.seen_ids:
            problems.append(f"{context}: duplicate span_id {span_id}")
        parent_id = obj["parent_id"]
        if parent_id is None:
            self.roots += 1
        elif parent_id not in self.seen_ids:
            problems.append(
                f"{context}: parent_id {parent_id} does not reference an "
                f"earlier span"
            )
        self.seen_ids.add(span_id)
        return problems

    def finish(self) -> list[str]:
        if self.lines == 0:
            return ["trace file is empty"]
        if self.roots == 0:
            return ["no root span (parent_id null) in the trace"]
        return []


# ---------------------------------------------------------------------------
# Telemetry segments
# ---------------------------------------------------------------------------
def validate_flight_record(obj: Any, *, context: str = "record") -> list[str]:
    problems = check_fields(obj, FLIGHT_FIELDS, context=context)
    if problems:
        return problems
    if obj.get("plan_cache") not in (None, *PLAN_CACHE_OUTCOMES):
        problems.append(
            f"{context}: plan_cache {obj['plan_cache']!r} "
            f"not in {PLAN_CACHE_OUTCOMES}"
        )
    feedback = obj.get("plan_feedback")
    if feedback is not None:
        problems.extend(
            check_fields(
                feedback, PLAN_FEEDBACK_FIELDS, context=f"{context}: plan_feedback"
            )
        )
        if obj.get("plan_cache") != "hit":
            problems.append(
                f"{context}: plan_feedback on a plan_cache "
                f"{obj.get('plan_cache')!r} lookup (only a hit reads it)"
            )
    for index, decision in enumerate(obj["decisions"]):
        ctx = f"{context}: decision[{index}]"
        sub = check_fields(decision, DECISION_FIELDS, context=ctx)
        problems.extend(sub)
        if not sub and decision["check"] not in ("inner", "driving"):
            problems.append(
                f"{ctx}: check {decision['check']!r} "
                f"not in ('inner', 'driving')"
            )
    for index, event in enumerate(obj["events"]):
        problems.extend(
            check_fields(
                event, EVENT_FIELDS, context=f"{context}: event[{index}]"
            )
        )
    return problems


def validate_telemetry_record(obj: Any, *, context: str = "record") -> list[str]:
    """Dispatch on the ``type`` tag; unknown types are an error."""
    if not isinstance(obj, dict):
        return [f"{context}: expected an object, got {type(obj).__name__}"]
    record_type = obj.get("type")
    if record_type == "flight":
        return validate_flight_record(obj, context=context)
    return [
        f"{context}: unknown record type {record_type!r} "
        f"(known: {TELEMETRY_RECORD_TYPES})"
    ]


class TelemetryValidator:
    """Cross-line invariants of one or more telemetry segments."""

    def __init__(self) -> None:
        self.seen_query_ids: set[str] = set()
        self.lines = 0

    def feed(self, obj: Any, *, context: str = "record") -> list[str]:
        self.lines += 1
        problems = validate_telemetry_record(obj, context=context)
        if problems:
            return problems
        query_id = obj["query_id"]
        if query_id in self.seen_query_ids:
            problems.append(f"{context}: duplicate query_id {query_id!r}")
        self.seen_query_ids.add(query_id)
        return problems

    def finish(self) -> list[str]:
        if self.lines == 0:
            return ["telemetry segment(s) contain no records"]
        return []


def sniff_kind(first_line: str) -> str:
    """Guess a JSONL file's format from its first line.

    Returns ``"trace"``, ``"telemetry"``, or ``"unknown"``.
    """
    try:
        obj = json.loads(first_line)
    except json.JSONDecodeError:
        return "unknown"
    if not isinstance(obj, dict):
        return "unknown"
    if "span_id" in obj:
        return "trace"
    if "type" in obj:
        return "telemetry"
    return "unknown"
