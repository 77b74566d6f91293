"""Structured query-lifecycle tracing.

A :class:`Tracer` records **spans** — named, timed intervals with
parent/child links — for the phases of a query (plan-cache, with parse
and optimize under it when the statement was not cached; execute) and
instant **events** for run-time happenings (leg opens, reorder checks,
applied reorders, each leg's row flow at the end). Spans carry free-form
attributes for work-unit and row-count attribution.

The tracer is entirely passive: it never touches the
:class:`~repro.storage.counters.WorkMeter`, so an armed tracer changes
wall-clock time only, never the deterministic work-unit accounting. With
no tracer armed, every instrumentation site in the engine pays exactly
one ``is None`` check.

JSONL schema (one object per line, one line per span)::

    {
      "span_id":   int,          # unique within the trace, > 0
      "parent_id": int | null,   # span_id of the parent, null for roots
      "name":      str,          # e.g. "query", "execute", "leg-flow"
      "kind":      str,          # "phase" | "leg" | "check" | "adapt" | "event"
      "start_ms":  float,        # offset from trace start, milliseconds
      "end_ms":    float | null, # null only for spans never closed
      "attrs":     object        # JSON-safe key/value attributes
    }

Instant events are spans whose ``end_ms`` equals ``start_ms``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

SPAN_KINDS = ("phase", "leg", "check", "adapt", "event")

#: Keys every JSONL trace line must carry (see module docstring).
JSONL_KEYS = (
    "span_id",
    "parent_id",
    "name",
    "kind",
    "start_ms",
    "end_ms",
    "attrs",
)


def _jsonable(value: Any) -> Any:
    """Coerce an attribute value into something ``json.dump`` accepts."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return str(value)


@dataclass
class Span:
    """One traced interval (or instant event, when ``end_ms == start_ms``)."""

    span_id: int
    parent_id: int | None
    name: str
    kind: str
    start_ms: float
    end_ms: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float | None:
        if self.end_ms is None:
            return None
        return self.end_ms - self.start_ms

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start_ms": round(self.start_ms, 3),
            "end_ms": None if self.end_ms is None else round(self.end_ms, 3),
            "attrs": {key: _jsonable(val) for key, val in self.attrs.items()},
        }


class Tracer:
    """Collects spans for one query execution.

    Open spans form a stack; new spans and events default their parent to
    the innermost open span, so instrumentation sites deep in the engine
    need no explicit parent plumbing.
    """

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    def _now_ms(self) -> float:
        return (time.perf_counter() - self._t0) * 1000.0

    def begin(self, name: str, kind: str = "phase", **attrs: Any) -> Span:
        """Open a span; it parents subsequent spans until :meth:`end`."""
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            kind=kind,
            start_ms=self._now_ms(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span, **attrs: Any) -> None:
        """Close *span*, merging any final attributes."""
        span.end_ms = self._now_ms()
        span.attrs.update(attrs)
        if span in self._stack:
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
            if self._stack:
                self._stack.pop()

    @contextmanager
    def span(self, name: str, kind: str = "phase", **attrs: Any) -> Iterator[Span]:
        opened = self.begin(name, kind, **attrs)
        try:
            yield opened
        finally:
            self.end(opened)

    def event(self, name: str, kind: str = "event", **attrs: Any) -> Span:
        """Record an instant event under the innermost open span."""
        now = self._now_ms()
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            kind=kind,
            start_ms=now,
            end_ms=now,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def close_all(self) -> None:
        """Close any spans left open (crash/partial-execution safety)."""
        while self._stack:
            self.end(self._stack[-1])

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(span.to_dict()) for span in self.spans)

    def write_jsonl(self, path: str) -> None:
        """Write the trace atomically (temp file + rename)."""
        payload = self.to_jsonl() + "\n" if self.spans else ""
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp, path)

    def render_tree(self) -> str:
        """Human-readable tree: indentation mirrors parent/child links."""
        children: dict[int | None, list[Span]] = {}
        for span in self.spans:
            children.setdefault(span.parent_id, []).append(span)

        lines: list[str] = []

        def visit(span: Span, depth: int) -> None:
            duration = span.duration_ms
            timing = (
                f"@{span.start_ms:.1f}ms"
                if duration is None or duration == 0.0
                else f"{duration:.1f}ms"
            )
            attrs = ""
            if span.attrs:
                inner = ", ".join(
                    f"{key}={_jsonable(val)}" for key, val in span.attrs.items()
                )
                attrs = f"  [{inner}]"
            lines.append(f"{'  ' * depth}{span.name} ({timing}){attrs}")
            for child in children.get(span.span_id, ()):
                visit(child, depth + 1)

        for root in children.get(None, ()):
            visit(root, 0)
        return "\n".join(lines)
