"""The flight recorder: always-on, bounded per-query telemetry.

Every executed query leaves one :class:`FlightRecord` — the normalized
SQL and its template signature, the optimizer's plan, per-leg
estimated-vs-actual cardinalities and q-errors, every adaptation event
*with the rank-rule inputs that justified it* (captured as
:class:`DecisionRecord` at the controller's check points), the
budget/shed outcome, and end-to-end latency. Records land in a bounded
in-memory ring buffer and, when a telemetry directory is configured,
drain to a rotating JSONL store with atomic segment rotation.

Design constraints (PR 2's observability contract, extended):

* an armed recorder **never touches the deterministic WorkMeter** — the
  decision audit reads monitors and evaluates the (memoized, meter-free)
  cost model at check points the controller already paid for;
* the decision audit is fed at the controller's check points only (no
  bundle has a per-row or per-probe hook), so the executor's run loop
  barely sees it (``benchmarks/bench_speedup.py --check`` holds
  ``stats.wall_seconds`` to 5% over a disarmed run);
* what a record does cost comes after that loop — the final legs
  snapshot, building the record, packing it — and is computed once per
  plan where the plan determines it: the plan cache memoizes each text's
  normalized form and template (:meth:`~repro.optimizer.plancache.
  PlanCache.texts`), and the legs summary of a run that monitored nothing
  is its plan's prepared record's (:meth:`QueryObservability.finish`). On
  the served workload's 40 statement/mode pairs at scale 0.1
  (``scripts/layer_times.py --served``, 2-core KVM host) a request's
  record went from ≈90 µs (the snapshot inside the execution ≈20, the
  build 57, the pack 13) to ≈25 µs (build 10, pack 15); a monitored run
  still snapshots its legs as it ends;
* the ring is bounded and the store is size-capped with segment
  retention — an always-on recorder cannot grow without bound.

Store layout: ``telemetry-NNNNNN.jsonl`` segments, newest index highest.
The active segment is written as ``telemetry-NNNNNN.jsonl.part`` and
finalized via ``os.replace`` on rotation or close, so readers only ever
see complete segments (atomic rotation).
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import operator
import os
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Iterator, Mapping, NamedTuple, Sequence

from repro.core.events import AdaptationEvent, EventKind
from repro.executor.access import FLOW_COUNTERS
from repro.executor.pipeline import starting_legs
from repro.obs.metrics import MetricsRegistry, record_query_metrics
from repro.obs.timeseries import EstimateSampler, snapshot_legs
from repro.obs.trace import Tracer
from repro.query.sql.normalize import normalize_sql, template_signature

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db import QueryResult
    from repro.executor.pipeline import PipelineRun
    from repro.optimizer.params import ModelProvider

logger = logging.getLogger(__name__)

#: The record type tag every telemetry line carries (see obs/schema.py).
FLIGHT_RECORD_TYPE = "flight"

_SEGMENT_PREFIX = "telemetry-"
_SEGMENT_SUFFIX = ".jsonl"


def _finite(value: Any) -> Any:
    """JSON-safe number: NaN/inf become None (JSONL must stay parseable)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _clean(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(key): _clean(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(item) for item in obj]
    return _finite(obj)


# ---------------------------------------------------------------------------
# Decision audit: the rank-rule inputs behind each check
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RankTerm:
    """One leg's Eq (3) rank inputs at its pipeline position."""

    alias: str
    position: int
    jc: float | None       # join cardinality (Eq 11)
    pc: float | None       # probe cost
    rank: float | None     # (jc - 1) / pc

    def as_dict(self) -> dict[str, Any]:
        return {
            "alias": self.alias,
            "position": self.position,
            "jc": _finite(self.jc),
            "pc": _finite(self.pc),
            "rank": _finite(self.rank),
        }


def granularity_of(engine: str) -> str:
    """Where the engine that ran fires its reorder checks: at chunk
    boundaries on the monitored cascade, every ``c`` rows otherwise."""
    return "chunk" if engine == "vector-adaptive" else "exact"


@dataclass
class DecisionRecord:
    """One controller check — kept or applied — with its model inputs.

    Captured at the two safe points (suffix-depleted, pipeline-depleted)
    whenever a recorder is armed. ``rank_terms`` carry the per-leg Eq (3)
    inputs of the order being judged; driving checks additionally list
    every candidate driving leg's estimated full-order cost (after the
    anti-thrash penalty), which is exactly what Fig 3 compares.
    """

    check: str                     # "inner" | "driving"
    applied: bool
    driving_rows: int
    position: int
    order_before: tuple[str, ...]
    order_after: tuple[str, ...] | None
    rank_terms: tuple[RankTerm, ...] = ()
    candidate_costs: dict[str, float] = field(default_factory=dict)
    estimated_current_cost: float | None = None
    estimated_new_cost: float | None = None
    window: dict[str, dict[str, Any]] = field(default_factory=dict)
    monitor_granularity: str = "exact"

    @property
    def estimated_benefit(self) -> float | None:
        cur, new = self.estimated_current_cost, self.estimated_new_cost
        if cur is None or new is None or cur <= 0:
            return None
        return max(0.0, min(1.0, 1.0 - new / cur))

    def as_dict(self) -> dict[str, Any]:
        return {
            "check": self.check,
            "applied": self.applied,
            "driving_rows": self.driving_rows,
            "position": self.position,
            "order_before": list(self.order_before),
            "order_after": (
                None if self.order_after is None else list(self.order_after)
            ),
            "rank_terms": [term.as_dict() for term in self.rank_terms],
            "candidate_costs": {
                alias: _finite(cost)
                for alias, cost in sorted(self.candidate_costs.items())
            },
            "estimated_current_cost": _finite(self.estimated_current_cost),
            "estimated_new_cost": _finite(self.estimated_new_cost),
            "estimated_benefit": _finite(self.estimated_benefit),
            "window": _clean(self.window),
            "monitor_granularity": self.monitor_granularity,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DecisionRecord":
        return cls(
            check=data["check"],
            applied=data["applied"],
            driving_rows=data["driving_rows"],
            position=data["position"],
            order_before=tuple(data["order_before"]),
            order_after=(
                None
                if data.get("order_after") is None
                else tuple(data["order_after"])
            ),
            rank_terms=tuple(
                RankTerm(
                    alias=term["alias"],
                    position=term["position"],
                    jc=term.get("jc"),
                    pc=term.get("pc"),
                    rank=term.get("rank"),
                )
                for term in data.get("rank_terms", ())
            ),
            candidate_costs=dict(data.get("candidate_costs", {})),
            estimated_current_cost=data.get("estimated_current_cost"),
            estimated_new_cost=data.get("estimated_new_cost"),
            window=data.get("window", {}),
            monitor_granularity=data.get("monitor_granularity", "exact"),
        )


def rank_terms_for(
    order: list[str], position: int, provider: "ModelProvider"
) -> tuple[RankTerm, ...]:
    """Eq (3) rank inputs for the suffix at *position* of *order*.

    Pure cost-model evaluation: the provider memoizes its monitored
    parameters and never charges the WorkMeter, so audit capture is
    wall-time-only by construction.
    """
    from repro.optimizer.cost import rank  # local: avoid import cycles

    bound = frozenset(order[:position])
    terms: list[RankTerm] = []
    for offset, alias in enumerate(order[position:]):
        jc, pc = provider.inner_params(alias, bound)
        terms.append(
            RankTerm(
                alias=alias,
                position=position + offset,
                jc=jc,
                pc=pc,
                rank=rank(jc, pc) if pc else None,
            )
        )
        bound = bound | {alias}
    return tuple(terms)


class QueryObservability:
    """One query's observation: what the engine feeds at its cold sites, and
    what every report on the run is read from after it.

    The engine feeds it at two sites only: each reorder check, once —
    :meth:`on_kept` (one tuple append; thousands per adaptive query) or
    :meth:`on_decision` with the check's :class:`DecisionRecord` (an applied
    check, or a kept driving check under a flight recorder) — and each
    transient-fault retry, one append to :attr:`retries` of the site and the
    stream position (checks plus adaptation events so far). ``Database``
    calls :meth:`finish` after the run, also one that raised: it takes the
    legs' flow counters, the events and the final legs snapshot, and renders
    what was armed — the trace's engine events (:meth:`timeline`), the
    per-query metrics, the final estimate sample. EXPLAIN ANALYZE and the
    flight record read the same object; the estimate sampler is the one
    capture a check feeds beyond the check stream.

    Kept checks become slim :class:`DecisionRecord` envelopes lazily (and
    cached) when :attr:`decisions` is first read. Past :attr:`max_decisions`
    checks the stream is cut (:attr:`truncated`), its views with it.
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        sampler: EstimateSampler | None = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.sampler = sampler
        # Set by FlightRecorder.arm: the decisions are the record's (and
        # QueryResult.decisions), and kept driving checks are audited whole.
        self.audit = False
        self.max_decisions = 10_000
        self.truncated = False
        # DecisionRecords and kept-check tuples, in check order, and each
        # one's stream position.
        self.checks: list[Any] = []
        self._marks: list[int] = []
        self._materialized: tuple[int, list[DecisionRecord]] | None = None
        # (site, stream position) per transient-fault retry.
        self.retries: list[tuple[str, int]] = []
        # Set by finish: {alias: the leg's flow counters}, the adaptation
        # events, the order history, the final order and rows emitted.
        self.flows: Mapping[str, Any] = {}
        self.events: Sequence[AdaptationEvent] = ()
        self.history: Sequence[tuple[str, ...]] = ()
        self.order: tuple[str, ...] = ()
        self.rows_emitted = 0
        self.final_legs: dict[str, dict[str, Any]] = {}
        # The record's legs summary of the plan that ran, when finish took
        # it from the plan's prepared record; else None.
        self.legs: dict[str, dict[str, Any]] | None = None

    @classmethod
    def armed(cls) -> "QueryObservability":
        """Tracer, metrics and estimate sampler (the ``obs=True`` bundle)."""
        return cls(Tracer(), MetricsRegistry(), EstimateSampler())

    @property
    def decisions(self) -> list[DecisionRecord]:
        """Every audited check, in order, as :class:`DecisionRecord`s."""
        cached = self._materialized
        if cached is not None and cached[0] == len(self.checks):
            return cached[1]
        out: list[DecisionRecord] = []
        for entry in self.checks:
            if type(entry) is DecisionRecord:
                out.append(entry)
            else:
                check, driving_rows, position, order, granularity = entry
                out.append(
                    DecisionRecord(
                        check=check,
                        applied=False,
                        driving_rows=driving_rows,
                        position=position,
                        order_before=order,
                        order_after=None,
                        monitor_granularity=granularity,
                    )
                )
        self._materialized = (len(self.checks), out)
        return out

    # ------------------------------------------------------------------
    # The engine's sites
    # ------------------------------------------------------------------
    def on_kept(
        self, pipeline: "PipelineRun", check: str, position: int
    ) -> None:
        """A check that kept the order: slim envelope, tuple-cheap."""
        self.on_decision(
            pipeline,
            (
                check,
                pipeline.driving_rows_total,
                position,
                tuple(pipeline.order),
                granularity_of(pipeline.engine_used),
            ),
        )

    def on_decision(
        self, pipeline: "PipelineRun", entry: DecisionRecord | tuple
    ) -> None:
        """One check: its :class:`DecisionRecord` (or :meth:`on_kept`'s
        tuple), at the stream position it ran at."""
        if self.sampler is not None:
            self.sampler.on_check(pipeline)
        checks = self.checks
        if len(checks) >= self.max_decisions:
            self.truncated = True
            return
        self._marks.append(len(checks) + len(pipeline.events))
        checks.append(entry)

    # ------------------------------------------------------------------
    # After the run
    # ------------------------------------------------------------------
    def finish(self, pipeline: "PipelineRun") -> None:
        """Take the run's flow, events and final legs; render the views."""
        self.flows = pipeline.flows
        self.events = pipeline.events
        self.history = pipeline.order_history
        self.order = tuple(pipeline.order)
        self.rows_emitted = pipeline.rows_emitted
        self._final_legs(pipeline)
        if self.sampler is not None:
            self.sampler.sample(pipeline, self.final_legs)
        if self.tracer is None and self.metrics is None:
            return
        timeline = list(self.timeline())
        if self.tracer is not None:
            for name, kind, attrs in timeline:
                self.tracer.event(name, kind, **attrs)
        if self.metrics is not None:
            record_query_metrics(self.metrics, timeline, self)

    def _final_legs(self, pipeline: "PipelineRun") -> None:
        """Final per-leg monitor snapshot (actuals for q-error reporting).

        A run that monitored nothing ends as its plan's prepared record
        starts: the plan's order and probe program, idle monitors, the
        plan's priors and cardinalities. Its snapshot and legs summary are
        the record's, taken once of the record's starting legs (no run's)
        and shared, read-only, by every later such run; a new catalog
        generation or a feedback plan has a record of its own. A monitored
        run is snapshotted as it ends.
        """
        if pipeline.config.mode.monitors:
            self.final_legs = snapshot_legs(pipeline)
            self.legs = None
            return
        prepared = pipeline.prepared
        memo = prepared.summary
        if not memo:
            plan = pipeline.plan
            final_legs = snapshot_legs(pipeline, starting_legs(plan, prepared))
            memo[:] = [(final_legs, _build_legs(plan, final_legs))]
        self.final_legs, self.legs = memo[0]

    def timeline(self) -> Iterator[tuple[str, str, dict[str, Any]]]:
        """The run's engine events as ``(name, kind, attrs)``, in the order
        they happened: the first driving leg's ``leg-open``; each check's
        ``reorder-check``, each ``adaptation`` event (a driving switch
        followed by the new driving leg's ``leg-open``, ``resumed`` when it
        drove before) and each ``fault-retry``, merged by stream position;
        then one ``leg-flow`` per leg."""
        checks, marks, events = self.decisions, self._marks, self.events
        retries = self.retries
        drivers = {self.history[0][0]}
        yield "leg-open", "leg", {"leg": self.history[0][0], "resumed": False}
        done = taken = retried = 0
        while True:
            position = done + taken
            while retried < len(retries) and retries[retried][1] <= position:
                yield "fault-retry", "event", {"site": retries[retried][0]}
                retried += 1
            if done < len(checks) and marks[done] == position:
                check = checks[done]
                done += 1
                yield "reorder-check", "check", {
                    "check": check.check,
                    "applied": check.applied,
                    "position": check.position,
                    "driving_rows": check.driving_rows,
                }
            elif taken < len(events):
                event = events[taken]
                taken += 1
                yield "adaptation", "adapt", {
                    "event": event.kind.value,
                    "old_order": event.old_order,
                    "new_order": event.new_order,
                    "driving_rows": event.driving_rows_produced,
                    "est_current_cost": event.estimated_current_cost,
                    "est_new_cost": event.estimated_new_cost,
                }
                if event.kind is EventKind.DRIVING_SWITCH:
                    leg = event.new_order[0]
                    yield "leg-open", "leg", {"leg": leg, "resumed": leg in drivers}
                    drivers.add(leg)
            else:
                break
        for alias, flow in self.flows.items():
            yield "leg-flow", "leg", {
                "leg": alias,
                **{name: getattr(flow, name) for name in FLOW_COUNTERS},
            }


# ---------------------------------------------------------------------------
# The flight record itself
# ---------------------------------------------------------------------------
@dataclass
class FlightRecord:
    """Everything the recorder knows about one executed query."""

    query_id: str
    ts: float                      # unix seconds at finalization
    sql: str                       # normalized statement text
    template: str                  # literals replaced by ?
    mode: str
    outcome: str                   # ok | budget_exceeded | cancelled | ...
    wall_ms: float
    work_units: float
    rows: int
    plan_order: tuple[str, ...] = ()
    plan_cost: float | None = None
    final_order: tuple[str, ...] = ()
    monitor_granularity: str = "exact"
    # Which execution engine ran the pipeline (ExecutionStats.engine).
    engine: str = "unknown"
    # How the plan was obtained (ExecutionStats.plan_cache): hit / miss /
    # wait / off; None for a plan passed in, or a query that never ran.
    plan_cache: str | None = None
    # Set when the run started from its entry's feedback plan
    # (ExecutionStats.plan_feedback): ``{"order": [...], "writes": n}``;
    # ``plan_order`` / ``plan_cost`` are then that plan's.
    plan_feedback: dict[str, Any] | None = None
    legs: dict[str, dict[str, Any]] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)
    decisions: list[DecisionRecord] = field(default_factory=list)
    error: str | None = None
    slow: bool = False
    # Server context (empty for embedded executions).
    session: str | None = None
    shed: str | None = None
    queued_ms: float | None = None

    @property
    def adaptations(self) -> int:
        return len(self.events)

    def __reduce__(self):
        # Pickled as its field values, in order: no field names, and no
        # state dict to rebuild on the way back.
        return (FlightRecord, _field_values(self))

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": FLIGHT_RECORD_TYPE,
            "query_id": self.query_id,
            "ts": self.ts,
            "sql": self.sql,
            "template": self.template,
            "mode": self.mode,
            "outcome": self.outcome,
            "wall_ms": _finite(round(self.wall_ms, 3)),
            "work_units": _finite(round(self.work_units, 3)),
            "rows": self.rows,
            "plan_order": list(self.plan_order),
            "plan_cost": _finite(self.plan_cost),
            "final_order": list(self.final_order),
            "monitor_granularity": self.monitor_granularity,
            "engine": self.engine,
            "plan_cache": self.plan_cache,
            "plan_feedback": self.plan_feedback,
            "legs": _clean(self.legs),
            "events": _clean(self.events),
            "decisions": [decision.as_dict() for decision in self.decisions],
            "error": self.error,
            "slow": self.slow,
            "session": self.session,
            "shed": self.shed,
            "queued_ms": _finite(self.queued_ms),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FlightRecord":
        return cls(
            query_id=data["query_id"],
            ts=data["ts"],
            sql=data["sql"],
            template=data["template"],
            mode=data["mode"],
            outcome=data["outcome"],
            wall_ms=data["wall_ms"] or 0.0,
            work_units=data["work_units"] or 0.0,
            rows=data["rows"],
            plan_order=tuple(data.get("plan_order", ())),
            plan_cost=data.get("plan_cost"),
            final_order=tuple(data.get("final_order", ())),
            monitor_granularity=data.get("monitor_granularity", "exact"),
            engine=data.get("engine", "unknown"),
            plan_cache=data.get("plan_cache"),
            plan_feedback=data.get("plan_feedback"),
            legs=data.get("legs", {}),
            events=data.get("events", []),
            decisions=[
                DecisionRecord.from_dict(decision)
                for decision in data.get("decisions", ())
            ],
            error=data.get("error"),
            slow=data.get("slow", False),
            session=data.get("session"),
            shed=data.get("shed"),
            queued_ms=data.get("queued_ms"),
        )


_field_values = operator.attrgetter(*(f.name for f in fields(FlightRecord)))


def _record_line(record: FlightRecord) -> str:
    """*record* as the telemetry store writes it: one JSONL line."""
    return (
        json.dumps(record.to_dict(), separators=(",", ":"), default=str) + "\n"
    )


class PackedRecord(NamedTuple):
    """A flight record as it travels from the process that built it to the
    one that keeps it (:meth:`FlightRecorder.pack` /
    :meth:`FlightRecorder.ingest`): what the counters and the slow-query
    log read, the record itself pickled — the keeper unpickles it when
    somebody reads a ring, not when it arrives — and its telemetry line,
    encoded by the builder when the store or the slow-query log will want
    one. A flat tuple: inside the query server's reply header it pickles
    as its five fields, the record's bytes among them once."""

    query_id: str
    wall_ms: float
    slow: bool
    pickled: bytes
    line: str | None

    def unpack(self) -> FlightRecord:
        return pickle.loads(self.pickled)


def _unpacked(record: "FlightRecord | PackedRecord") -> FlightRecord:
    return record.unpack() if isinstance(record, PackedRecord) else record


def feedback_to_dict(
    plan_feedback: tuple[tuple[str, ...], int] | None,
) -> dict[str, Any] | None:
    """``ExecutionStats.plan_feedback`` as flight records and replies carry
    it."""
    if plan_feedback is None:
        return None
    order, writes = plan_feedback
    return {"order": list(order), "writes": writes}


def event_to_dict(event: AdaptationEvent) -> dict[str, Any]:
    return {
        "kind": event.kind.value,
        "driving_rows": event.driving_rows_produced,
        "old_order": list(event.old_order),
        "new_order": list(event.new_order),
        "estimated_current_cost": _finite(event.estimated_current_cost),
        "estimated_new_cost": _finite(event.estimated_new_cost),
        "estimated_benefit": _finite(event.estimated_benefit),
        "position": event.position,
        "reason": event.reason,
    }


def event_from_dict(data: dict[str, Any]) -> AdaptationEvent:
    return AdaptationEvent(
        kind=EventKind(data["kind"]),
        driving_rows_produced=data["driving_rows"],
        old_order=tuple(data["old_order"]),
        new_order=tuple(data["new_order"]),
        estimated_current_cost=data.get("estimated_current_cost") or 0.0,
        estimated_new_cost=data.get("estimated_new_cost") or 0.0,
        position=data.get("position", 0),
        reason=data.get("reason", ""),
    )


# ---------------------------------------------------------------------------
# Rotating JSONL store
# ---------------------------------------------------------------------------
class TelemetryStore:
    """Size-capped rotating JSONL segments with atomic finalization.

    Appends go to ``telemetry-NNNNNN.jsonl.part``; when the active
    segment exceeds ``max_segment_bytes`` (or on :meth:`close`) it is
    renamed to its final ``.jsonl`` name via ``os.replace`` — readers
    never observe a half-written segment. At most ``max_segments``
    finalized segments are retained; the oldest are deleted.
    """

    def __init__(
        self,
        directory: str,
        max_segment_bytes: int = 1_048_576,
        max_segments: int = 16,
    ) -> None:
        if max_segment_bytes < 1:
            raise ValueError("max_segment_bytes must be >= 1")
        if max_segments < 1:
            raise ValueError("max_segments must be >= 1")
        self.directory = directory
        self.max_segment_bytes = max_segment_bytes
        self.max_segments = max_segments
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = None
        self._active_index = self._next_index()
        self._active_bytes = 0
        self.appended_total = 0
        self.rotations_total = 0

    # -- paths ---------------------------------------------------------
    def _segment_name(self, index: int) -> str:
        return f"{_SEGMENT_PREFIX}{index:06d}{_SEGMENT_SUFFIX}"

    def _part_path(self, index: int) -> str:
        return os.path.join(self.directory, self._segment_name(index) + ".part")

    def _final_path(self, index: int) -> str:
        return os.path.join(self.directory, self._segment_name(index))

    def _next_index(self) -> int:
        highest = 0
        for name in os.listdir(self.directory):
            if not name.startswith(_SEGMENT_PREFIX):
                continue
            stem = name[len(_SEGMENT_PREFIX):]
            for suffix in (_SEGMENT_SUFFIX + ".part", _SEGMENT_SUFFIX):
                if stem.endswith(suffix):
                    stem = stem[: -len(suffix)]
                    break
            else:
                continue
            try:
                highest = max(highest, int(stem))
            except ValueError:
                continue
        return highest + 1

    def segment_paths(self) -> list[str]:
        """Finalized segment paths, oldest first."""
        names = [
            name
            for name in os.listdir(self.directory)
            if name.startswith(_SEGMENT_PREFIX)
            and name.endswith(_SEGMENT_SUFFIX)
        ]
        return [os.path.join(self.directory, name) for name in sorted(names)]

    # -- writes --------------------------------------------------------
    def append(self, payload: dict[str, Any]) -> None:
        self.append_line(
            json.dumps(payload, separators=(",", ":"), default=str) + "\n"
        )

    def append_line(self, line: str) -> None:
        """Append one already encoded record (a JSON object and ``\\n``)."""
        data = line.encode("utf-8")
        with self._lock:
            if self._handle is None:
                self._handle = open(
                    self._part_path(self._active_index), "a", encoding="utf-8"
                )
                self._active_bytes = self._handle.tell()
            self._handle.write(line)
            self._handle.flush()
            self._active_bytes += len(data)
            self.appended_total += 1
            if self._active_bytes >= self.max_segment_bytes:
                self._rotate_locked()

    def _rotate_locked(self) -> None:
        assert self._handle is not None
        self._handle.close()
        os.replace(
            self._part_path(self._active_index),
            self._final_path(self._active_index),
        )
        self._handle = None
        self._active_index += 1
        self._active_bytes = 0
        self.rotations_total += 1
        self._prune_locked()

    def _prune_locked(self) -> None:
        segments = self.segment_paths()
        while len(segments) > self.max_segments:
            victim = segments.pop(0)
            try:
                os.remove(victim)
            except OSError:  # pragma: no cover - concurrent external delete
                break

    def rotate(self) -> None:
        """Finalize the active segment now (if it has any records)."""
        with self._lock:
            if self._handle is not None:
                self._rotate_locked()

    def close(self) -> None:
        """Finalize the active segment; idempotent."""
        self.rotate()

    # -- reads ---------------------------------------------------------
    @staticmethod
    def iter_records(directory: str) -> "list[dict[str, Any]]":
        """Every record in *directory*'s finalized segments, oldest first.

        Malformed lines are skipped (a crash can truncate at most the
        tail of a ``.part`` file, which is not read here at all — but be
        forgiving anyway).
        """
        records: list[dict[str, Any]] = []
        if not os.path.isdir(directory):
            return records
        names = sorted(
            name
            for name in os.listdir(directory)
            if name.startswith(_SEGMENT_PREFIX)
            and name.endswith(_SEGMENT_SUFFIX)
        )
        for name in names:
            path = os.path.join(directory, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            obj = json.loads(line)
                        except json.JSONDecodeError:
                            continue
                        if isinstance(obj, dict):
                            records.append(obj)
            except OSError:  # pragma: no cover - segment pruned mid-read
                continue
        return records


# ---------------------------------------------------------------------------
# The recorder
# ---------------------------------------------------------------------------
class FlightRecorder:
    """Process-level recorder: ring buffer + optional rotating store.

    Thread-safe: embedding callers may :meth:`arm` / :meth:`finish_query`
    from several threads. :meth:`finish_query` is :meth:`build_record`
    then :meth:`ingest`; the query server runs the halves in different
    processes — each engine process builds the record of the query it
    ran and packs it (:meth:`pack`), and the event-loop process ingests
    them all, so the ring, the slow ring, the counters and the
    single-writer store stay in one place. ``query_id`` values are unique
    across process restarts and forks
    (``q-<pid hex>-<start ms hex>-<seq>``).
    """

    def __init__(
        self,
        capacity: int = 256,
        store: TelemetryStore | None = None,
        slow_query_ms: float | None = None,
        clock=time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self._ring: deque[FlightRecord | PackedRecord] = deque(maxlen=capacity)
        self._slow: deque[FlightRecord | PackedRecord] = deque(
            maxlen=min(capacity, 64)
        )
        self._lock = threading.Lock()
        self._clock = clock
        self._reseed_ids()
        self.store = store
        self.slow_query_ms = slow_query_ms
        self.recorded_total = 0
        self.slow_total = 0

    # -- per-query -----------------------------------------------------
    def arm(
        self,
        base: QueryObservability | None = None,
        max_decisions: int = 10_000,
    ) -> QueryObservability:
        """A query's observation with the decision audit armed.

        Without *base* it is recorder-only (tracer, metrics and sampler all
        None). With *base*, the caller's already-armed bundle is audited.
        """
        bundle = base if base is not None else QueryObservability()
        bundle.audit = True
        bundle.max_decisions = max_decisions
        return bundle

    def finish_query(
        self, bundle: QueryObservability, result=None, **fields
    ) -> FlightRecord:
        """Finalize one query's flight record and append it everywhere
        (arguments as :meth:`build_record`)."""
        record = self.build_record(bundle, result, **fields)
        self.ingest(record)
        return record

    def _reseed_ids(self) -> None:
        self._pid = os.getpid()
        self._seq = itertools.count(1)
        self._prefix = (
            f"q-{self._pid:x}-{int(self._clock() * 1000) & 0xFFFFFF:x}"
        )

    def _next_query_id(self) -> str:
        if os.getpid() != self._pid:  # forked since: one thread, no race
            self._reseed_ids()
        return f"{self._prefix}-{next(self._seq)}"

    def build_record(
        self,
        bundle: QueryObservability,
        result: "QueryResult | None" = None,
        *,
        sql: str,
        config,
        outcome: str = "ok",
        error: BaseException | None = None,
        wall_ms: float | None = None,
        session: str | None = None,
        shed: str | None = None,
        queued_ms: float | None = None,
        texts: tuple[str, str] | None = None,
    ) -> FlightRecord:
        """One query's finished flight record; nothing is appended.

        *texts* is ``(normalized text, template signature)`` of *sql* when
        the caller has them (:meth:`~repro.optimizer.plancache.PlanCache.
        texts`: a text that went through the plan cache); else they are
        computed here.
        """
        decisions = list(bundle.decisions) if bundle.audit else []
        if texts is None:
            texts = (normalize_sql(sql), template_signature(sql))
        plan = result.plan if result is not None else None
        engine = result.stats.engine if result is not None else "unknown"
        # Shared, read-only: the summary of the plan's prepared record.
        legs = bundle.legs if plan is not None else None
        if legs is None:
            legs = _build_legs(plan, bundle.final_legs)
        record = FlightRecord(
            query_id=self._next_query_id(),
            ts=self._clock(),
            sql=texts[0],
            template=texts[1],
            mode=config.mode.value,
            outcome=outcome,
            wall_ms=(
                wall_ms
                if wall_ms is not None
                else (
                    result.stats.wall_seconds * 1000.0
                    if result is not None
                    else 0.0
                )
            ),
            work_units=result.stats.total_work if result is not None else 0.0,
            rows=len(result.rows) if result is not None else 0,
            plan_order=tuple(plan.order) if plan is not None else (),
            plan_cost=plan.estimated_cost if plan is not None else None,
            final_order=result.final_order if result is not None else (),
            monitor_granularity=granularity_of(engine),
            engine=engine,
            plan_cache=(
                result.stats.plan_cache if result is not None else None
            ),
            plan_feedback=(
                feedback_to_dict(result.stats.plan_feedback)
                if result is not None
                else None
            ),
            legs=legs,
            events=(
                [event_to_dict(event) for event in result.stats.events]
                if result is not None
                else []
            ),
            decisions=decisions,
            error=f"{type(error).__name__}: {error}" if error else None,
            session=session,
            shed=shed,
            queued_ms=queued_ms,
        )
        threshold = self.slow_query_ms
        record.slow = threshold is not None and record.wall_ms >= threshold
        return record

    def pack(self, record: FlightRecord) -> PackedRecord:
        """*record* ready to cross a process boundary to the recorder that
        will :meth:`ingest` it (configured as this one)."""
        wanted = self.store is not None or record.slow
        return PackedRecord(
            record.query_id,
            record.wall_ms,
            record.slow,
            pickle.dumps(record, pickle.HIGHEST_PROTOCOL),
            _record_line(record) if wanted else None,
        )

    def ingest(self, record: FlightRecord | PackedRecord) -> None:
        """Append a built record to the rings, the counters, the slow-query
        log and the store. A packed one is kept packed, and its line goes
        to the store as the builder encoded it."""
        line = record.line if isinstance(record, PackedRecord) else None
        with self._lock:
            self._ring.append(record)
            self.recorded_total += 1
            if record.slow:
                self._slow.append(record)
                self.slow_total += 1
        if line is None and (record.slow or self.store is not None):
            line = _record_line(_unpacked(record))
        if record.slow:
            logger.warning(
                "slow query %s (%.1f ms >= %.1f ms): %s",
                record.query_id,
                record.wall_ms,
                self.slow_query_ms,
                line.rstrip(),
            )
        if self.store is not None:
            self.store.append_line(line)

    # -- introspection -------------------------------------------------
    def recent(self, limit: int | None = None) -> list[FlightRecord]:
        with self._lock:
            records = list(self._ring)
        return [_unpacked(r) for r in (records[-limit:] if limit else records)]

    def slow_queries(self, limit: int | None = None) -> list[FlightRecord]:
        with self._lock:
            records = list(self._slow)
        return [_unpacked(r) for r in (records[-limit:] if limit else records)]

    def find(self, query_id: str) -> FlightRecord | None:
        with self._lock:
            for record in reversed(self._ring):
                if record.query_id == query_id:
                    return _unpacked(record)
        return None

    def close(self) -> None:
        if self.store is not None:
            self.store.close()


def _build_legs(
    plan, final_legs: dict[str, dict[str, Any]]
) -> dict[str, dict[str, Any]]:
    """Per-leg estimated-vs-actual summary: plan estimates + final window.

    ``q_error`` compares the monitors' measured Eq (7) index-join
    selectivity against the optimizer's prior for the same access
    predicate — max(m/p, p/m), the standard cardinality q-error — where
    both are available.
    """
    legs: dict[str, dict[str, Any]] = {}
    aliases = set(final_legs)
    if plan is not None:
        aliases.update(plan.order)
    for alias in aliases:
        entry: dict[str, Any] = {}
        if plan is not None and alias in plan.order:
            plan_leg = plan.leg(alias)
            entry["plan_position"] = plan.order.index(alias)
            entry["est_cardinality"] = plan_leg.estimates.leg_cardinality
        window = final_legs.get(alias)
        if window:
            entry.update(window)
            s_jp = window.get("s_jp")
            prior = window.get("s_jp_prior")
            if s_jp and prior and s_jp > 0 and prior > 0:
                entry["q_error"] = max(s_jp / prior, prior / s_jp)
        legs[alias] = entry
    return legs
