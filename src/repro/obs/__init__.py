"""Observability for the adaptive executor: tracing, metrics, sampling.

The subsystem is **nullable by default**: the engine carries one optional
:class:`QueryObservability` reference and every instrumentation site costs
a single ``is None`` check when observability is off. Nothing in this
package ever charges the deterministic work meter — armed observability
changes wall-clock time only, never work units or query results.

Pieces (see each module's docstring for the full contract):

* :mod:`repro.obs.trace` — structured spans (parse/optimize/execute,
  leg opens, per-leg row flow, reorder checks, adaptations) with JSONL and
  tree rendering;
* :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket histograms
  under Prometheus-style names;
* :mod:`repro.obs.timeseries` — snapshots of the monitors' Eq (5-11)
  estimates where the controller checks, for convergence analysis;
* :mod:`repro.obs.observer` — the engine-facing bundle of all three;
* :mod:`repro.obs.explain` — the EXPLAIN ANALYZE report renderer;
* :mod:`repro.obs.recorder` — the always-on flight recorder (per-query
  records with the decision audit, ring buffer + rotating JSONL store);
* :mod:`repro.obs.audit` — offline replay of recorded queries ("why did
  the driving leg switch at row N");
* :mod:`repro.obs.analytics` — per-template aggregates over recorded
  telemetry (estimate-error feedback input);
* :mod:`repro.obs.schema` — the declarative JSONL schemas shared by the
  validators and ``scripts/validate_trace.py``.
"""

from repro.obs.analytics import TelemetryAnalytics
from repro.obs.audit import (
    load_records,
    reconstruct_events,
    render_diff,
    render_listing,
    render_replay,
)
from repro.obs.explain import render_explain_analyze
from repro.obs.metrics import (
    RATIO_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.observer import QueryObservability
from repro.obs.recorder import (
    DecisionRecord,
    FlightRecord,
    FlightRecorder,
    FlightRecording,
    RankTerm,
    TelemetryStore,
)
from repro.obs.timeseries import EstimateSample, EstimateSampler
from repro.obs.trace import JSONL_KEYS, SPAN_KINDS, Span, Tracer

__all__ = [
    "Counter",
    "DecisionRecord",
    "EstimateSample",
    "EstimateSampler",
    "FlightRecord",
    "FlightRecorder",
    "FlightRecording",
    "Gauge",
    "Histogram",
    "JSONL_KEYS",
    "MetricsRegistry",
    "QueryObservability",
    "RATIO_BUCKETS",
    "RankTerm",
    "SPAN_KINDS",
    "Span",
    "TelemetryAnalytics",
    "TelemetryStore",
    "Tracer",
    "load_records",
    "reconstruct_events",
    "render_diff",
    "render_listing",
    "render_replay",
    "render_explain_analyze",
]
