"""Concurrent query serving for the adaptive join engine.

The package lifts PR 1-4's *per-query* robustness (budgets, cancellation,
sandboxed degradation, batched execution) to *system-level* QoS:
an asyncio multi-client server speaking newline-delimited JSON, with

* bounded admission control — explicit ``REJECTED_OVERLOAD`` instead of
  unbounded buffering (:mod:`repro.server.admission`),
* per-client token-bucket rate limits and fair round-robin scheduling
  across sessions (:mod:`repro.server.session`,
  :mod:`repro.server.scheduler`),
* server-enforced :class:`~repro.robustness.limits.ExecutionLimits` wired
  to a :class:`~repro.robustness.limits.CancellationToken` per request, so
  client disconnects cancel in-flight queries,
* graceful degradation under pressure — shed to the static plan before
  rejecting — and drain-then-exit on SIGTERM,
* plans served from the database's own plan cache — single-flight, so a
  stampede on one statement plans it once
  (:mod:`repro.optimizer.plancache`; the server keeps no plan state), and
* a live ``stats`` op backed by the :mod:`repro.obs.metrics` registry.
"""

from repro.server.admission import AdmissionController, ServerConfig
from repro.server.protocol import (
    ErrorCode,
    ProtocolError,
    QueryRequest,
    decode_request,
    encode_response,
    normalize_sql,
    template_signature,
)
from repro.server.scheduler import FairScheduler
from repro.server.session import Session, TokenBucket
from repro.server.server import DatabaseEngine, EngineResult, QueryServer

__all__ = [
    "AdmissionController",
    "DatabaseEngine",
    "EngineResult",
    "ErrorCode",
    "FairScheduler",
    "ProtocolError",
    "QueryRequest",
    "QueryServer",
    "ServerConfig",
    "Session",
    "TokenBucket",
    "decode_request",
    "encode_response",
    "normalize_sql",
    "template_signature",
]
