"""Admission control: bounded queues, worker slots, degradation ladder.

The server never buffers without bound. A query is either

1. **admitted** — it takes a queue slot (global and per-session caps) and
   later a worker slot (the concurrency semaphore), or
2. **rejected** — an explicit ``REJECTED_OVERLOAD`` / ``RATE_LIMITED`` /
   ``SHUTTING_DOWN`` response, immediately, while the session stays
   healthy.

Between "fully admitted" and "rejected" sits the **degradation ladder**
(Sec "graceful degradation" of the serving design): as queue pressure
rises the server strips the adaptive layer and runs the static plan
(``static``) — less work per query, identical results — and only rejects
once the bounded queue is actually full.

State machine per query::

    submit ──draining───────────────────────▶ SHUTTING_DOWN
       │
       ├─queue full (global or session)─────▶ REJECTED_OVERLOAD
       │
       ├─rate bucket empty──────────────────▶ RATE_LIMITED
       │
       ▼
    QUEUED ──scheduler round-robin──▶ RUNNING(shed level from pressure)
       │                                 │
       │ disconnect: dropped             ├─ ok / BUDGET_EXCEEDED / CANCELLED
       ▼                                 ▼
     (dropped, no response)           response
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import AdaptiveConfig, ReorderMode
from repro.optimizer.plancache import DEFAULT_CAPACITY
from repro.robustness.limits import CancellationToken, ExecutionLimits
from repro.server.protocol import ErrorCode, QueryRequest
from repro.server.session import Session

#: Degradation ladder levels, mildest first. On the columnar backend both
#: run the vectorized cascade: ``none`` the adaptive one in chunks,
#: ``static`` the non-adaptive whole-query one — the rung sheds the checks,
#: never the kernel execution itself.
SHED_NONE = "none"      # requested config
SHED_STATIC = "static"  # strip the adaptive layer: static plan


@dataclass(frozen=True)
class ServerConfig:
    """QoS knobs of one server instance (all enforced server-side)."""

    host: str = "127.0.0.1"
    port: int = 7654
    # Worker slots: queries executing concurrently (the semaphore width).
    max_concurrency: int = 4
    # Bounded admission queue (beyond the executing queries); full → reject.
    max_queue_depth: int = 32
    # Per-session cap inside the global queue, so one pipelining client
    # cannot occupy the whole admission budget.
    max_queue_per_session: int = 8
    # Per-request budget defaults and server-side maxima. A client may ask
    # for less than the default or more — up to the max — never beyond.
    default_timeout_ms: float = 10_000.0
    max_timeout_ms: float = 60_000.0
    default_max_rows: int = 100_000
    max_max_rows: int = 1_000_000
    # Optional per-query work-unit ceiling (None = unlimited).
    max_work_units: float | None = None
    # Token bucket per session; rate <= 0 disables rate limiting.
    rate_limit_qps: float = 0.0
    rate_limit_burst: float = 8.0
    # Degradation ladder threshold as a fraction of max_queue_depth.
    shed_static_at: float = 0.50
    # Capacity (statements; 0 disables) of the plan cache of the Database
    # that ``repro serve`` builds: ``Database(plan_cache_size=...)``. The
    # server has no cache of its own, so a QueryServer handed an existing
    # Database serves from that database's cache as it was built.
    plan_cache_size: int = DEFAULT_CAPACITY
    # Seconds to wait for in-flight queries on SIGTERM before cancelling.
    drain_grace_seconds: float = 10.0
    # Flight recorder: every query leaves a record in a bounded in-memory
    # ring; setting a directory additionally drains records to rotating
    # JSONL segments (size-capped, atomic finalization, oldest pruned).
    telemetry_dir: str | None = None
    telemetry_ring: int = 256
    telemetry_segment_bytes: int = 1_048_576
    telemetry_segments: int = 16
    # Slow-query log: queries at/above this wall-clock threshold are kept
    # in a dedicated ring and logged with their full flight record
    # (None disables the slow log; records are still captured).
    slow_query_ms: float | None = None

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.max_queue_per_session < 1:
            raise ValueError("max_queue_per_session must be >= 1")
        if not 0.0 <= self.shed_static_at <= 1.0:
            raise ValueError("shed_static_at must be in [0, 1]")
        if self.default_timeout_ms > self.max_timeout_ms:
            raise ValueError("default_timeout_ms must be <= max_timeout_ms")
        if self.default_max_rows > self.max_max_rows:
            raise ValueError("default_max_rows must be <= max_max_rows")
        if self.plan_cache_size < 0:
            raise ValueError("plan_cache_size must be >= 0 (0 disables)")
        if self.telemetry_ring < 1:
            raise ValueError("telemetry_ring must be >= 1")
        if self.telemetry_segment_bytes < 1:
            raise ValueError("telemetry_segment_bytes must be >= 1")
        if self.telemetry_segments < 1:
            raise ValueError("telemetry_segments must be >= 1")
        if self.slow_query_ms is not None and self.slow_query_ms <= 0:
            raise ValueError("slow_query_ms must be positive (or None)")


@dataclass
class AdmissionDecision:
    """Outcome of one submit: either admitted or a rejection code."""

    admitted: bool
    reject_code: str | None = None
    reject_reason: str | None = None


@dataclass
class AdmissionController:
    """Bounded admission state shared by every session.

    Queue accounting lives here (the scheduler owns the actual FIFOs);
    worker-slot accounting (`in_flight`) is incremented by the server's
    worker loops. Everything runs on the event loop thread — no locks.
    """

    config: ServerConfig
    queued: int = 0
    in_flight: int = 0
    draining: bool = False
    # Lifetime counters, surfaced by the stats op.
    accepted_total: int = 0
    rejected_overload_total: int = 0
    rejected_rate_limit_total: int = 0
    rejected_draining_total: int = 0
    shed_static_total: int = 0

    def submit(self, session: Session) -> AdmissionDecision:
        """Decide admission for one more query from *session*."""
        if self.draining:
            self.rejected_draining_total += 1
            return AdmissionDecision(
                False,
                ErrorCode.SHUTTING_DOWN,
                "server is draining; no new queries accepted",
            )
        # Queue-capacity checks run before the rate bucket so an overload
        # rejection never also burns a token — otherwise retrying clients
        # would be double-penalized exactly when backoff is wanted.
        if self.queued >= self.config.max_queue_depth:
            self.rejected_overload_total += 1
            session.rejected += 1
            return AdmissionDecision(
                False,
                ErrorCode.REJECTED_OVERLOAD,
                f"admission queue full ({self.queued} queued)",
            )
        if len(session.queue) >= self.config.max_queue_per_session:
            self.rejected_overload_total += 1
            session.rejected += 1
            return AdmissionDecision(
                False,
                ErrorCode.REJECTED_OVERLOAD,
                f"session queue full "
                f"({len(session.queue)} queued by {session.name})",
            )
        if not session.bucket.try_take():
            self.rejected_rate_limit_total += 1
            session.rejected += 1
            return AdmissionDecision(
                False,
                ErrorCode.RATE_LIMITED,
                f"rate limit exceeded "
                f"({self.config.rate_limit_qps:g} queries/s, "
                f"burst {self.config.rate_limit_burst:g})",
            )
        self.accepted_total += 1
        self.queued += 1
        return AdmissionDecision(True)

    def on_dequeued(self, count: int = 1) -> None:
        self.queued = max(0, self.queued - count)

    # -- degradation ladder -------------------------------------------
    def shed_level(self) -> str:
        """Current rung of the degradation ladder, from queue pressure."""
        pressure = self.queued / self.config.max_queue_depth
        if pressure >= self.config.shed_static_at:
            return SHED_STATIC
        return SHED_NONE

    def apply_shed(
        self, request: QueryRequest, shed: str
    ) -> AdaptiveConfig:
        """The :class:`AdaptiveConfig` actually executed for *request*.

        ``none``   → requested mode;
        ``static`` → mode NONE (static plan, no monitors), counted in
        :attr:`shed_static_total`.
        """
        mode = request.mode
        if shed == SHED_STATIC:
            self.shed_static_total += 1
            mode = ReorderMode.NONE
        return AdaptiveConfig(mode=mode)

    def build_limits(
        self,
        request: QueryRequest,
        token: CancellationToken | None = None,
    ) -> tuple[ExecutionLimits, CancellationToken]:
        """Server-clamped budgets for one request.

        Client-requested budgets are clamped to the server maxima; absent
        budgets get the server defaults. *token* is the query's
        cancellation token — created at admission time so a disconnect can
        cancel the query while it is still queued.
        """
        config = self.config
        if token is None:
            token = CancellationToken()
        timeout_ms = min(
            request.timeout_ms or config.default_timeout_ms,
            config.max_timeout_ms,
        )
        return (
            ExecutionLimits(
                max_rows=min(
                    request.max_rows or config.default_max_rows,
                    config.max_max_rows,
                ),
                max_work_units=config.max_work_units,
                timeout_seconds=timeout_ms / 1000.0,
                cancellation=token,
            ),
            token,
        )
