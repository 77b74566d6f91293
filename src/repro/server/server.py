"""The asyncio query server: sessions, worker slots, drain, live stats.

Topology::

    client ──NDJSON──▶ connection handler ──▶ admission ──▶ fair scheduler
                                                │ reject            │
                                                ▼                   ▼
                                            response ◀── worker slot × N
                                                             │ to_thread
                                                             ▼
                                              DatabaseEngine (thread-scoped
                                              meter + limits + recorder)

* The **connection handler** (one per client) only parses, admits, and
  enqueues — it never blocks on the engine, so a slow query cannot stall
  another client's rejections or pings.
* **Worker slots** are ``max_concurrency`` asyncio tasks — the admission
  semaphore in loop form. Each pulls the next query in round-robin
  session order, applies the degradation ladder at *dequeue* time (the
  pressure reading is freshest there), and runs the engine in a thread.
* The **engine** executes with server-clamped
  :class:`~repro.robustness.limits.ExecutionLimits` wired to the
  request's :class:`~repro.robustness.limits.CancellationToken`; a client
  disconnect cancels its in-flight queries cooperatively at the next
  pipeline safe point or parallel wave barrier.
* **SIGTERM/SIGINT** start a drain: the listener closes, new queries get
  ``SHUTTING_DOWN``, in-flight queries finish (bounded by a grace
  period, then cancelled), and ``serve_forever`` returns 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.db import Database
from repro.errors import (
    BudgetExceeded,
    CatalogError,
    PlanError,
    QueryError,
    ReproError,
    SchemaError,
)
from repro.obs.metrics import (
    MetricsRegistry,
    record_plan_cache_gauges,
    record_storage_gauges,
)
from repro.obs.recorder import FlightRecorder, TelemetryStore
from repro.optimizer.plancache import PlanCache
from repro.robustness.limits import CancellationToken, ExecutionLimits
from repro.server.admission import (
    AdmissionController,
    SHED_SERIAL,
    SHED_STATIC,
    ServerConfig,
)
from repro.server.protocol import (
    MAX_LINE_BYTES,
    ErrorCode,
    ProtocolError,
    decode_request,
    encode_response,
    error_response,
    ok_response,
    parse_query_request,
)
from repro.server.scheduler import FairScheduler
from repro.server.session import PendingQuery, Session, TokenBucket

logger = logging.getLogger(__name__)

#: End-to-end latency buckets (ms), admission to response.
LATENCY_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0, 2500.0, 5000.0, 10000.0, 30000.0,
)


@dataclass(frozen=True)
class EngineResult:
    """What one engine execution produced, ready for serialization."""

    rows: list[tuple]
    work_units: float
    wall_ms: float
    switches: int
    degraded: bool
    workers: int
    plan_cache: str  # hit / miss / wait / off
    # Which execution engine ran (ExecutionStats.engine) — lets load
    # clients assert parallel-vector engagement from the stats op.
    engine: str = "scalar"
    # ExecutionStats.plan_feedback as the wire carries it: None, or
    # {"order": [...], "writes": n} when the run started from what an
    # earlier monitored execution of the statement learned.
    plan_feedback: dict | None = None
    # Flight-recorder context (None/0 when the engine records nothing).
    query_id: str | None = None
    slow: bool = False


class DatabaseEngine:
    """Thread-side adapter: scoped metering + flight recording + execution.

    ``execute`` runs on worker threads (via ``asyncio.to_thread``); all
    shared state it touches is thread-safe: the database's plan cache
    locks (the engine holds no plan state of its own), the thread-scoped
    meter isolates per-query work accounting, and parallel (fork-pool)
    executions are serialized by a mutex because the pool is one shared
    resource.
    """

    def __init__(self, db: Database, config: ServerConfig) -> None:
        self.db = db
        self.config = config
        self.meter = db.enable_concurrent_metering()
        self._parallel_mutex = threading.Lock()
        # Always-on flight recorder: every served query leaves a bounded
        # record; a telemetry directory adds the rotating JSONL store.
        store = (
            TelemetryStore(
                config.telemetry_dir,
                max_segment_bytes=config.telemetry_segment_bytes,
                max_segments=config.telemetry_segments,
            )
            if config.telemetry_dir
            else None
        )
        self.recorder = FlightRecorder(
            capacity=config.telemetry_ring,
            store=store,
            slow_query_ms=config.slow_query_ms,
        )
        # Fold rows appended after index creation so the first concurrent
        # queries cannot race a lazy refresh.
        for name in db.catalog.table_names():
            for index in db.catalog.indexes_of(name).values():
                index.refresh()

    def _classify(self, error: BaseException, limits: ExecutionLimits) -> str:
        if isinstance(error, BudgetExceeded):
            token = limits.cancellation
            if token is not None and token.cancelled:
                return "cancelled"
            return "budget_exceeded"
        if isinstance(error, (QueryError, PlanError, CatalogError, SchemaError)):
            return "sql_error"
        return "internal_error"

    def execute(
        self,
        sql: str,
        config,
        limits: ExecutionLimits,
        context: dict | None = None,
    ) -> EngineResult:
        context = context or {}
        # Recorder-only bundle: the decision audit is armed but the bundle
        # stays cold, and *limits* are enforced at chunk boundaries inside
        # the cascade, so neither gates the vectorized engine out (replies
        # report ``engine: vector*`` on the columnar backend) and the
        # deterministic WorkMeter sees zero extra charges. Armed before
        # planning so rejected statements leave flight records too.
        bundle = self.recorder.arm(config)
        started = time.perf_counter()
        try:
            with self.meter.scoped():
                if config.workers > 1:
                    with self._parallel_mutex:
                        result = self.db.execute(
                            sql, config, limits=limits, obs=bundle
                        )
                else:
                    result = self.db.execute(
                        sql, config, limits=limits, obs=bundle
                    )
        except BaseException as error:
            self.recorder.finish_query(
                bundle,
                sql=sql,
                config=config,
                outcome=self._classify(error, limits),
                error=error,
                wall_ms=(time.perf_counter() - started) * 1000.0,
                **context,
            )
            raise
        record = self.recorder.finish_query(
            bundle, result, sql=sql, config=config, **context
        )
        return EngineResult(
            rows=result.rows,
            work_units=result.stats.total_work,
            wall_ms=result.stats.wall_seconds * 1000.0,
            switches=result.stats.total_switches,
            degraded=result.stats.degraded,
            workers=result.stats.workers,
            plan_cache=result.stats.plan_cache,
            engine=result.stats.engine,
            plan_feedback=record.plan_feedback,
            query_id=record.query_id,
            slow=record.slow,
        )


class QueryServer:
    """One serving instance over one :class:`~repro.db.Database`."""

    def __init__(
        self,
        db: Database,
        config: ServerConfig | None = None,
        *,
        engine: Any | None = None,
    ) -> None:
        self.db = db
        self.config = config or ServerConfig()
        self.admission = AdmissionController(self.config)
        self.scheduler = FairScheduler()
        self.engine = engine if engine is not None else DatabaseEngine(
            db, self.config
        )
        self.metrics = MetricsRegistry()
        self.sessions: dict[int, Session] = {}
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._server: asyncio.AbstractServer | None = None
        self._workers: list[asyncio.Task] = []
        self._done = asyncio.Event()
        self._draining = False
        self._started_at = time.monotonic()
        self.protocol_errors = 0
        self.exit_code = 0

    # -- lifecycle -----------------------------------------------------
    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self._started_at = time.monotonic()
        self._workers = [
            asyncio.create_task(self._worker_loop(), name=f"query-slot-{i}")
            for i in range(self.config.max_concurrency)
        ]

    async def serve_forever(
        self,
        *,
        install_signals: bool = True,
        on_ready: Any | None = None,
    ) -> int:
        """Run until SIGTERM/SIGINT drains the server; returns exit code.

        *on_ready* (if given) is called with the server once the listener
        is bound — the point at which :attr:`port` is known.
        """
        await self.start()
        if on_ready is not None:
            on_ready(self)
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError):
                    loop.add_signal_handler(
                        signum,
                        lambda s=signum: asyncio.ensure_future(
                            self.shutdown(reason=signal.Signals(s).name)
                        ),
                    )
        await self._done.wait()
        return self.exit_code

    async def shutdown(
        self, *, grace: float | None = None, reason: str = "shutdown"
    ) -> None:
        """Drain-then-exit: stop intake, finish in-flight, then stop."""
        if self._draining:
            return
        self._draining = True
        self.admission.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        grace = self.config.drain_grace_seconds if grace is None else grace
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace
        while (
            self.admission.in_flight > 0 or self.scheduler.pending > 0
        ) and loop.time() < deadline:
            await asyncio.sleep(0.02)
        if self.admission.in_flight > 0:
            # Grace expired: cancel stragglers cooperatively and let the
            # worker slots return their BUDGET_EXCEEDED responses.
            for session in list(self.sessions.values()):
                for token in tuple(session.in_flight):
                    token.cancel(f"server draining ({reason})")
            cancel_deadline = loop.time() + max(grace, 1.0)
            while self.admission.in_flight > 0 and loop.time() < cancel_deadline:
                await asyncio.sleep(0.02)
        await self.scheduler.stop()
        # Bound the final drain by the grace window: a query sitting
        # between cooperative safe points must not keep serve_forever
        # alive until its own (up to 60s) timeout fires.
        if self._workers:
            _, stragglers = await asyncio.wait(
                self._workers, timeout=max(grace, 1.0)
            )
            for task in stragglers:
                task.cancel()
            if stragglers:
                await asyncio.gather(*stragglers, return_exceptions=True)
        for writer in list(self._writers.values()):
            with contextlib.suppress(Exception):
                writer.close()
        # Finalize the telemetry store's active segment so a drained
        # server leaves only complete ``.jsonl`` segments behind.
        recorder = getattr(self.engine, "recorder", None)
        if recorder is not None:
            with contextlib.suppress(Exception):
                recorder.close()
        self._done.set()

    # -- connection handling -------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        session = Session(
            peer=str(peername),
            bucket=TokenBucket(
                self.config.rate_limit_qps, self.config.rate_limit_burst
            ),
        )
        write_lock = asyncio.Lock()

        async def send(payload: dict) -> None:
            if writer.is_closing():
                return
            async with write_lock:
                writer.write(encode_response(payload))
                with contextlib.suppress(ConnectionError):
                    await writer.drain()

        session.send = send
        self.sessions[session.session_id] = session
        self._writers[session.session_id] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                    ConnectionError,
                ):
                    break
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                await self._dispatch(session, line)
        finally:
            dropped = session.disconnect()
            dropped += await self.scheduler.remove_session(session)
            if dropped:
                self.admission.on_dequeued(dropped)
                self.metrics.counter("server_dropped_on_disconnect_total").inc(
                    amount=dropped
                )
            self.sessions.pop(session.session_id, None)
            self._writers.pop(session.session_id, None)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, session: Session, line: bytes) -> None:
        send = session.send
        assert send is not None
        try:
            msg = decode_request(line)
        except ProtocolError as error:
            self.protocol_errors += 1
            await send(
                error_response(None, ErrorCode.BAD_REQUEST, str(error))
            )
            return
        op = msg["op"]
        request_id = msg.get("id")
        if op == "ping":
            await send({"id": request_id, "status": "ok", "pong": True})
            return
        if op == "stats":
            await send(
                {"id": request_id, "status": "ok", "stats": self.stats_payload()}
            )
            return
        if op == "telemetry":
            await send(self._telemetry_response(request_id, msg))
            return
        if op != "query":
            self.protocol_errors += 1
            await send(
                error_response(
                    request_id, ErrorCode.BAD_REQUEST, f"unknown op {op!r}"
                )
            )
            return
        try:
            request = parse_query_request(msg)
        except ProtocolError as error:
            self.protocol_errors += 1
            await send(
                error_response(request_id, ErrorCode.BAD_REQUEST, str(error))
            )
            return
        decision = self.admission.submit(session)
        if not decision.admitted:
            self.metrics.counter("server_rejections_total").inc(
                decision.reject_code or "unknown"
            )
            await send(
                error_response(
                    request_id,
                    decision.reject_code or ErrorCode.INTERNAL,
                    decision.reject_reason or "rejected",
                )
            )
            return
        session.submitted += 1
        pending = PendingQuery(
            request=request,
            session=session,
            token=CancellationToken(),
            enqueued_at=time.perf_counter(),
        )
        await self.scheduler.enqueue(pending)

    # -- worker slots ---------------------------------------------------
    async def _worker_loop(self) -> None:
        while True:
            pending = await self.scheduler.next()
            if pending is None:
                return
            self.admission.on_dequeued()
            session = pending.session
            if session.closed or pending.token.cancelled:
                continue
            try:
                await self._run_one(pending)
            except asyncio.CancelledError:
                raise
            except Exception as error:
                # A fault outside _run_one's own try block (shed/limits
                # computation, metrics, or sending the response) must not
                # kill this query slot — that would silently shrink server
                # concurrency and leave the client without a response.
                logger.exception(
                    "query slot fault while serving %s", session.name
                )
                self.metrics.counter("server_worker_faults_total").inc()
                send = session.send
                if send is not None:
                    with contextlib.suppress(Exception):
                        await send(
                            error_response(
                                pending.request.request_id,
                                ErrorCode.INTERNAL,
                                f"worker fault: "
                                f"{type(error).__name__}: {error}",
                            )
                        )

    async def _run_one(self, pending: PendingQuery) -> None:
        session = pending.session
        request = pending.request
        shed = self.admission.shed_level()
        applied = self.admission.apply_shed(request, shed)
        limits, _ = self.admission.build_limits(
            request, applied, token=pending.token
        )
        self.admission.in_flight += 1
        session.in_flight.add(pending.token)
        queued_ms = (time.perf_counter() - pending.enqueued_at) * 1000.0
        outcome = "ok"
        # The real engine records a flight record per query; give it the
        # serving context (session, shed rung, queue wait). Test doubles
        # without a recorder keep the plain 3-argument call.
        kwargs = (
            {
                "context": {
                    "session": session.name,
                    "shed": shed,
                    "queued_ms": round(queued_ms, 3),
                }
            }
            if getattr(self.engine, "recorder", None) is not None
            else {}
        )
        try:
            result = await asyncio.to_thread(
                self.engine.execute, request.sql, applied, limits, **kwargs
            )
            stats = {
                "work_units": round(result.work_units, 3),
                "wall_ms": round(result.wall_ms, 3),
                "queued_ms": round(queued_ms, 3),
                "switches": result.switches,
                "degraded": result.degraded,
                "mode": applied.mode.value,
                "workers": result.workers,
                "shed": shed,
                "plan_cache": result.plan_cache,
                "engine": getattr(result, "engine", "scalar"),
                "plan_feedback": getattr(result, "plan_feedback", None),
            }
            self.metrics.counter("server_engine_total").inc(stats["engine"])
            query_id = getattr(result, "query_id", None)
            if query_id is not None:
                stats["query_id"] = query_id
            payload = ok_response(request.request_id, result.rows, stats)
            self.metrics.counter("server_rows_returned_total").inc(
                amount=len(result.rows)
            )
            if getattr(result, "slow", False):
                self.metrics.counter("server_slow_queries_total").inc()
        except BudgetExceeded as error:
            if pending.token.cancelled:
                outcome = "cancelled"
                code = ErrorCode.CANCELLED
            else:
                outcome = "budget_exceeded"
                code = ErrorCode.BUDGET_EXCEEDED
            payload = error_response(
                request.request_id,
                code,
                error.progress_summary(),
                progress={
                    "rows_emitted": error.rows_emitted,
                    "work_units": round(error.work_units, 3),
                    "elapsed_ms": round(error.elapsed_seconds * 1000.0, 3),
                    "driving_rows": error.driving_rows,
                },
            )
        except (QueryError, PlanError, CatalogError, SchemaError) as error:
            outcome = "sql_error"
            payload = error_response(
                request.request_id, ErrorCode.SQL_ERROR, str(error)
            )
        except ReproError as error:
            outcome = "internal_error"
            payload = error_response(
                request.request_id, ErrorCode.INTERNAL, str(error)
            )
        except Exception as error:  # engine bug: answer, keep the slot alive
            outcome = "internal_error"
            payload = error_response(
                request.request_id,
                ErrorCode.INTERNAL,
                f"{type(error).__name__}: {error}",
            )
        finally:
            self.admission.in_flight -= 1
            session.in_flight.discard(pending.token)
        session.completed += 1
        self.metrics.counter("server_queries_total").inc(outcome)
        if shed != "none":
            self.metrics.counter("server_shed_total").inc(shed)
        self.metrics.histogram(
            "server_latency_ms", LATENCY_BUCKETS_MS
        ).observe((time.perf_counter() - pending.enqueued_at) * 1000.0)
        send = session.send
        if send is not None:
            await send(payload)

    # -- telemetry -------------------------------------------------------
    def _telemetry_response(self, request_id: Any, msg: dict) -> dict:
        """The ``telemetry`` op: flight-record summaries or exposition.

        ``format: "prometheus"`` returns the server metrics registry in
        Prometheus text exposition; the default JSON form returns recorder
        counters plus bounded summaries of the recent and slow rings.
        """
        if msg.get("format") == "prometheus":
            return {
                "id": request_id,
                "status": "ok",
                "exposition": self.metrics.render_prometheus(),
            }
        recorder = getattr(self.engine, "recorder", None)
        if recorder is None:
            return error_response(
                request_id, ErrorCode.BAD_REQUEST, "engine has no flight recorder"
            )
        limit = msg.get("limit")
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, int) or limit < 1
        ):
            return error_response(
                request_id, ErrorCode.BAD_REQUEST, "limit must be an int >= 1"
            )
        limit = limit or 20

        def summary(record) -> dict:
            return {
                "query_id": record.query_id,
                "ts": record.ts,
                "template": record.template,
                "outcome": record.outcome,
                "wall_ms": round(record.wall_ms, 3),
                "work_units": round(record.work_units, 3),
                "rows": record.rows,
                "adaptations": record.adaptations,
                "decisions": len(record.decisions),
                "slow": record.slow,
                "session": record.session,
                "shed": record.shed,
            }

        store = recorder.store
        return {
            "id": request_id,
            "status": "ok",
            "telemetry": {
                "recorded_total": recorder.recorded_total,
                "slow_total": recorder.slow_total,
                "slow_query_ms": recorder.slow_query_ms,
                "store": (
                    {
                        "directory": store.directory,
                        "segments": len(store.segment_paths()),
                        "appended_total": store.appended_total,
                        "rotations_total": store.rotations_total,
                    }
                    if store is not None
                    else None
                ),
                "recent": [summary(r) for r in recorder.recent(limit)],
                "slow": [summary(r) for r in recorder.slow_queries(limit)],
            },
        }

    # -- stats -----------------------------------------------------------
    def stats_payload(self) -> dict:
        """The live ``stats`` document (see scripts/validate_stats.py)."""
        admission = self.admission
        config = self.config
        queries = self.metrics.counter("server_queries_total")
        latency = self.metrics.histogram(
            "server_latency_ms", LATENCY_BUCKETS_MS
        )
        self.metrics.gauge("server_queue_depth").set(admission.queued)
        self.metrics.gauge("server_in_flight").set(admission.in_flight)
        recorder = getattr(self.engine, "recorder", None)
        slow_counter = self.metrics.counter("server_slow_queries_total")
        if self.db is not None:
            storage = self.db.storage_stats()
            plan_cache = self.db.plan_cache.stats()
        else:  # engine-only server (tests/stubs): nothing to report
            storage = {
                "backend": "none",
                "total_bytes": 0,
                "table_count": 0,
                "kernel_plan_bytes": 0,
                "per_table": [],
            }
            plan_cache = PlanCache(0).stats()
        record_storage_gauges(self.metrics, storage)
        record_plan_cache_gauges(self.metrics, plan_cache)
        return {
            "server": {
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "sessions": len(self.sessions),
                "draining": self._draining,
                "protocol_errors": self.protocol_errors,
            },
            "admission": {
                "in_flight": admission.in_flight,
                "queue_depth": admission.queued,
                "max_concurrency": config.max_concurrency,
                "max_queue_depth": config.max_queue_depth,
                "accepted_total": admission.accepted_total,
                "rejected_overload_total": admission.rejected_overload_total,
                "rejected_rate_limit_total": admission.rejected_rate_limit_total,
                "rejected_draining_total": admission.rejected_draining_total,
                "shed_serial_total": admission.shed_totals[SHED_SERIAL],
                "shed_static_total": admission.shed_totals[SHED_STATIC],
            },
            "latency_ms": {
                "count": latency.count(),
                "mean": latency.mean(),
                "p50": latency.quantile(0.50),
                "p95": latency.quantile(0.95),
                "p99": latency.quantile(0.99),
            },
            "queries": {
                "ok_total": queries.value("ok"),
                "budget_exceeded_total": queries.value("budget_exceeded"),
                "cancelled_total": queries.value("cancelled"),
                "sql_error_total": queries.value("sql_error"),
                "internal_error_total": queries.value("internal_error"),
                "rows_returned_total": self.metrics.counter(
                    "server_rows_returned_total"
                ).total,
                "dropped_on_disconnect_total": self.metrics.counter(
                    "server_dropped_on_disconnect_total"
                ).total,
            },
            "plan_cache": plan_cache,
            "telemetry": {
                "recorded_total": (
                    recorder.recorded_total if recorder is not None else 0
                ),
                "slow_total": (
                    recorder.slow_total if recorder is not None else 0
                ),
                "slow_queries_total": slow_counter.total,
                "store_segments": (
                    len(recorder.store.segment_paths())
                    if recorder is not None and recorder.store is not None
                    else 0
                ),
            },
            "storage": {
                "backend": storage["backend"],
                "total_bytes": storage["total_bytes"],
                "table_count": storage["table_count"],
                "kernel_plan_bytes": storage.get("kernel_plan_bytes", 0),
            },
            "engines": dict(
                self.metrics.counter("server_engine_total").as_dict()
            ),
            "per_table": storage["per_table"],
            "per_session": [
                {
                    "session": session.name,
                    "submitted": session.submitted,
                    "completed": session.completed,
                    "rejected": session.rejected,
                    "queued": len(session.queue),
                    "in_flight": len(session.in_flight),
                }
                for session in sorted(
                    self.sessions.values(), key=lambda s: s.session_id
                )
            ],
        }
