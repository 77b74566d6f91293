"""The asyncio query server: sessions, engine processes, drain, live stats.

Topology::

    client ──NDJSON──▶ connection handler ──▶ admission ──▶ fair scheduler
                                                │ reject            │
                                                ▼                   ▼
                                            response ◀── worker slot × N
                              event loop      ▲ reply line          │ request
    ──────────────────────────────────────────┼─ socketpair × N ────┼────────
                              forked, warm    │                     ▼
                                              engine process × N:
                                              DatabaseEngine (limits +
                                              flight record + execution)

* The **connection handler** (one per client) only parses, admits, and
  enqueues — it never blocks on an engine, so a slow query cannot stall
  another client's rejections or pings.
* **Worker slots** are ``max_concurrency`` asyncio tasks — the admission
  semaphore in loop form. Each pulls the next query in round-robin
  session order, applies the degradation ladder at *dequeue* time (the
  pressure reading is freshest there), takes the lowest-numbered idle
  engine and awaits its reply.
* **Engine processes** are ``max_concurrency`` children forked from the
  loaded process by :meth:`QueryServer.start` (and again when one dies or
  the catalog moves): each owns its inherited ``Database`` — plan cache,
  plan feedback, kernels — and answers one framed request at a time with
  a small pickled header and the finished NDJSON reply line, which the
  event loop writes to the client as it is. Rows are never pickled, the
  event loop never encodes a result, and no two queries share an
  interpreter lock.
* Each engine runs with server-clamped
  :class:`~repro.robustness.limits.ExecutionLimits` whose cancellation
  token reads a byte the event loop can set: a client disconnect (or the
  drain) cancels in-flight queries cooperatively at the next pipeline
  safe point (the cascade: the next chunk boundary).
* **SIGTERM/SIGINT** start a drain: the listener closes, new queries get
  ``SHUTTING_DOWN``, in-flight queries finish (bounded by a grace
  period, then cancelled), the engines exit on the EOF of their channels
  (one still busy by then is killed), and ``serve_forever`` returns 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import heapq
import logging
import mmap
import os
import pickle
import signal
import socket
import struct
import time
import traceback
from dataclasses import dataclass
from typing import Any, NoReturn

from repro.db import Database
from repro.obs.metrics import (
    MetricsRegistry,
    record_plan_cache_gauges,
    record_storage_gauges,
)
from repro.obs.recorder import FlightRecorder, PackedRecord, TelemetryStore
from repro.optimizer.plancache import PlanCache
from repro.robustness.limits import (
    CANCEL_RECORD_BYTES,
    ExecutionLimits,
    SharedCancellationToken,
)
from repro.server.admission import (
    AdmissionController,
    ServerConfig,
)
from repro.server.protocol import (
    MAX_LINE_BYTES,
    ErrorCode,
    ProtocolError,
    classify_error,
    decode_request,
    encode_response,
    error_reply,
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

#: How long an idle engine gets to exit on the EOF of its channel before
#: it is killed (it takes a millisecond; a busy one is killed at once).
ENGINE_EXIT_SECONDS = 2.0

#: One message on an engine channel: the byte counts of its two parts,
#: then the parts. A request is (pickle, nothing); a reply is (pickled
#: header, reply line); the empty message says the engine is ready.
_FRAME = struct.Struct("!II")

#: Plan-cache fields that are a state, not a count of events.
_CACHE_LEVELS = ("size", "capacity")


@dataclass(frozen=True)
class EngineResult:
    """What one engine execution produced, ready for serialization."""

    rows: list[tuple]
    work_units: float
    wall_ms: float
    switches: int
    degraded: bool
    plan_cache: str  # hit / miss / wait / off
    # Which execution engine ran (ExecutionStats.engine) — lets load
    # clients assert the vectorized cascade served them from the stats op.
    engine: str = "scalar"
    # ExecutionStats.plan_feedback as the wire carries it: None, or
    # {"order": [...], "writes": n} when the run started from what an
    # earlier monitored execution of the statement learned.
    plan_feedback: dict | None = None
    # The query's flight record, packed for the event loop to ingest into
    # the server's recorder (None when the engine records nothing).
    record: PackedRecord | None = None


class EngineFailure(Exception):
    """An execution that raised, as the engine that caught it classified
    it: ``args`` are the outcome, the reply code and the packed flight
    record; the exception itself is ``__cause__``."""


class DatabaseEngine:
    """What an engine process executes with: flight recording + execution.

    Built once, in the process that loaded the database; every engine
    process inherits it by ``fork``. :meth:`prepare_fork` runs there
    before each fork; :meth:`execute` and :meth:`counters` run in the
    children, one caller per process — so the plan cache, the plan
    feedback, the 16-kernel memos and the row-rank arrays an engine
    builds are its own, and nothing here locks. The recorder is split the
    same way: an engine *builds* the record of the query it ran (armed
    before planning, so rejected statements leave one too) and packs it —
    pickled, with its telemetry line already encoded when the store will
    write one —, the event loop *ingests* it without opening it, and the
    rings, the counters and the single-writer store live in one process.
    """

    def __init__(self, db: Database, config: ServerConfig) -> None:
        self.db = db
        self.config = config
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
        self._columnar_indexes: list = []
        self._kernel_bytes = (-1, 0)  # (arrays built, their bytes)

    def prepare_fork(self) -> None:
        """Build, in the forking process, what every plan shares and no
        plan decides, so the engines inherit it copy-on-write instead of
        each building a private copy: appended rows folded into every
        index, every columnar table's numpy column arrays, every columnar
        index's sidecar. Cheap when nothing moved since the last call.
        """
        from repro.storage.columnar import ColumnarIndex, ColumnarTable

        catalog = self.db.catalog
        self._columnar_indexes = []
        for name in catalog.table_names():
            table = catalog.table(name)
            if isinstance(table, ColumnarTable):
                for slot in range(len(table.schema.columns)):
                    column = table.column_store(slot)
                    if column.kind == "str":
                        column.np_codes()
                    else:
                        column.np_values()
            for index in catalog.indexes_of(name).values():
                index.refresh()
                if isinstance(index, ColumnarIndex):
                    index._sidecar()
                    self._columnar_indexes.append(index)

    def execute(
        self,
        sql: str,
        config,
        limits: ExecutionLimits,
        context: dict | None = None,
    ) -> EngineResult:
        # Recorder-only bundle: the decision audit is armed but the bundle
        # stays cold, and *limits* are enforced at chunk boundaries inside
        # the cascade, so neither gates the vectorized engine out (replies
        # report ``engine: vector*`` on the columnar backend) and the
        # deterministic WorkMeter sees zero extra charges.
        bundle = self.recorder.arm()
        started = time.perf_counter()
        try:
            result = self.db.execute(sql, config, limits=limits, obs=bundle)
        except Exception as error:
            token = limits.cancellation
            outcome, code = classify_error(
                error, token is not None and token.cancelled
            )
            record = self.recorder.build_record(
                bundle,
                sql=sql,
                config=config,
                outcome=outcome,
                error=error,
                wall_ms=(time.perf_counter() - started) * 1000.0,
                **(context or {}),
            )
            raise EngineFailure(
                outcome, code, self.recorder.pack(record)
            ) from error
        record = self.recorder.build_record(
            bundle, result, sql=sql, config=config, **(context or {})
        )
        return EngineResult(
            rows=result.rows,
            work_units=result.stats.total_work,
            wall_ms=result.stats.wall_seconds * 1000.0,
            switches=result.stats.total_switches,
            degraded=result.stats.degraded,
            plan_cache=result.stats.plan_cache,
            engine=result.stats.engine,
            plan_feedback=record.plan_feedback,
            record=self.recorder.pack(record),
        )

    def counters(self) -> dict:
        """This process's plan-cache counters and kernel-plan bytes; rides
        on every reply. The bytes are re-measured when the number of
        kernels and row-rank arrays moved (a swap inside a full 16-kernel
        memo is seen with the next one that is not)."""
        built = sum(
            len(index._kernels) + len(index._row_ranks)
            for index in self._columnar_indexes
        )
        if built != self._kernel_bytes[0]:
            self._kernel_bytes = (
                built,
                sum(i.kernel_footprint() for i in self._columnar_indexes),
            )
        return {
            "plan_cache": self.db.plan_cache.stats(),
            "kernel_plan_bytes": self._kernel_bytes[1],
        }


# ---------------------------------------------------------------------------
# The engine process
# ---------------------------------------------------------------------------
def _recv_exact(channel: socket.socket, count: int) -> bytes | None:
    """*count* bytes off a blocking socket; None at end of stream."""
    data = bytearray()
    while len(data) < count:
        chunk = channel.recv(count - len(data))
        if not chunk:
            return None
        data += chunk
    return bytes(data)


def answer(
    engine: Any, request: tuple, token: SharedCancellationToken
) -> tuple[dict, bytes]:
    """One request through *engine*: the reply header and the reply line.

    The exception an execution raises is classified where it is caught,
    once — by the engine that has a flight record to write the outcome
    into (:class:`EngineFailure`), here for one that has none — for the
    metrics (``outcome``), the record and the reply (``code``); no
    exception object leaves the process.
    """
    sql, config, budgets, request_id, context = request
    limits = ExecutionLimits(*budgets, cancellation=token)
    try:
        result = engine.execute(sql, config, limits, context)
    except EngineFailure as failure:
        outcome, code, record = failure.args
        payload = error_reply(request_id, code, failure.__cause__)
        header = {"outcome": outcome, "record": record}
    except Exception as error:
        outcome, code = classify_error(error, token.cancelled)
        payload = error_reply(request_id, code, error)
        header = {"outcome": outcome, "record": None}
    else:
        stats = {
            "work_units": round(result.work_units, 3),
            "wall_ms": round(result.wall_ms, 3),
            "queued_ms": context["queued_ms"],
            "switches": result.switches,
            "degraded": result.degraded,
            "mode": config.mode.value,
            "shed": context["shed"],
            "plan_cache": result.plan_cache,
            "engine": result.engine,
            "plan_feedback": result.plan_feedback,
        }
        record = result.record
        if record is not None:
            stats["query_id"] = record.query_id
        payload = ok_response(request_id, result.rows, stats)
        header = {
            "outcome": "ok",
            "engine": result.engine,
            "rows": len(result.rows),
            "record": record,
        }
    counters = getattr(engine, "counters", None)
    header["counters"] = counters() if counters is not None else None
    return header, encode_response(payload)


def engine_main(
    engine: Any, channel: socket.socket, record: memoryview
) -> NoReturn:
    """The body of an engine process: answer requests until end of stream.

    Runs in the child of a ``fork`` and never returns into the frames it
    was forked under. The child ignores SIGINT (a console Ctrl-C drains
    the server, which then closes the channels), takes SIGTERM's default
    back, and keeps no descriptor but its channel and the standard
    streams: the listener, the clients' sockets, the other engines'
    channels and the telemetry segment all belong to the event loop — a
    client it hangs up on must see the end of its stream, and a dead
    server must leave this ``recv`` nothing to wait for.
    """
    code = 1
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        keep = channel.fileno()
        os.closerange(3, keep)
        os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
        token = SharedCancellationToken(record)
        channel.sendall(_FRAME.pack(0, 0))  # ready
        while True:
            head = _recv_exact(channel, _FRAME.size)
            if head is None:
                code = 0
                break
            request = _recv_exact(channel, _FRAME.unpack(head)[0])
            if request is None:
                break
            header, line = answer(engine, pickle.loads(request), token)
            header = pickle.dumps(header, pickle.HIGHEST_PROTOCOL)
            # One write: the event loop wakes once, with the whole reply.
            channel.sendall(
                b"".join((_FRAME.pack(len(header), len(line)), header, line))
            )
    except BaseException:  # nothing may unwind into the forked-under frames
        traceback.print_exc()
    finally:
        os._exit(code)


class EngineDied(Exception):
    """An engine's channel ended where a reply was due."""


class EngineProcess:
    """The event loop's handle on one engine process."""

    __slots__ = (
        "pid", "reader", "writer", "record", "generation", "baseline",
        "counters", "busy",
    )

    def __init__(self, pid, reader, writer, record, generation, baseline):
        self.pid = pid  # 0 once reaped
        self.reader = reader
        self.writer = writer
        # This engine's cancel record (SharedCancellationToken).
        self.record = record
        # The catalog generation it was forked under.
        self.generation = generation
        # engine.counters() of the forking process at the fork, and the
        # latest the child reported (None: an engine that counts nothing).
        self.baseline = baseline
        self.counters = baseline
        # A request is out: no point waiting for it to exit on its own.
        self.busy = False

    @property
    def lost(self) -> bool:
        return self.pid == 0 or self.reader.at_eof()

    def plan_cache_events(self) -> dict[str, int]:
        """What this engine's plan cache counted since the fork."""
        if self.counters is None:
            return {}
        before = self.baseline["plan_cache"]
        return {
            key: value - before[key]
            for key, value in self.counters["plan_cache"].items()
            if key not in _CACHE_LEVELS
        }

    async def call(self, request: bytes) -> tuple[dict, bytes]:
        """Send one pickled request; the reply's header and line."""
        self.busy = True
        try:
            self.writer.write(_FRAME.pack(len(request), 0) + request)
            head = await self.reader.readexactly(_FRAME.size)
            header_bytes, line_bytes = _FRAME.unpack(head)
            body = await self.reader.readexactly(header_bytes + line_bytes)
        except (asyncio.IncompleteReadError, ConnectionError) as error:
            raise EngineDied() from error
        self.busy = False
        return pickle.loads(body[:header_bytes]), body[header_bytes:]

    async def retire(self) -> int | None:
        """Close the channel and reap the child; its wait status.

        An idle engine exits on the end of its stream; one that does not
        within :data:`ENGINE_EXIT_SECONDS` — or is :attr:`busy`: dead, or
        stuck inside a query nobody waits for any more — is killed.
        """
        if self.pid == 0:
            return None
        self.writer.close()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + (0.0 if self.busy else ENGINE_EXIT_SECONDS)
        try:
            while True:
                reaped, status = os.waitpid(self.pid, os.WNOHANG)
                if reaped:
                    break
                if loop.time() >= deadline:
                    os.kill(self.pid, signal.SIGKILL)
                    status = os.waitpid(self.pid, 0)[1]
                    break
                await asyncio.sleep(0.002)
        except ChildProcessError:  # reaped by someone else's wait
            status = None
        self.pid = 0
        return status


def _exit_description(status: int | None) -> str:
    if status is None:
        return "exited"
    if os.WIFSIGNALED(status):
        return f"was killed by signal {os.WTERMSIG(status)}"
    return f"exited with code {os.WEXITSTATUS(status)}"


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
        # One engine process per worker slot; _idle is a heap of the
        # indexes no slot holds. The slot tasks take turns, so slots that
        # owned an engine each would walk a lone connection over all of
        # them, and every engine pays a statement's plan miss, feedback
        # lesson, kernels and copied pages again (one connection, DESIGN
        # §4e: half the misses, 12-30 MB less PSS with the heap).
        self._engines: list[EngineProcess] = []
        self._idle: list[int] = []
        self._cancel_records: memoryview | None = None
        # Plan-cache events of engines since replaced (see stats_payload).
        self._retired_events: dict[str, int] = {}
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
        """Fork the engines, then listen: when this returns every engine
        process is forked and idle."""
        count = self.config.max_concurrency
        # Anonymous and shared: what the event loop writes here after the
        # fork, the engines read (one cancel record each).
        self._cancel_records = memoryview(
            mmap.mmap(-1, count * CANCEL_RECORD_BYTES)
        )
        try:
            for index in range(count):
                self._engines.append(await self._fork_engine(index))
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
                limit=MAX_LINE_BYTES,
            )
        except BaseException:
            await self._retire_engines()
            raise
        self._idle = list(range(count))
        self._started_at = time.monotonic()
        self._workers = [
            asyncio.create_task(self._worker_loop(), name=f"query-slot-{i}")
            for i in range(count)
        ]

    # -- engine processes ------------------------------------------------
    async def _fork_engine(self, index: int) -> EngineProcess:
        """Fork engine *index* from this process as it is now; returns
        once the child said it is ready."""
        engine = self.engine
        prepare = getattr(engine, "prepare_fork", None)
        if prepare is not None:
            prepare()
        counters = getattr(engine, "counters", None)
        baseline = counters() if counters is not None else None
        generation = (
            self.db.catalog.generation() if self.db is not None else None
        )
        record = self._cancel_records[
            index * CANCEL_RECORD_BYTES : (index + 1) * CANCEL_RECORD_BYTES
        ]
        ours, theirs = socket.socketpair()
        # Frozen, the collector of the child never writes to the header of
        # an object it inherited, so those pages stay shared.
        gc.freeze()
        try:
            pid = os.fork()
            if pid == 0:
                ours.close()
                engine_main(engine, theirs, record)
        finally:
            gc.unfreeze()
        theirs.close()
        reader, writer = await asyncio.open_unix_connection(
            sock=ours, limit=2**24
        )
        process = EngineProcess(
            pid, reader, writer, record, generation, baseline
        )
        try:
            await reader.readexactly(_FRAME.size)  # the ready message
        except asyncio.IncompleteReadError:
            status = await process.retire()
            raise OSError(
                f"engine process {index} {_exit_description(status)} "
                "before it was ready"
            ) from None
        return process

    async def _live_engine(self, index: int) -> EngineProcess:
        """Engine *index*, forked anew when it is gone or when the catalog
        moved since its fork (an ``insert`` / ``analyze`` / ``create_index``
        on the served database: a fork is a snapshot)."""
        process = self._engines[index]
        if process.lost:
            cause = "died"
        elif (
            self.db is not None
            and process.generation != self.db.catalog.generation()
        ):
            cause = "catalog"
        else:
            return process
        await process.retire()
        retired = self._retired_events
        for key, value in process.plan_cache_events().items():
            retired[key] = retired.get(key, 0) + value
        # Folded once, should the fork below fail and this run again.
        process.counters = None
        process = self._engines[index] = await self._fork_engine(index)
        self.metrics.counter("server_engine_restarts_total").inc(cause)
        return process

    async def _retire_engines(self) -> None:
        await asyncio.gather(*(p.retire() for p in self._engines))

    async def serve_forever(
        self,
        *,
        install_signals: bool = True,
        on_ready: Any | None = None,
    ) -> int:
        """Run until SIGTERM/SIGINT drains the server; returns exit code.

        *on_ready* (if given) is called with the server once the engines
        are forked and the listener is bound — the point at which
        :attr:`port` is known and a query can be answered.
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
        # Idle engines exit on the end of their channel; one still inside
        # a query nobody waits for any more is killed. None outlives this.
        await self._retire_engines()
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

        async def send(payload: dict | bytes) -> None:
            if writer.is_closing():
                return
            async with write_lock:
                # A reply line an engine process finished goes out as is.
                writer.write(
                    payload
                    if isinstance(payload, bytes)
                    else encode_response(payload)
                )
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
            token=SharedCancellationToken(),
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
            index = heapq.heappop(self._idle)
            try:
                await self._run_one(pending, index)
            except asyncio.CancelledError:
                raise
            except Exception as error:
                # A fault outside the engine call (shed/limits computation,
                # a fork that failed, metrics, or sending the response)
                # must not kill this query slot — that would silently
                # shrink server concurrency and leave the client without a
                # response.
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
            finally:
                heapq.heappush(self._idle, index)

    async def _run_one(self, pending: PendingQuery, index: int) -> None:
        session = pending.session
        request = pending.request
        token = pending.token
        shed = self.admission.shed_level()
        applied = self.admission.apply_shed(request, shed)
        limits, _ = self.admission.build_limits(request, token=token)
        process = await self._live_engine(index)
        queued_ms = (time.perf_counter() - pending.enqueued_at) * 1000.0
        # Everything the engine needs to run the query and to finish the
        # reply line: the statement, the shed-applied config, the clamped
        # budgets, and what only this side knows of the request.
        message = pickle.dumps(
            (
                request.sql,
                applied,
                (
                    limits.max_rows,
                    limits.max_work_units,
                    limits.timeout_seconds,
                ),
                request.request_id,
                {
                    "session": session.name,
                    "shed": shed,
                    "queued_ms": round(queued_ms, 3),
                },
            ),
            pickle.HIGHEST_PROTOCOL,
        )
        self.admission.in_flight += 1
        session.in_flight.add(token)
        # The record is the engine's: clear what the last query's canceller
        # may have set after that query had already finished.
        process.record[0] = 0
        token.bind(process.record)
        died = False
        try:
            header, line = await process.call(message)
        except EngineDied:
            died = True
            status = await process.retire()
            header = {"outcome": "internal_error"}
            line = encode_response(
                error_response(
                    request.request_id,
                    ErrorCode.INTERNAL,
                    f"engine process {_exit_description(status)} "
                    "while running the query",
                )
            )
        finally:
            token.bind(None)
            self.admission.in_flight -= 1
            session.in_flight.discard(token)
        outcome = header["outcome"]
        if outcome == "ok":
            self.metrics.counter("server_engine_total").inc(header["engine"])
            self.metrics.counter("server_rows_returned_total").inc(
                amount=header["rows"]
            )
        record = header.get("record")
        if record is not None:
            self.engine.recorder.ingest(record)
            if record.slow and outcome == "ok":
                self.metrics.counter("server_slow_queries_total").inc()
        if header.get("counters") is not None:
            process.counters = header["counters"]
        session.completed += 1
        self.metrics.counter("server_queries_total").inc(outcome)
        if shed != "none":
            self.metrics.counter("server_shed_total").inc(shed)
        self.metrics.histogram(
            "server_latency_ms", LATENCY_BUCKETS_MS
        ).observe((time.perf_counter() - pending.enqueued_at) * 1000.0)
        send = session.send
        if send is not None:
            await send(line)
        if died:
            # Fork the replacement now, off the next query's clock. This
            # query is answered: whatever goes wrong is for the next
            # dispatch, which tries again, to report.
            try:
                await self._live_engine(index)
            except Exception:
                logger.exception("engine %d was not replaced", index)

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
        # This process plans and executes nothing: its own counters are
        # what the engines were forked with. Each engine's latest reply
        # says where it stands; a count of events is this process's plus
        # what every engine (replaced ones too) added since its fork, the
        # kernel-plan bytes likewise (the sidecars built before the fork
        # are shared, not copied); the cache's size and capacity are the
        # engines' own, summed.
        reporting = [p for p in self._engines if p.counters is not None]
        if reporting:
            plan_cache = dict(plan_cache, **dict.fromkeys(_CACHE_LEVELS, 0))
            for key, value in self._retired_events.items():
                plan_cache[key] += value
            kernel_bytes = storage["kernel_plan_bytes"]
            for process in reporting:
                for key, value in process.plan_cache_events().items():
                    plan_cache[key] += value
                for key in _CACHE_LEVELS:
                    plan_cache[key] += process.counters["plan_cache"][key]
                kernel_bytes += (
                    process.counters["kernel_plan_bytes"]
                    - process.baseline["kernel_plan_bytes"]
                )
            storage = dict(storage, kernel_plan_bytes=kernel_bytes)
        record_storage_gauges(self.metrics, storage)
        record_plan_cache_gauges(self.metrics, plan_cache)
        restarts = self.metrics.counter("server_engine_restarts_total")
        return {
            "server": {
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "sessions": len(self.sessions),
                "draining": self._draining,
                "protocol_errors": self.protocol_errors,
                "engines_live": sum(not p.lost for p in self._engines),
                "engine_restarts_total": restarts.total,
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
                "shed_static_total": admission.shed_static_total,
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
