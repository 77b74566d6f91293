"""The asyncio query server: sessions, engine processes, drain, live stats.

Topology (a query costs the event loop two callbacks)::

    client ──NDJSON──▶ Connection ──▶ admission ──▶ lowest-numbered idle engine,
      ▲ ▲              (callback 1)      │ reject    else the scheduler's ring
      │ └───────── response ◀────────────┘                    │
      │ reply line                                            │ request
      └──── EngineProcess (callback 2: reply, record, ◀──┐    │
            metrics, the engine's next query)            │    │
    ─────────────────────────────────── socketpair × N ──┼────┼──────────
                                  forked, warm  engine process × N:
                                                DatabaseEngine (limits +
                                                flight record + execution)

* A :class:`Connection` (one per client) answers pings, stats and
  rejections at once and dispatches admitted queries: to the
  lowest-numbered idle engine, or into the round-robin ring of
  :class:`~repro.server.scheduler.FairScheduler`, with the degradation
  ladder applied at *dequeue* time (the pressure reading is freshest
  there). No task, future, lock or condition is made for a query.
* **Backpressure** is per client: a connection whose transport holds more
  unsent replies than its high-water mark is not read until they drain.
  A client that stops reading holds its own queue, never an engine.
* **Engine processes** are ``max_concurrency`` children forked from the
  loaded process by :meth:`QueryServer.start` (and again, in a task of its
  own, when one dies or the catalog moves): each owns its inherited
  ``Database`` — plan cache, plan feedback, kernels — and answers one
  framed request at a time with a small pickled header and the finished
  NDJSON reply line. Rows are never pickled, the event loop never encodes
  a result, and no two queries share an interpreter lock.
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
from typing import Any, NamedTuple, NoReturn

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
    CONFIGS,
    TELEMETRY_RING,
    TELEMETRY_SEGMENT_BYTES,
    TELEMETRY_SEGMENTS,
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
from repro.storage.columnar import ColumnarIndex, ColumnarTable

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
#: ``PlanCache.stats()`` keys, in the order of the counters an engine sends.
_CACHE_KEYS = tuple(PlanCache(0).stats())


class EngineResult(NamedTuple):
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
                max_segment_bytes=TELEMETRY_SEGMENT_BYTES,
                max_segments=TELEMETRY_SEGMENTS,
            )
            if config.telemetry_dir
            else None
        )
        self.recorder = FlightRecorder(
            capacity=TELEMETRY_RING,
            store=store,
            slow_query_ms=config.slow_query_ms,
        )
        self._columnar_indexes: list = []
        # (ColumnarIndex.memo_changes at the last measure, the bytes)
        self._kernel_bytes = (-1, 0)

    def prepare_fork(self) -> None:
        """Build, in the forking process, what every plan shares and no
        plan decides, so the engines inherit it copy-on-write instead of
        each building a private copy: appended rows folded into every
        index (which rebuilds a columnar index's arrays), every columnar
        table's numpy column arrays. Cheap when nothing moved since the
        last call.
        """
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
        # the cascade, so neither changes the machine (replies report
        # ``engine: vector*`` on the columnar backend) and the
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
                texts=self.db.plan_cache.texts(sql),
                **(context or {}),
            )
            raise EngineFailure(
                outcome, code, self.recorder.pack(record)
            ) from error
        record = self.recorder.build_record(
            bundle,
            result,
            sql=sql,
            config=config,
            texts=self.db.plan_cache.texts(sql),
            **(context or {}),
        )
        return EngineResult(
            rows=result.rows,
            work_units=record.work_units,
            wall_ms=result.stats.wall_seconds * 1000.0,
            switches=result.stats.total_switches,
            degraded=result.stats.degraded,
            plan_cache=result.stats.plan_cache,
            engine=result.stats.engine,
            plan_feedback=record.plan_feedback,
            record=self.recorder.pack(record),
        )

    def counters(self) -> tuple:
        """This process's plan-cache counters (the values of
        ``PlanCache.stats()``, in its order) and kernel-plan bytes; rides
        on every reply. The bytes are re-measured when a columnar index's
        memos changed since (``ColumnarIndex.memo_changes``)."""
        changes = ColumnarIndex.memo_changes
        if changes != self._kernel_bytes[0]:
            self._kernel_bytes = (
                changes,
                sum(i.kernel_footprint() for i in self._columnar_indexes),
            )
        return (
            tuple(self.db.plan_cache.stats().values()),
            self._kernel_bytes[1],
        )


# ---------------------------------------------------------------------------
# The engine process
# ---------------------------------------------------------------------------
def _recv_frame(channel: socket.socket, buffer: bytearray) -> int | None:
    """Read one request message into *buffer* (grown to fit); its size,
    head included, or None at the end of the stream. The event loop sends
    a request only once the last one was answered, so nothing follows it."""
    got, size = 0, _FRAME.size
    while got < size:
        with memoryview(buffer) as view:
            count = channel.recv_into(view[got:])
        if not count:
            return None
        got += count
        if got >= _FRAME.size:
            size = _FRAME.size + _FRAME.unpack_from(buffer)[0]
            buffer.extend(bytes(max(0, size - len(buffer))))
    return size


def answer(
    engine: Any, request: tuple, token: SharedCancellationToken
) -> tuple[dict, bytes]:
    """One request through *engine*: the reply header and the reply line.

    A request is ``(sql, mode value, (max rows, max work units, timeout
    seconds), request id, context)``; the header a flat dict of plain
    values — the packed flight record as a tuple
    (:class:`~repro.obs.recorder.PackedRecord`'s fields), the counters as
    :meth:`DatabaseEngine.counters` returns them — so that pickling it
    copies the record's bytes once and runs no Python code.

    The exception an execution raises is classified where it is caught,
    once — by the engine that has a flight record to write the outcome
    into (:class:`EngineFailure`), here for one that has none — for the
    metrics (``outcome``), the record and the reply (``code``); no
    exception object leaves the process.
    """
    sql, mode, budgets, request_id, context = request
    config = CONFIGS[mode]
    limits = ExecutionLimits(*budgets, cancellation=token)
    try:
        result = engine.execute(sql, config, limits, context)
    except EngineFailure as failure:
        outcome, code, record = failure.args
        payload = error_reply(request_id, code, failure.__cause__)
        header = {"outcome": outcome, "record": tuple(record)}
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
            "record": tuple(record) if record is not None else None,
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
        buffer = bytearray(1 << 16)  # grows to the largest request
        while True:
            size = _recv_frame(channel, buffer)
            if size is None:
                code = 0
                break
            with memoryview(buffer) as view:
                request = pickle.loads(view[_FRAME.size : size])
            header, line = answer(engine, request, token)
            header = pickle.dumps(header, pickle.HIGHEST_PROTOCOL)
            # One write: the event loop wakes once, with the whole reply.
            channel.sendall(
                b"".join((_FRAME.pack(len(header), len(line)), header, line))
            )
    except BaseException:  # nothing may unwind into the forked-under frames
        traceback.print_exc()
    finally:
        os._exit(code)


class EngineProcess(asyncio.Protocol):
    """The event loop's handle on one engine process and the protocol of
    its channel: the callback that delivers a reply's last bytes finishes
    the query (:meth:`QueryServer._finish`)."""

    __slots__ = (
        "server", "index", "pid", "transport", "record", "generation",
        "baseline", "counters", "pending", "lost", "ready", "_buffer",
    )

    def __init__(self, server, index, pid, record, generation, baseline):
        self.server = server
        self.index = index
        self.pid = pid  # 0 once reaped
        self.transport = None  # the channel's, once connected
        # This engine's cancel record (SharedCancellationToken).
        self.record = record
        # The catalog generation it was forked under.
        self.generation = generation
        # engine.counters() of the forking process at the fork, and the
        # latest the child reported (None: an engine that counts nothing).
        self.baseline = baseline
        self.counters = baseline
        self.pending = None  # the PendingQuery it runs
        # Its channel reached the end of its stream, or retire() closed it.
        self.lost = False
        # True once the child said it is ready, False if it never will.
        self.ready = asyncio.get_running_loop().create_future()
        self._buffer = bytearray()  # a reply that arrived in parts

    def plan_cache_events(self) -> dict[str, int]:
        """What this engine's plan cache counted since the fork."""
        if self.counters is None:
            return {}
        return {
            key: value - before
            for key, value, before in zip(
                _CACHE_KEYS, self.counters[0], self.baseline[0]
            )
            if key not in _CACHE_LEVELS
        }

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        if len(buffer) < _FRAME.size:
            return
        header_bytes, line_bytes = _FRAME.unpack_from(buffer)
        line_at = _FRAME.size + header_bytes
        if len(buffer) < line_at + line_bytes:
            return
        self._buffer = bytearray()  # one message: nothing can follow it
        if self.pending is None:  # the ready message
            self.ready.set_result(True)
        else:
            self.server._finish(
                self, buffer[_FRAME.size : line_at], buffer[line_at:]
            )

    def connection_lost(self, exc) -> None:
        closed_here, self.lost = self.lost, True
        if not self.ready.done():
            self.ready.set_result(False)
        elif self.pending is not None and not closed_here:
            self.server._spawn(self.server._replace_dead(self))

    async def retire(self) -> int | None:
        """Close the channel and reap the child; its wait status.

        An idle engine exits on the end of its stream; one that does not
        within :data:`ENGINE_EXIT_SECONDS` — or runs a query: dead, or
        stuck inside a query nobody waits for any more — is killed.
        """
        if self.pid == 0:
            return None
        self.lost = True
        self.transport.close()
        loop = asyncio.get_running_loop()
        busy = self.pending is not None
        deadline = loop.time() + (0.0 if busy else ENGINE_EXIT_SECONDS)
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


class Connection(asyncio.Protocol):
    """One client: its bytes cut into request lines. It is not read while
    its transport holds more unsent replies than its high-water mark."""

    def __init__(self, server: "QueryServer") -> None:
        self.server = server
        self._tail = b""  # the start of a line not yet complete

    def connection_made(self, transport) -> None:
        self.transport = transport
        server = self.server
        session = self.session = Session(
            peer=str(transport.get_extra_info("peername")),
            bucket=TokenBucket(
                server.config.rate_limit_qps, server.config.rate_limit_burst
            ),
            transport=transport,
        )
        server.sessions[session.session_id] = session

    def data_received(self, data: bytes) -> None:
        if self._tail:
            data = self._tail + data
        lines = data.split(b"\n")
        self._tail = lines.pop()
        self._dispatch(lines)
        if len(self._tail) > MAX_LINE_BYTES:
            self.transport.close()

    def _dispatch(self, lines: list[bytes]) -> None:
        dispatch, session = self.server._dispatch, self.session
        for line in lines:
            if len(line) > MAX_LINE_BYTES:  # the session ends here
                self.transport.close()
                return
            line = line.strip()
            if line:
                dispatch(session, line)

    def eof_received(self) -> None:
        # A last line needs no newline; then the transport closes.
        tail, self._tail = self._tail, b""
        self._dispatch([tail])

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def connection_lost(self, exc) -> None:
        self.server._disconnected(self.session)


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
        # What every finished query bumps, resolved once.
        self._queries_total = self.metrics.counter("server_queries_total")
        self._engine_total = self.metrics.counter("server_engine_total")
        self._rows_total = self.metrics.counter("server_rows_returned_total")
        self._latency = self.metrics.histogram(
            "server_latency_ms", LATENCY_BUCKETS_MS
        )
        self._recorder = getattr(self.engine, "recorder", None)
        self.sessions: dict[int, Session] = {}
        self._server: asyncio.AbstractServer | None = None
        # One engine process per unit of concurrency; _idle is a heap of
        # the indexes not running a query. The lowest-numbered idle engine
        # takes the next query: engines taken in turn would walk a lone
        # connection over all of them, and every engine pays a statement's
        # plan miss, feedback lesson, kernels and copied pages again (one
        # connection, DESIGN §4e: half the misses, 12-30 MB less PSS).
        self._engines: list[EngineProcess] = []
        self._idle: list[int] = []
        self._cancel_records: memoryview | None = None
        # Re-forks and deaths in progress (each one task, off the query path).
        self._tasks: set[asyncio.Task] = set()
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
            self._server = await asyncio.get_running_loop().create_server(
                lambda: Connection(self),
                host=self.config.host,
                port=self.config.port,
            )
        except BaseException:
            await self._retire_engines()
            raise
        self._idle = list(range(count))
        self._started_at = time.monotonic()

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
        process = EngineProcess(
            self, index, pid, record, generation, baseline
        )
        loop = asyncio.get_running_loop()
        process.transport, _ = await loop.create_unix_connection(
            lambda: process, sock=ours
        )
        if not await process.ready:
            status = await process.retire()
            raise OSError(
                f"engine process {index} {_exit_description(status)} "
                "before it was ready"
            )
        return process

    async def _live_engine(self, index: int) -> EngineProcess:
        """Engine *index*, forked anew when it is gone or when the catalog
        moved since its fork (an ``insert`` / ``analyze`` / ``create_index``
        on the served database: a fork is a snapshot)."""
        process = self._engines[index]
        if process.lost:
            cause = "died"
        elif self._moved(process):
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

    def _moved(self, process: EngineProcess) -> bool:
        return (
            self.db is not None
            and process.generation != self.db.catalog.generation()
        )

    async def _retire_engines(self) -> None:
        await asyncio.gather(*(p.retire() for p in self._engines))

    def _spawn(self, coroutine) -> None:
        task = asyncio.ensure_future(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

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
        grace = self.config.drain_grace_seconds if grace is None else grace
        loop = asyncio.get_running_loop()

        async def settle(seconds: float) -> None:
            deadline = loop.time() + seconds
            while (
                self.admission.in_flight or self.scheduler.pending or self._tasks
            ) and loop.time() < deadline:
                await asyncio.sleep(0.02)

        await settle(grace)
        if self.admission.in_flight > 0:
            # Grace expired: cancel stragglers cooperatively and let their
            # engines answer BUDGET_EXCEEDED.
            for session in list(self.sessions.values()):
                for token in tuple(session.in_flight):
                    token.cancel(f"server draining ({reason})")
            await settle(max(grace, 1.0))
        # Bound the final drain by the grace window: a query sitting
        # between cooperative safe points must not keep serve_forever
        # alive until its own (up to 60s) timeout fires.
        await settle(max(grace, 1.0))
        for task in list(self._tasks):
            task.cancel()
        for session in list(self.sessions.values()):
            session.transport.close()
        # Idle engines exit on the end of their channel; one still inside
        # a query nobody waits for any more is killed. None outlives this.
        await self._retire_engines()
        # Finalize the telemetry store's active segment so a drained
        # server leaves only complete ``.jsonl`` segments behind.
        if self._recorder is not None:
            with contextlib.suppress(Exception):
                self._recorder.close()
        self._done.set()

    # -- connections -----------------------------------------------------
    def _disconnected(self, session: Session) -> None:
        dropped = session.disconnect()
        dropped += self.scheduler.remove_session(session)
        if dropped:
            self.admission.on_dequeued(dropped)
            self.metrics.counter("server_dropped_on_disconnect_total").inc(
                amount=dropped
            )
        self.sessions.pop(session.session_id, None)

    def _dispatch(self, session: Session, line: bytes) -> None:
        """One request line: answered at once, or a query admitted."""
        payload = self._answer(session, line)
        if payload is not None:
            self._reply(session, payload)

    @staticmethod
    def _reply(session: Session, payload: dict) -> None:
        if not session.closed:
            session.transport.write(encode_response(payload))

    def _answer(self, session: Session, line: bytes) -> dict | None:
        """The reply to *line*; None for a query admitted."""
        try:
            msg = decode_request(line)
        except ProtocolError as error:
            self.protocol_errors += 1
            return error_response(None, ErrorCode.BAD_REQUEST, str(error))
        op = msg["op"]
        request_id = msg.get("id")
        if op == "ping":
            return {"id": request_id, "status": "ok", "pong": True}
        if op == "stats":
            return {"id": request_id, "status": "ok", "stats": self.stats_payload()}
        if op == "telemetry":
            return self._telemetry_response(request_id, msg)
        if op != "query":
            self.protocol_errors += 1
            return error_response(
                request_id, ErrorCode.BAD_REQUEST, f"unknown op {op!r}"
            )
        try:
            request = parse_query_request(msg)
        except ProtocolError as error:
            self.protocol_errors += 1
            return error_response(request_id, ErrorCode.BAD_REQUEST, str(error))
        decision = self.admission.submit(session)
        if not decision.admitted:
            self.metrics.counter("server_rejections_total").inc(
                decision.reject_code or "unknown"
            )
            return error_response(
                request_id,
                decision.reject_code or ErrorCode.INTERNAL,
                decision.reject_reason or "rejected",
            )
        session.submitted += 1
        self.scheduler.enqueue(
            PendingQuery(
                request=request,
                session=session,
                token=SharedCancellationToken(),
                enqueued_at=time.perf_counter(),
            )
        )
        self._pump()
        return None

    # -- dispatch --------------------------------------------------------
    def _pump(self) -> None:
        """Hand queued queries, in round-robin session order, to the idle
        engines, lowest-numbered first."""
        idle = self._idle
        while idle:
            pending = self.scheduler.next()
            if pending is None:
                return
            self.admission.on_dequeued()
            if pending.session.closed or pending.token.cancelled:
                continue
            index = heapq.heappop(idle)
            try:
                # The degradation ladder at dequeue time: the pressure
                # reading is freshest here.
                shed = pending.shed = self.admission.shed_level()
                request = pending.request
                mode = self.admission.apply_shed(request, shed).mode.value
                budgets = self.admission.budgets(request)
                process = self._engines[index]
                if process.lost or self._moved(process):
                    self._spawn(self._refork(pending, index, mode, budgets))
                else:
                    self._send(process, pending, mode, budgets)
            except Exception as error:
                heapq.heappush(idle, index)
                self._fault(pending, error)

    async def _refork(
        self, pending: PendingQuery, index: int, mode: str, budgets: tuple
    ) -> None:
        """Fork engine *index* anew, then send it *pending*."""
        try:
            process = await self._live_engine(index)
            self._send(process, pending, mode, budgets)
        except Exception as error:
            heapq.heappush(self._idle, index)
            self._fault(pending, error)
            self._pump()

    def _send(self, process, pending: PendingQuery, mode, budgets) -> None:
        session = pending.session
        request = pending.request
        token = pending.token
        queued_ms = (time.perf_counter() - pending.enqueued_at) * 1000.0
        # Everything the engine needs to run the query and to finish the
        # reply line: the statement, the shed-applied mode (the config is
        # its defaults: admission.CONFIGS), the clamped budgets, and what
        # only this side knows of the request.
        context = {
            "session": session.name,
            "shed": pending.shed,
            "queued_ms": round(queued_ms, 3),
        }
        message = pickle.dumps(
            (request.sql, mode, budgets, request.request_id, context),
            pickle.HIGHEST_PROTOCOL,
        )
        self.admission.in_flight += 1
        session.in_flight.add(token)
        # The record is the engine's: clear what the last query's canceller
        # may have set after that query had already finished.
        process.record[0] = 0
        token.bind(process.record)
        process.pending = pending
        process.transport.write(_FRAME.pack(len(message), 0) + message)

    def _release(self, process: EngineProcess) -> PendingQuery:
        """The query *process* ran, no longer in flight."""
        pending = process.pending
        process.pending = None
        pending.token.bind(None)
        self.admission.in_flight -= 1
        pending.session.in_flight.discard(pending.token)
        return pending

    def _finish(self, process: EngineProcess, header, line) -> None:
        """An engine's reply: the whole rest of its query, in the callback
        that delivered it; then the engine takes the next queued query."""
        pending = self._release(process)
        try:
            header = pickle.loads(header)
            outcome = header["outcome"]
            if outcome == "ok":
                self._engine_total.inc(header["engine"])
                self._rows_total.inc(amount=header["rows"])
            record = header["record"]
            if record is not None:
                record = PackedRecord._make(record)
                self._recorder.ingest(record)
                if record.slow and outcome == "ok":
                    self.metrics.counter("server_slow_queries_total").inc()
            if header["counters"] is not None:
                process.counters = header["counters"]
            self._answered(pending, outcome, line)
        except Exception as error:
            self._fault(pending, error)
        heapq.heappush(self._idle, process.index)
        self._pump()

    def _answered(self, pending: PendingQuery, outcome: str, line) -> None:
        pending.session.completed += 1
        self._queries_total.inc(outcome)
        if pending.shed != "none":
            self.metrics.counter("server_shed_total").inc(pending.shed)
        self._latency.observe(
            (time.perf_counter() - pending.enqueued_at) * 1000.0
        )
        if not pending.session.closed:
            pending.session.transport.write(line)

    def _fault(self, pending: PendingQuery, error: Exception) -> None:
        """A fault outside the engine (the shed ladder, a fork, metrics, the
        record) answers its query INTERNAL; the engine keeps serving."""
        logger.error(
            "query fault while serving %s", pending.session.name,
            exc_info=error,
        )
        self.metrics.counter("server_worker_faults_total").inc()
        self._reply(
            pending.session,
            error_response(
                pending.request.request_id,
                ErrorCode.INTERNAL,
                f"worker fault: {type(error).__name__}: {error}",
            ),
        )

    async def _replace_dead(self, process: EngineProcess) -> None:
        """An engine's channel ended while it ran a query: reap it, answer
        the query INTERNAL, fork the replacement off the next query's
        clock. This query is answered: whatever goes wrong with the fork
        is for the next dispatch, which tries again, to report."""
        status = await process.retire()
        pending = self._release(process)
        reply = error_response(
            pending.request.request_id,
            ErrorCode.INTERNAL,
            f"engine process {_exit_description(status)} "
            "while running the query",
        )
        self._answered(pending, "internal_error", encode_response(reply))
        try:
            await self._live_engine(process.index)
        except Exception:
            logger.exception("engine %d was not replaced", process.index)
        heapq.heappush(self._idle, process.index)
        self._pump()

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
        recorder = self._recorder
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
        queries, latency = self._queries_total, self._latency
        self.metrics.gauge("server_queue_depth").set(admission.queued)
        self.metrics.gauge("server_in_flight").set(admission.in_flight)
        recorder = self._recorder
        slow_counter = self.metrics.counter("server_slow_queries_total")
        if self.db is not None:
            storage = self.db.storage_stats()
            plan_cache = self.db.plan_cache.stats()
        else:  # engine-only server (tests/stubs): nothing to report
            storage = {
                "backend": "none",
                "total_bytes": 0,
                "table_count": 0,
                "index_bytes": 0,
                "kernel_plan_bytes": 0,
                "per_table": [],
            }
            plan_cache = PlanCache(0).stats()
        # This process plans and executes nothing: its own counters are
        # what the engines were forked with. Each engine's latest reply
        # says where it stands; a count of events is this process's plus
        # what every engine (replaced ones too) added since its fork, the
        # kernel-plan bytes likewise (the index arrays built before the
        # fork are shared, not copied); the cache's size and capacity are the
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
                levels = dict(zip(_CACHE_KEYS, process.counters[0]))
                for key in _CACHE_LEVELS:
                    plan_cache[key] += levels[key]
                kernel_bytes += process.counters[1] - process.baseline[1]
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
                "rows_returned_total": self._rows_total.total,
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
                "index_bytes": storage["index_bytes"],
                "kernel_plan_bytes": storage.get("kernel_plan_bytes", 0),
            },
            "engines": self._engine_total.as_dict(),
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
