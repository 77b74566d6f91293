"""Unit and integration tests for the concurrent query server.

Unit layers (protocol, token bucket, admission, scheduler)
are tested directly; server integration tests run a real asyncio server
over an injectable fake engine — forked into engine processes like the
real one — whose executions block on an event the fork inherits, so
overload, disconnection-cancellation, draining, shed levels and the death
of an engine process are all exercised deterministically — no
timing-dependent assertions.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import socket
import time

import pytest

from repro.core.config import AdaptiveConfig, ReorderMode
from repro.errors import BudgetExceeded, QueryError
from repro.server import (
    AdmissionController,
    ErrorCode,
    FairScheduler,
    ProtocolError,
    ServerConfig,
    Session,
    TokenBucket,
    decode_request,
    normalize_sql,
    template_signature,
)
from repro.server.admission import (
    MAX_MAX_ROWS,
    MAX_TIMEOUT_MS,
    SHED_NONE,
    SHED_STATIC,
    SHED_STATIC_AT,
)
from repro.server.protocol import (
    encode_response,
    error_response,
    ok_response,
    parse_query_request,
)
from repro.server.server import EngineResult, QueryServer
from repro.server.session import PendingQuery
from repro.robustness.limits import CancellationToken


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_decode_valid_query(self):
        msg = decode_request(b'{"op": "query", "sql": "SELECT 1", "id": 3}')
        assert msg["op"] == "query"
        request = parse_query_request(msg)
        assert request.sql == "SELECT 1"
        assert request.request_id == 3
        assert request.mode is ReorderMode.BOTH

    @pytest.mark.parametrize(
        "line",
        [
            b"not json",
            b"[1, 2]",
            b'"just a string"',
            b'{"sql": "SELECT 1"}',  # missing op
            b'{"op": ""}',
            b"\xff\xfe",  # not UTF-8
        ],
    )
    def test_decode_rejects_malformed(self, line):
        with pytest.raises(ProtocolError):
            decode_request(line)

    @pytest.mark.parametrize(
        "msg",
        [
            {"op": "query"},  # no sql
            {"op": "query", "sql": "  "},
            {"op": "query", "sql": "SELECT 1", "mode": "sideways"},
            {"op": "query", "sql": "SELECT 1", "timeout_ms": -5},
            {"op": "query", "sql": "SELECT 1", "timeout_ms": "soon"},
            {"op": "query", "sql": "SELECT 1", "max_rows": 0},
            {"op": "query", "sql": "SELECT 1", "max_rows": True},
        ],
    )
    def test_parse_rejects_bad_fields(self, msg):
        with pytest.raises(ProtocolError):
            parse_query_request(msg)

    def test_responses_round_trip_as_json_lines(self):
        ok = ok_response(7, [(1, "a")], {"work_units": 2.0})
        err = error_response(8, ErrorCode.RATE_LIMITED, "slow down")
        for payload in (ok, err):
            line = encode_response(payload)
            assert line.endswith(b"\n")
            assert json.loads(line) == json.loads(json.dumps(payload))
        # The payload keeps the engine's row tuples; the line has arrays.
        assert ok["row_count"] == 1 and ok["rows"] == [(1, "a")]
        assert json.loads(encode_response(ok))["rows"] == [[1, "a"]]
        assert err["code"] == "RATE_LIMITED"

    def test_normalize_collapses_whitespace_outside_literals(self):
        a = "SELECT *  FROM Car c\n WHERE c.make =  'a  b'"
        b = "SELECT * FROM Car c WHERE c.make = 'a  b'"
        assert normalize_sql(a) == normalize_sql(b)
        # Literals are preserved — different constants, different keys.
        assert normalize_sql("... make = 'Mazda'") != normalize_sql(
            "... make = 'Honda'"
        )

    def test_template_signature_strips_literals_and_numbers(self):
        sig = template_signature(
            "SELECT * FROM Car c WHERE c.make = 'Mazda' AND c.year > 1999"
        )
        assert "'Mazda'" not in sig and "1999" not in sig
        assert sig == template_signature(
            "SELECT *   FROM Car c WHERE c.make = 'Honda' AND c.year > 2004"
        )


# ---------------------------------------------------------------------------
# Token bucket
# ---------------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=lambda: now[0])
        assert [bucket.try_take() for _ in range(4)] == [
            True, True, True, False,
        ]
        now[0] += 0.5  # one token refilled at 2/s
        assert bucket.try_take() is True
        assert bucket.try_take() is False

    def test_refill_caps_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=lambda: now[0])
        now[0] += 60.0
        assert [bucket.try_take() for _ in range(3)] == [True, True, False]

    def test_zero_rate_disables(self):
        bucket = TokenBucket(rate=0.0, burst=1.0)
        assert all(bucket.try_take() for _ in range(100))


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
def make_session(**bucket_kwargs) -> Session:
    bucket = TokenBucket(**bucket_kwargs) if bucket_kwargs else TokenBucket(0, 8)
    return Session(peer="test", bucket=bucket)


class TestAdmission:
    def test_admits_until_global_queue_full(self):
        config = ServerConfig(max_queue_depth=2, max_queue_per_session=8)
        admission = AdmissionController(config)
        session = make_session()
        assert admission.submit(session).admitted
        assert admission.submit(session).admitted
        decision = admission.submit(session)
        assert not decision.admitted
        assert decision.reject_code == ErrorCode.REJECTED_OVERLOAD
        admission.on_dequeued()
        assert admission.submit(session).admitted

    def test_per_session_cap(self):
        config = ServerConfig(max_queue_depth=32, max_queue_per_session=1)
        admission = AdmissionController(config)
        session = make_session()
        assert admission.submit(session).admitted
        session.queue.append(object())  # scheduler would do this
        decision = admission.submit(session)
        assert not decision.admitted
        assert decision.reject_code == ErrorCode.REJECTED_OVERLOAD
        # Another session is unaffected.
        assert admission.submit(make_session()).admitted

    def test_rate_limit_rejection(self):
        now = [0.0]
        config = ServerConfig(rate_limit_qps=1.0, rate_limit_burst=1.0)
        admission = AdmissionController(config)
        session = Session(
            peer="t", bucket=TokenBucket(1.0, 1.0, clock=lambda: now[0])
        )
        assert admission.submit(session).admitted
        decision = admission.submit(session)
        assert decision.reject_code == ErrorCode.RATE_LIMITED
        now[0] += 1.0
        assert admission.submit(session).admitted

    def test_overload_rejection_does_not_consume_rate_token(self):
        """Queue-full rejections must not also burn a rate-limit token,
        or retrying clients get double-penalized during overload."""
        now = [0.0]
        config = ServerConfig(
            max_queue_depth=1, rate_limit_qps=1.0, rate_limit_burst=1.0
        )
        admission = AdmissionController(config)
        session = Session(
            peer="t", bucket=TokenBucket(1.0, 1.0, clock=lambda: now[0])
        )
        assert admission.submit(session).admitted  # queue full, token spent
        now[0] += 1.0  # the single token refills
        decision = admission.submit(session)
        assert decision.reject_code == ErrorCode.REJECTED_OVERLOAD
        admission.on_dequeued()
        assert admission.submit(session).admitted, (
            "the overload rejection must have left the token untouched"
        )

    def test_draining_rejects_everything(self):
        admission = AdmissionController(ServerConfig())
        admission.draining = True
        decision = admission.submit(make_session())
        assert decision.reject_code == ErrorCode.SHUTTING_DOWN

    def test_shed_ladder_from_queue_pressure(self):
        config = ServerConfig(max_queue_depth=10)
        admission = AdmissionController(config)
        assert admission.shed_level() == SHED_NONE
        static_at = round(10 * SHED_STATIC_AT)
        # Where the ``serial`` rung used to sit (0.25 of the queue up to
        # ``SHED_STATIC_AT``): nothing to strip, so nothing is shed.
        for queued in (3, static_at - 1):
            admission.queued = queued
            assert admission.shed_level() == SHED_NONE
        admission.queued = static_at
        assert admission.shed_level() == SHED_STATIC

    def test_apply_shed_strips_adaptivity(self):
        admission = AdmissionController(ServerConfig())
        request = parse_query_request(
            {"op": "query", "sql": "SELECT 1", "mode": "both"}
        )
        full = admission.apply_shed(request, SHED_NONE)
        # The mode and nothing else: the store picks the machine.
        assert full == AdaptiveConfig(mode=ReorderMode.BOTH)
        static = admission.apply_shed(request, SHED_STATIC)
        assert static == AdaptiveConfig(mode=ReorderMode.NONE)
        assert admission.shed_static_total == 1

    def test_a_query_runs_in_one_process(self):
        """The intra-query fork pool is gone, and every option that chose
        it: setting one is a ``TypeError``, not a silently ignored knob."""
        with pytest.raises(TypeError):
            AdaptiveConfig(workers=2)
        with pytest.raises(TypeError):
            ServerConfig(engine_workers=2)
        with pytest.raises(TypeError):
            ServerConfig(shed_serial_at=0.25)
        # (The field names are pinned in tests/test_engine_dispatch.py.)
        request = parse_query_request(
            {"op": "query", "sql": "SELECT 1", "workers": 2}
        )
        assert not hasattr(request, "workers")

    def test_budgets_clamp_to_server_maxima(self):
        config = ServerConfig(default_timeout_ms=1000.0, default_max_rows=10)
        admission = AdmissionController(config)
        request = parse_query_request(
            {
                "op": "query",
                "sql": "SELECT 1",
                "timeout_ms": 2 * MAX_TIMEOUT_MS,
                "max_rows": 2 * MAX_MAX_ROWS,
            }
        )
        max_rows, max_work_units, timeout_seconds = admission.budgets(request)
        assert timeout_seconds == pytest.approx(MAX_TIMEOUT_MS / 1000.0)
        assert max_rows == MAX_MAX_ROWS
        assert max_work_units is None
        # Defaults apply when the client asks for nothing.
        bare = parse_query_request({"op": "query", "sql": "SELECT 1"})
        max_rows, _, timeout_seconds = admission.budgets(bare)
        assert timeout_seconds == pytest.approx(1.0)
        assert max_rows == 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(max_concurrency=0)
        with pytest.raises(ValueError):
            ServerConfig(default_timeout_ms=MAX_TIMEOUT_MS + 1)
        with pytest.raises(ValueError):
            ServerConfig(default_max_rows=MAX_MAX_ROWS + 1)


# ---------------------------------------------------------------------------
# Fair scheduler
# ---------------------------------------------------------------------------
def pending_for(session: Session, tag: str) -> PendingQuery:
    request = parse_query_request({"op": "query", "sql": f"SELECT '{tag}'"})
    return PendingQuery(
        request=request,
        session=session,
        token=CancellationToken(),
        enqueued_at=0.0,
    )


class TestFairScheduler:
    def test_round_robin_across_sessions(self):
        scheduler = FairScheduler()
        chatty, quiet = make_session(), make_session()
        for i in range(3):
            scheduler.enqueue(pending_for(chatty, f"c{i}"))
        scheduler.enqueue(pending_for(quiet, "q0"))
        order = [scheduler.next().request.sql for _ in range(4)]
        # The quiet session's single query is served second, not fourth.
        assert order == [
            "SELECT 'c0'", "SELECT 'q0'", "SELECT 'c1'", "SELECT 'c2'",
        ]

    def test_skips_disconnected_sessions(self):
        scheduler = FairScheduler()
        gone, alive = make_session(), make_session()
        scheduler.enqueue(pending_for(gone, "dead"))
        scheduler.enqueue(pending_for(alive, "live"))
        gone.disconnect()
        first = scheduler.next()
        rest = scheduler.next()
        assert first.request.sql == "SELECT 'live'"
        assert rest is None

    def test_next_blocks_until_work_arrives(self):
        """Nothing waits: an empty ring answers None, and the server asks
        again when work arrives."""
        scheduler = FairScheduler()
        session = make_session()
        assert scheduler.next() is None
        scheduler.enqueue(pending_for(session, "late"))
        assert scheduler.next().request.sql == "SELECT 'late'"

    def test_remove_session_drops_queued_work(self):
        scheduler = FairScheduler()
        session = make_session()
        scheduler.enqueue(pending_for(session, "a"))
        scheduler.enqueue(pending_for(session, "b"))
        dropped = scheduler.remove_session(session)
        leftover = scheduler.next()
        assert dropped == 2 and leftover is None


# ---------------------------------------------------------------------------
# Server integration over a controllable fake engine
# ---------------------------------------------------------------------------
#: The doubles' synchronization lives in shared memory made before the
#: server forks them, so the test process and the engine processes see
#: the same event (a ``threading`` primitive would be copied by the fork).
FORK = multiprocessing.get_context("fork")


class Flag:
    """An event the test sets and an engine process waits for.

    One shared byte, polled: ``multiprocessing.Event.set`` waits for every
    sleeper to acknowledge its wake-up, so it never returns once a test
    has killed an engine inside ``wait``.
    """

    def __init__(self) -> None:
        self._byte = FORK.RawValue("b", 0)

    def set(self) -> None:
        self._byte.value = 1

    def clear(self) -> None:
        self._byte.value = 0

    def is_set(self) -> bool:
        return bool(self._byte.value)

    def wait(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while not self._byte.value and time.monotonic() < deadline:
            time.sleep(0.002)
        return bool(self._byte.value)


class BlockingEngine:
    """Engine double: every execution blocks until released.

    ``execute`` polls its release event so a cancelled token aborts the
    "query" just like the real executor's safe-point checks do. It runs
    in an engine process: what it was called with comes back in the reply
    (the statement as the one row, the config as ``mode``).
    """

    def __init__(self) -> None:
        self.release = Flag()
        self.started = FORK.Semaphore(0)

    def execute(self, sql, config, limits, context):
        self.started.release()
        token = limits.cancellation
        released = False
        while not released:
            released = self.release.wait(timeout=0.005)
            # A safe point after every wait, the last one included: a
            # token that fired before the release is always seen.
            if token is not None and token.cancelled:
                raise BudgetExceeded(
                    f"query cancelled: {token.reason}",
                    rows_emitted=1,
                    work_units=2.0,
                    elapsed_seconds=0.01,
                    driving_rows=3,
                )
        if sql == "SELECT 'boom'":
            raise QueryError("synthetic failure")
        return EngineResult(
            rows=[(sql,)],
            work_units=1.0,
            wall_ms=0.5,
            switches=0,
            degraded=False,
            plan_cache="off",
        )


class ServerClient:
    """Minimal NDJSON test client."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port: int, limit: int = 2**16) -> "ServerClient":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=limit
        )
        return cls(reader, writer)

    async def send(self, **payload) -> None:
        self.writer.write((json.dumps(payload) + "\n").encode())
        await self.writer.drain()

    async def recv(self) -> dict:
        line = await asyncio.wait_for(self.reader.readline(), timeout=10.0)
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def run_server_scenario(config: ServerConfig, scenario, engine=None):
    """Start a QueryServer over *engine* (a BlockingEngine by default) and
    run *scenario*."""
    engine = engine if engine is not None else BlockingEngine()

    async def main():
        server = QueryServer(None, config, engine=engine)
        await server.start()
        try:
            return await asyncio.wait_for(
                scenario(server, engine), timeout=30.0
            )
        finally:
            engine.release.set()
            await server.shutdown(grace=0.2)

    return asyncio.run(main())


def tiny_config(**overrides) -> ServerConfig:
    defaults = dict(port=0, max_concurrency=1, max_queue_depth=2)
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestServerIntegration:
    def test_ping_stats_and_unknown_op(self):
        async def scenario(server, engine):
            client = await ServerClient.connect(server.port)
            await client.send(op="ping", id=1)
            pong = await client.recv()
            await client.send(op="stats", id=2)
            stats = await client.recv()
            await client.send(op="mystery", id=3)
            unknown = await client.recv()
            await client.close()
            return pong, stats, unknown

        pong, stats, unknown = run_server_scenario(tiny_config(), scenario)
        assert pong == {"id": 1, "status": "ok", "pong": True}
        assert stats["status"] == "ok"
        assert stats["stats"]["admission"]["max_concurrency"] == 1
        assert unknown["code"] == ErrorCode.BAD_REQUEST

    def test_overload_rejected_explicitly_and_promptly(self):
        """Queue full → REJECTED_OVERLOAD arrives while a query still runs."""

        async def scenario(server, engine):
            client = await ServerClient.connect(server.port)
            # One executing + two queued fills the server entirely. Wait
            # for execution to start before filling the queue, so the
            # queue slots are definitely free for ids 1 and 2.
            await client.send(op="query", id=0, sql="SELECT 0")
            assert await asyncio.to_thread(engine.started.acquire, timeout=5.0)
            for i in (1, 2):
                await client.send(op="query", id=i, sql=f"SELECT {i}")
            await client.send(op="query", id=99, sql="SELECT 99")
            rejection = await client.recv()  # answered while id 0 blocks
            engine.release.set()
            answered = sorted([(await client.recv())["id"] for _ in range(3)])
            await client.close()
            return rejection, answered

        rejection, answered = run_server_scenario(tiny_config(), scenario)
        assert rejection["id"] == 99
        assert rejection["status"] == "error"
        assert rejection["code"] == ErrorCode.REJECTED_OVERLOAD
        assert answered == [0, 1, 2]

    def test_disconnect_cancels_in_flight_and_drops_queued(self):
        async def scenario(server, engine):
            victim = await ServerClient.connect(server.port)
            await victim.send(op="query", id=1, sql="SELECT 'blocked'")
            await victim.send(op="query", id=2, sql="SELECT 'queued'")
            assert await asyncio.to_thread(engine.started.acquire, timeout=5.0)
            session = next(iter(server.sessions.values()))
            tokens = list(session.in_flight)
            await victim.close()  # disconnect while id=1 executes
            # The in-flight token must latch without the engine finishing.
            deadline = asyncio.get_running_loop().time() + 5.0
            while not tokens[0].cancelled:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.005)
            # The worker slot must come back for other clients.
            other = await ServerClient.connect(server.port)
            await other.send(op="query", id=3, sql="SELECT 'after'")
            engine.release.set()
            response = await other.recv()
            await other.send(op="stats", id=4)
            stats = (await other.recv())["stats"]
            await other.close()
            return tokens[0], response, stats

        token, response, stats = run_server_scenario(tiny_config(), scenario)
        assert token.cancelled and "disconnected" in token.reason
        assert response == {
            "id": 3, "status": "ok", "rows": [["SELECT 'after'"]],
            "row_count": 1, "stats": response["stats"],
        }
        assert stats["queries"]["cancelled_total"] == 1
        assert stats["queries"]["dropped_on_disconnect_total"] == 1

    def test_rate_limited_session_gets_typed_rejection(self):
        config = tiny_config(rate_limit_qps=0.001, rate_limit_burst=1.0)

        async def scenario(server, engine):
            engine.release.set()
            client = await ServerClient.connect(server.port)
            await client.send(op="query", id=1, sql="SELECT 'a'")
            first = await client.recv()
            await client.send(op="query", id=2, sql="SELECT 'b'")
            second = await client.recv()
            await client.close()
            return first, second

        first, second = run_server_scenario(config, scenario)
        assert first["status"] == "ok"
        assert second["status"] == "error"
        assert second["code"] == ErrorCode.RATE_LIMITED

    def test_worker_slot_survives_fault_outside_run_one_guard(self):
        """A fault before _run_one's own try block (here: apply_shed) must
        answer INTERNAL and keep the slot serving, not kill it silently."""

        async def scenario(server, engine):
            engine.release.set()
            original = server.admission.apply_shed
            exploded = []

            def exploding_apply_shed(request, shed):
                if not exploded:
                    exploded.append(True)
                    raise RuntimeError("synthetic shed fault")
                return original(request, shed)

            server.admission.apply_shed = exploding_apply_shed
            client = await ServerClient.connect(server.port)
            await client.send(op="query", id=1, sql="SELECT 'a'")
            first = await client.recv()
            # max_concurrency=1: only a surviving slot can answer this.
            await client.send(op="query", id=2, sql="SELECT 'b'")
            second = await client.recv()
            await client.close()
            return first, second

        first, second = run_server_scenario(tiny_config(), scenario)
        assert first["status"] == "error"
        assert first["code"] == ErrorCode.INTERNAL
        assert "synthetic shed fault" in first["error"]
        assert second["status"] == "ok" and second["id"] == 2

    def test_shutdown_bounded_even_with_uncancellable_query(self):
        """Drain must be bounded by the grace window even when an engine
        ignores cancellation between cooperative safe points — and the
        engine process must not outlive it."""

        class StuckEngine:
            def __init__(self):
                self.release = Flag()
                self.started = FORK.Semaphore(0)

            def execute(self, sql, config, limits, context):
                self.started.release()
                assert self.release.wait(30.0)  # never checks the token
                return EngineResult(
                    rows=[], work_units=0.0, wall_ms=0.0, switches=0,
                    degraded=False, plan_cache="off",
                )

        engine = StuckEngine()

        async def main():
            server = QueryServer(None, tiny_config(), engine=engine)
            await server.start()
            pid = server._engines[0].pid
            client = await ServerClient.connect(server.port)
            await client.send(op="query", id=1, sql="SELECT 'stuck'")
            assert await asyncio.to_thread(engine.started.acquire, timeout=5.0)
            start = time.perf_counter()
            await asyncio.wait_for(server.shutdown(grace=0.2), timeout=15.0)
            elapsed = time.perf_counter() - start
            await client.close()
            return elapsed, pid

        elapsed, pid = asyncio.run(main())
        assert elapsed < 10.0, "shutdown must not wait out the stuck query"
        # Never released: the engine was still inside the query when the
        # grace window ended, so it was killed and reaped, not abandoned.
        assert not engine.release.is_set()
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_shed_levels_applied_from_queue_pressure(self):
        config = tiny_config(
            max_queue_depth=4,
            max_queue_per_session=4,
        )

        async def scenario(server, engine):
            client = await ServerClient.connect(server.port)
            for i in range(4):
                await client.send(op="query", id=i, sql=f"SELECT {i}")
            assert await asyncio.to_thread(engine.started.acquire, timeout=5.0)
            engine.release.set()
            responses = {}
            for _ in range(4):
                response = await client.recv()
                responses[response["id"]] = response
            await client.close()
            return responses

        responses = run_server_scenario(config, scenario)
        sheds = [responses[i]["stats"]["shed"] for i in range(4)]
        modes = [responses[i]["stats"]["mode"] for i in range(4)]
        # Later dequeues saw higher pressure: the ladder must have engaged
        # at least once, and static shed forces the static plan.
        assert SHED_STATIC in sheds
        for shed, mode in zip(sheds, modes):
            if shed == SHED_STATIC:
                assert mode == "none"

    def test_engine_errors_map_to_typed_responses(self):
        async def scenario(server, engine):
            engine.release.set()
            client = await ServerClient.connect(server.port)
            await client.send(op="query", id=1, sql="SELECT 'boom'")
            sql_error = await client.recv()
            await client.send(op="query", id=2, sql="SELECT 'fine'")
            fine = await client.recv()
            await client.close()
            return sql_error, fine

        sql_error, fine = run_server_scenario(tiny_config(), scenario)
        assert sql_error["code"] == ErrorCode.SQL_ERROR
        assert "synthetic failure" in sql_error["error"]
        assert fine["status"] == "ok", "the slot survives an engine error"

    def test_budget_exceeded_carries_partial_progress(self):
        config = tiny_config(default_timeout_ms=50.0)

        async def scenario(server, engine):
            client = await ServerClient.connect(server.port)
            await client.send(op="query", id=1, sql="SELECT 'slow'")
            assert await asyncio.to_thread(engine.started.acquire, timeout=5.0)
            # Cancel via the session token — same path a deadline takes.
            session = next(iter(server.sessions.values()))
            for token in session.in_flight:
                token.cancel("test deadline")
            response = await client.recv()
            await client.close()
            return response

        response = run_server_scenario(config, scenario)
        assert response["status"] == "error"
        assert response["code"] == ErrorCode.CANCELLED
        assert response["progress"]["rows_emitted"] == 1
        assert response["progress"]["driving_rows"] == 3

    def test_drain_rejects_new_work_and_exits_cleanly(self):
        async def scenario(server, engine):
            client = await ServerClient.connect(server.port)
            await client.send(op="query", id=1, sql="SELECT 'running'")
            assert await asyncio.to_thread(engine.started.acquire, timeout=5.0)
            drain = asyncio.create_task(server.shutdown(grace=5.0))
            # Draining state is set synchronously at shutdown start.
            await asyncio.sleep(0.05)
            await client.send(op="query", id=2, sql="SELECT 'late'")
            rejected = await client.recv()
            engine.release.set()
            finished = await client.recv()
            await drain
            await client.close()
            return rejected, finished, server.exit_code

        rejected, finished, exit_code = run_server_scenario(
            tiny_config(), scenario
        )
        assert rejected["code"] == ErrorCode.SHUTTING_DOWN
        assert finished == {
            "id": 1, "status": "ok", "rows": [["SELECT 'running'"]],
            "row_count": 1, "stats": finished["stats"],
        }
        assert exit_code == 0

    def test_drain_cancels_stragglers_after_grace(self):
        async def scenario(server, engine):
            client = await ServerClient.connect(server.port)
            await client.send(op="query", id=1, sql="SELECT 'stuck'")
            assert await asyncio.to_thread(engine.started.acquire, timeout=5.0)
            await server.shutdown(grace=0.05)  # never released: must cancel
            response = await client.recv()
            await client.close()
            return response

        response = run_server_scenario(tiny_config(), scenario)
        assert response["status"] == "error"
        assert response["code"] == ErrorCode.CANCELLED

    def test_stats_document_validates(self):
        """The live stats document passes the CI validator's schema."""
        import importlib.util
        import pathlib

        spec = importlib.util.spec_from_file_location(
            "validate_stats",
            pathlib.Path(__file__).resolve().parent.parent
            / "scripts" / "validate_stats.py",
        )
        validator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(validator)

        async def scenario(server, engine):
            engine.release.set()
            client = await ServerClient.connect(server.port)
            for i in range(5):
                await client.send(op="query", id=i, sql=f"SELECT {i}")
            for _ in range(5):
                await client.recv()
            await client.send(op="stats", id=99)
            stats = (await client.recv())["stats"]
            await client.close()
            return stats

        stats = run_server_scenario(
            tiny_config(max_queue_depth=8, max_queue_per_session=8), scenario
        )
        notes = validator.validate(stats)  # raises on violation
        assert any("5 queries" in note for note in notes)


# ---------------------------------------------------------------------------
# The relay: an engine's reply is the rest of its query
# ---------------------------------------------------------------------------
class RecordingEngine(BlockingEngine):
    """A BlockingEngine that notes, in memory the fork shares, the tag of
    every statement it starts (``SELECT 'a0'`` -> ``a0``), in order."""

    def __init__(self) -> None:
        super().__init__()
        self._tags = FORK.RawArray("c", 256)
        self._length = FORK.RawValue("i", 0)

    def execute(self, sql, config, limits, context):
        tag = sql.split("'")[1].encode() + b" "
        start = self._length.value
        self._tags[start : start + len(tag)] = tag
        self._length.value = start + len(tag)
        return super().execute(sql, config, limits, context)

    def started_tags(self) -> list[str]:
        return self._tags[: self._length.value].decode().split()


class LargeReplyEngine:
    """Engine double: every statement returns one row of *size* bytes."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.release = Flag()  # run_server_scenario sets it on the way out

    def execute(self, sql, config, limits, context):
        return EngineResult(
            rows=[("x" * self.size,)], work_units=1.0, wall_ms=0.5,
            switches=0, degraded=False, plan_cache="off",
        )


def query_lines(*tags: str, first_id: int = 0) -> bytes:
    """Query requests for the tagged statements, as one write."""
    return b"".join(
        (
            json.dumps({"op": "query", "id": first_id + n, "sql": f"SELECT '{tag}'"})
            + "\n"
        ).encode()
        for n, tag in enumerate(tags)
    )


class TestRelay:
    def test_the_relay_keeps_its_contract(self):
        """Round-robin dispatch over pipelining sessions, the engine's reply
        bytes with their ids, admission counters back at 0, and a
        disconnect that reaches the engine's cancel record and frees it."""
        engine = RecordingEngine()

        async def scenario(server, engine):
            first = await ServerClient.connect(server.port)
            second = await ServerClient.connect(server.port)
            first.writer.write(query_lines("a0", "a1", "a2"))
            await first.writer.drain()
            assert await asyncio.to_thread(engine.started.acquire, timeout=5.0)
            second.writer.write(query_lines("b0", "b1", "b2", first_id=10))
            await second.writer.drain()
            deadline = time.monotonic() + 10.0
            while server.admission.queued < 5:
                assert time.monotonic() < deadline, server.admission.queued
                await asyncio.sleep(0.005)
            engine.release.set()
            lines = {
                client: [
                    await asyncio.wait_for(client.reader.readline(), 10.0)
                    for _ in range(3)
                ]
                for client in (first, second)
            }
            settled = (server.admission.queued, server.admission.in_flight)
            # A hang-up while its query runs.
            engine.release.clear()
            victim = await ServerClient.connect(server.port)
            await victim.send(op="query", id=20, sql="SELECT 'held'")
            assert await asyncio.to_thread(engine.started.acquire, timeout=5.0)
            record = server._engines[0].record
            assert record[0] == 0
            await victim.close()
            while not record[0]:
                assert time.monotonic() < deadline + 10.0, "never cancelled"
                await asyncio.sleep(0.005)
            cancelled_reason = bytes(record[2 : 2 + record[1]]).decode()
            engine.release.set()
            await first.send(op="query", id=3, sql="SELECT 'after'")
            after = await first.recv()
            idle = list(server._idle)
            freed = (server.admission.queued, server.admission.in_flight)
            await first.close()
            await second.close()
            return (
                [lines[first], lines[second]], settled, cancelled_reason,
                after, idle, freed,
            )

        lines, settled, reason, after, idle, freed = run_server_scenario(
            tiny_config(max_queue_depth=8, max_queue_per_session=4),
            scenario,
            engine,
        )
        # One engine, so the start order is the dispatch order: a0 ran at
        # once, then one query a session a turn, a's ring turn first.
        assert engine.started_tags() == [
            "a0", "a1", "b0", "a2", "b1", "b2", "held", "after",
        ]
        for client_lines, tags, first_id in (
            (lines[0], ("a0", "a1", "a2"), 0),
            (lines[1], ("b0", "b1", "b2"), 10),
        ):
            for n, (line, tag) in enumerate(zip(client_lines, tags)):
                reply = json.loads(line)
                assert reply["id"] == first_id + n
                assert line == encode_response(
                    ok_response(first_id + n, [(f"SELECT '{tag}'",)], reply["stats"])
                )
        assert settled == (0, 0)
        assert "disconnected" in reason
        assert after["status"] == "ok" and after["id"] == 3
        assert idle == [0] and freed == (0, 0)

    def test_a_client_that_stops_reading_holds_no_engine(self):
        """A session that pipelines queries with large replies and never
        reads them must not keep another session's query from an engine:
        its replies wait in its own transport, and it stops being read."""
        size = 1 << 20

        async def scenario(server, engine):
            stalled = socket.socket()
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.connect(("127.0.0.1", server.port))
            try:
                stalled.sendall(query_lines(*(f"s{n}" for n in range(8))))
                deadline = time.monotonic() + 10.0
                while not any(s.completed >= 2 for s in server.sessions.values()):
                    assert time.monotonic() < deadline, "nothing was answered"
                    await asyncio.sleep(0.005)
                other = await ServerClient.connect(server.port, limit=2**22)
                started = time.monotonic()
                await other.send(op="query", id=1, sql="SELECT 'other'")
                try:
                    reply = await asyncio.wait_for(other.reader.readline(), 5.0)
                except asyncio.TimeoutError:
                    pytest.fail("a non-reading client pinned every engine")
                waited = time.monotonic() - started
                await other.close()
                return json.loads(reply), waited
            finally:
                stalled.close()

        reply, waited = run_server_scenario(
            tiny_config(max_concurrency=2, max_queue_depth=16,
                        max_queue_per_session=8),
            scenario,
            LargeReplyEngine(size),
        )
        assert reply["status"] == "ok" and reply["id"] == 1
        assert len(reply["rows"][0][0]) == size
        assert waited < 5.0
