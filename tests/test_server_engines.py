"""The seam between the event loop and its engine processes.

What a thread pool could not do and a fork must get right: an engine can
die (its request is answered, its slot re-forks, nothing it inherited
keeps a client's socket open), the server can die (no engine outlives
it), cancellation is one shared byte (seen at the next chunk boundary,
never by the next query), the reply line is finished in the engine and
must stay the encoder's bytes, the flight recorder's rings and store stay
in one process, and every engine learns for itself.
"""

from __future__ import annotations

import asyncio
import collections
import importlib.util
import json
import mmap
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

from tests.conftest import build_three_table_db
from tests.test_server import (
    FORK,
    Flag,
    ServerClient,
    run_server_scenario,
    tiny_config,
)
from tests.test_vector_limits import Run

from repro.core.config import AdaptiveConfig, ReorderMode
from repro.dmv import load_dmv
from repro.errors import BudgetExceeded, ReproError
from repro.executor import vector
from repro.obs.recorder import FlightRecorder, PackedRecord, TelemetryStore
from repro.obs.schema import TelemetryValidator
from repro.robustness.limits import (
    CANCEL_RECORD_BYTES,
    ExecutionLimits,
    SharedCancellationToken,
)
from repro.server import ErrorCode, QueryServer, ServerConfig
from repro.server.protocol import (
    encode_response,
    ok_response,
    parse_query_request,
)
from repro.server.server import DatabaseEngine, answer

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ROADMAP's X2 statement: its first monitored run ends on another order
#: than the optimizer's, so the second one starts from plan feedback.
LEARNS = (
    "SELECT o.name, a.damage, t.year "
    "FROM Owner o, Car c, Demographics d, Accidents a, Location l, Time t "
    "WHERE c.ownerid = o.id AND o.id = d.ownerid AND c.id = a.carid "
    "AND a.locationid = l.id AND a.timeid = t.id "
    "AND c.make = 'Porsche' AND d.salary < 55000 "
    "AND l.urban = 1 AND t.month = 6 AND a.damage > 10000"
)
#: Six tables, one weak predicate: 28,000 rows, and at 16 rows a chunk
#: some 200 ms of chunk boundaries — long enough to hang up on.
LONG = (
    "SELECT o.name, a.damage, t.year "
    "FROM Owner o, Car c, Demographics d, Accidents a, Location l, Time t "
    "WHERE c.ownerid = o.id AND o.id = d.ownerid AND c.id = a.carid "
    "AND a.locationid = l.id AND a.timeid = t.id AND a.damage > 100"
)
SMALL = (
    "SELECT o.name FROM Owner o, Car c, Demo d "
    "WHERE o.id = c.ownerid AND o.id = d.ownerid AND o.country = '{}'"
)


def validate_stats():
    spec = importlib.util.spec_from_file_location(
        "validate_stats", ROOT / "scripts" / "validate_stats.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def alive(pid: int) -> bool:
    """Whether *pid* still runs (a zombie nobody reaped yet does not)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def children_of(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = pathlib.Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                found.append(int(entry))
    return found


def open_files(pid: int) -> list[str]:
    """What each descriptor of *pid* beyond the standard three refers to."""
    names = []
    for entry in os.listdir(f"/proc/{pid}/fd"):
        if int(entry) > 2:
            names.append(os.readlink(f"/proc/{pid}/fd/{entry}"))
    return names


class HoldingEngine(DatabaseEngine):
    """The real engine, except that executions of one statement (*hold*)
    first wait for the test to release them — which keeps an engine busy,
    or a query in flight, for as long as a scenario needs."""

    def __init__(self, db, config, hold: str) -> None:
        super().__init__(db, config)
        self.hold = hold
        self.release = Flag()
        self.started = FORK.Semaphore(0)

    def execute(self, sql, config, limits, context=None):
        if sql == self.hold:
            self.started.release()
            assert self.release.wait(30.0)
        return super().execute(sql, config, limits, context)


def serve(db, config, scenario, engine=None):
    async def main():
        server = QueryServer(db, config, engine=engine)
        await server.start()
        try:
            return await asyncio.wait_for(scenario(server), timeout=60.0)
        finally:
            if engine is not None:
                engine.release.set()
            await server.shutdown(grace=1.0)

    return asyncio.run(main())


async def until(condition, seconds: float = 10.0) -> None:
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.005)


@pytest.fixture(scope="module")
def dmv_db():
    db, _ = load_dmv(scale=0.1, extended=True, backend="columnar")
    return db


# ---------------------------------------------------------------------------
# A process can die; a thread could not
# ---------------------------------------------------------------------------
class TestEngineDeath:
    def test_killed_engine_answers_internal_and_its_slot_reforks(self):
        async def scenario(server, engine):
            client = await ServerClient.connect(server.port)
            await client.send(op="query", id=1, sql="SELECT 'doomed'")
            assert await asyncio.to_thread(engine.started.acquire, timeout=5.0)
            first = server._engines[0].pid
            os.kill(first, signal.SIGKILL)
            died = await client.recv()
            engine.release.set()
            # max_concurrency=1: only the re-forked engine can answer.
            await client.send(op="query", id=2, sql="SELECT 'next'")
            after = await client.recv()
            await client.send(op="stats", id=3)
            stats = (await client.recv())["stats"]
            second = server._engines[0].pid
            held = open_files(second)
            # This client connected before the re-fork: had the new engine
            # kept the descriptors it was forked with, the server's hanging
            # up would not reach the client.
            (writer,) = server._writers.values()
            writer.close()
            end = await asyncio.wait_for(client.reader.read(), timeout=5.0)
            await client.close()
            return died, after, stats, (first, second), held, end

        died, after, stats, pids, held, end = run_server_scenario(
            tiny_config(), scenario
        )
        assert died["id"] == 1 and died["status"] == "error"
        assert died["code"] == ErrorCode.INTERNAL
        assert "killed by signal 9" in died["error"]
        assert after["status"] == "ok" and after["rows"] == [["SELECT 'next'"]]
        assert pids[0] != pids[1] and not alive(pids[0])
        assert stats["server"]["engine_restarts_total"] == 1
        assert stats["server"]["engines_live"] == 1
        assert stats["queries"]["internal_error_total"] == 1
        assert stats["queries"]["ok_total"] == 1
        # Its channel, and nothing else of the event loop's: not the
        # listener, not the client's socket.
        assert len(held) == 1 and held[0].startswith("socket:"), held
        assert end == b""

    def test_a_failed_refork_is_logged_not_answered_twice(
        self, monkeypatch, caplog
    ):
        async def scenario(server, engine):
            fork = server._fork_engine
            failures = []

            async def failing_once(index):
                if not failures:
                    failures.append(index)
                    raise RuntimeError("no more processes")
                return await fork(index)

            client = await ServerClient.connect(server.port)
            await client.send(op="query", id=1, sql="SELECT 'doomed'")
            assert await asyncio.to_thread(engine.started.acquire, timeout=5.0)
            monkeypatch.setattr(server, "_fork_engine", failing_once)
            os.kill(server._engines[0].pid, signal.SIGKILL)
            died = await client.recv()
            await until(lambda: failures)
            # Whatever the slot sent for id=1 is ahead of this pong.
            await client.send(op="ping", id=2)
            pong = await client.recv()
            await client.send(op="stats", id=3)
            between = (await client.recv())["stats"]
            engine.release.set()
            await client.send(op="query", id=4, sql="SELECT 'next'")
            after = await client.recv()
            faults = server.metrics.counter("server_worker_faults_total").total
            await client.close()
            return died, pong, between, after, faults

        died, pong, between, after, faults = run_server_scenario(
            tiny_config(), scenario
        )
        assert died["id"] == 1 and died["code"] == ErrorCode.INTERNAL
        assert pong == {"id": 2, "status": "ok", "pong": True}
        assert after["status"] == "ok"  # the next dispatch forked it
        assert faults == 0
        # No engine between the death and the fork that worked: a state the
        # stats document may be read in.
        assert between["server"]["engines_live"] == 0
        assert validate_stats().validate(between)
        assert "engine 0 was not replaced" in caplog.text

    def test_killed_server_leaves_no_engine_behind(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        log = tmp_path / "serve.log"
        with open(log, "wb") as handle:
            process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", "--scale", "0.01",
                    "--port", "0", "--max-concurrency", "2",
                ],
                env=env, stderr=handle, stdout=subprocess.DEVNULL,
            )
        try:
            deadline = time.monotonic() + 60.0
            while "listening on" not in log.read_text(errors="replace"):
                assert process.poll() is None, log.read_text(errors="replace")
                assert time.monotonic() < deadline, "server never listened"
                time.sleep(0.05)
            children = children_of(process.pid)
            assert len(children) == 2, "one engine process per slot"
            process.kill()  # SIGKILL: no drain, nobody closes the channels
            process.wait(timeout=10.0)
            deadline = time.monotonic() + 2.0
            while any(alive(pid) for pid in children):
                assert time.monotonic() < deadline, "an engine was orphaned"
                time.sleep(0.02)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)


# ---------------------------------------------------------------------------
# Classify once, where the exception is
# ---------------------------------------------------------------------------
def subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found += [sub, *subclasses(sub)]
    return found


#: Every error class of the engine, decided: adding one to errors.py
#: without a line here fails the test below.
EXPECTED = {
    "SchemaError": ("sql_error", ErrorCode.SQL_ERROR),
    "CatalogError": ("sql_error", ErrorCode.SQL_ERROR),
    "QueryError": ("sql_error", ErrorCode.SQL_ERROR),
    "SqlSyntaxError": ("sql_error", ErrorCode.SQL_ERROR),
    "PlanError": ("sql_error", ErrorCode.SQL_ERROR),
    "StorageError": ("internal_error", ErrorCode.INTERNAL),
    "TransientStorageError": ("internal_error", ErrorCode.INTERNAL),
    "PermanentStorageError": ("internal_error", ErrorCode.INTERNAL),
    "ExecutionError": ("internal_error", ErrorCode.INTERNAL),
    "OracleViolation": ("internal_error", ErrorCode.INTERNAL),
    "BudgetExceeded": ("budget_exceeded", ErrorCode.BUDGET_EXCEEDED),
}


class Raising:
    """Engine double: every execution raises what it was built with."""

    def __init__(self, error: BaseException) -> None:
        self.error = error

    def execute(self, sql, config, limits, context):
        raise self.error


def ask(engine, token=None, sql="SELECT 1"):
    """One request through ``answer``, as an engine process runs it."""
    request = parse_query_request({"op": "query", "sql": sql})
    config = AdaptiveConfig(mode=request.mode)
    context = {"session": "session-1", "shed": "none", "queued_ms": 0.0}
    header, line = answer(
        engine,
        (sql, config, (None, None, None), 7, context),
        token or SharedCancellationToken(),
    )
    return header, json.loads(line)


class TestClassification:
    def test_the_table_names_every_error_class(self):
        assert {cls.__name__ for cls in subclasses(ReproError)} == set(EXPECTED)

    @pytest.mark.parametrize(
        "cls", subclasses(ReproError), ids=lambda cls: cls.__name__
    )
    def test_every_error_class_maps_to_one_outcome_and_code(self, cls):
        outcome, code = EXPECTED[cls.__name__]
        header, reply = ask(Raising(cls("synthetic")))
        assert header["outcome"] == outcome
        assert reply["id"] == 7 and reply["status"] == "error"
        assert reply["code"] == code
        assert "synthetic" in reply["error"]
        assert ("progress" in reply) == (cls is BudgetExceeded)
        # Nothing of the exception crosses the channel but its text.
        assert set(header) == {"outcome", "record", "counters"}

    def test_a_spent_budget_reads_cancelled_when_the_token_fired(self):
        record = memoryview(bytearray(CANCEL_RECORD_BYTES))
        canceller = SharedCancellationToken()
        canceller.bind(record)
        canceller.cancel("client went away")
        error = BudgetExceeded(
            "query cancelled: client went away", rows_emitted=4,
            work_units=9.0, elapsed_seconds=0.002, driving_rows=2,
        )
        header, reply = ask(Raising(error), SharedCancellationToken(record))
        assert header["outcome"] == "cancelled"
        assert reply["code"] == ErrorCode.CANCELLED
        assert reply["progress"] == {
            "rows_emitted": 4, "work_units": 9.0, "elapsed_ms": 2.0,
            "driving_rows": 2,
        }

    def test_an_engine_bug_is_internal_and_names_its_type(self):
        header, reply = ask(Raising(ZeroDivisionError("division by zero")))
        assert header["outcome"] == "internal_error"
        assert reply["code"] == ErrorCode.INTERNAL
        assert reply["error"] == "ZeroDivisionError: division by zero"

    def test_the_flight_record_carries_the_same_outcome(self, monkeypatch):
        db = build_three_table_db()
        engine = DatabaseEngine(db, ServerConfig(port=0))
        for cls in subclasses(ReproError):
            def failing(*args, _cls=cls, **kwargs):
                raise _cls("synthetic")

            monkeypatch.setattr(db, "execute", failing)
            header, _ = ask(engine)
            record = header["record"].unpack()
            assert record.outcome == header["outcome"]
            assert header["outcome"] == EXPECTED[cls.__name__][0]
            assert record.error == f"{cls.__name__}: synthetic"
        assert engine.recorder.recorded_total == 0  # built here, not kept


# ---------------------------------------------------------------------------
# Cancellation is one byte
# ---------------------------------------------------------------------------
class TestCancellation:
    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        """Patched before ``QueryServer.start()`` forks: the engine
        processes inherit it."""
        monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 16)

    def test_the_engine_side_token_stops_the_cascade_at_the_next_chunk(
        self, dmv_db
    ):
        """What an engine process runs with: a token that only reads the
        shared record. Set from the other side after the first chunk was
        delivered, it ends the query before the second."""
        record = memoryview(mmap.mmap(-1, CANCEL_RECORD_BYTES))
        config = AdaptiveConfig(mode=ReorderMode.BOTH)
        want = dmv_db.execute(dmv_db.plan(LONG), config).rows
        event_loop_side = SharedCancellationToken()
        event_loop_side.bind(record)
        engine_side = SharedCancellationToken(record)
        run = Run(
            dmv_db, LONG, config, ExecutionLimits(cancellation=engine_side),
            after_first_row=lambda: event_loop_side.cancel("client gone"),
        )
        assert run.executor.engine_used == "vector-adaptive"
        assert run.error is not None and "client gone" in run.error.reason
        assert 0 < run.first_boundary < len(want)
        assert run.rows == want[: run.first_boundary]
        assert run.error.rows_emitted == run.first_boundary
        # The record is the engine's: cleared, the same token runs the
        # next query to its end.
        record[0] = 0
        rerun = Run(
            dmv_db, LONG, config, ExecutionLimits(cancellation=engine_side)
        )
        assert rerun.error is None and rerun.rows == want

    def test_a_disconnect_cancels_the_real_engine_and_frees_its_slot(
        self, dmv_db
    ):
        config = ServerConfig(port=0, max_concurrency=1)

        async def scenario(server):
            victim = await ServerClient.connect(server.port)
            await victim.send(op="query", id=1, sql=LONG, mode="both")
            await until(lambda: server.admission.in_flight == 1)
            await victim.close()
            await until(lambda: server.admission.in_flight == 0)
            other = await ServerClient.connect(server.port, limit=2**24)
            await other.send(op="query", id=2, sql=LONG, mode="both")
            whole = await other.recv()
            await other.send(op="stats", id=3)
            stats = (await other.recv())["stats"]
            await other.close()
            return whole, stats, server.engine.recorder.recent()

        whole, stats, records = serve(dmv_db, config, scenario)
        assert whole["status"] == "ok" and whole["row_count"] > 20_000
        assert stats["queries"]["cancelled_total"] == 1
        assert stats["queries"]["ok_total"] == 1
        assert stats["server"]["engine_restarts_total"] == 0
        cancelled, finished = records
        assert cancelled.outcome == "cancelled"
        assert cancelled.error.endswith("disconnected")  # the canceller's reason
        assert finished.outcome == "ok"
        # Stopped at a chunk boundary on the way, not run to the end.
        assert cancelled.wall_ms < finished.wall_ms

    def test_a_flag_set_after_the_reply_cancels_nothing(self):
        async def scenario(server, engine):
            client = await ServerClient.connect(server.port)
            await client.send(op="query", id=1, sql="SELECT 'first'")
            assert await asyncio.to_thread(engine.started.acquire, timeout=5.0)
            (session,) = server.sessions.values()
            (token,) = session.in_flight
            engine.release.set()
            first = await client.recv()
            # A canceller that lost the race with the reply, as the event
            # loop sees it (the token no longer reaches the engine) and as
            # the engine's record would hold it had the flag been written
            # between the engine's last check and the reply's arrival.
            assert token.cancel("too late")
            server._engines[0].record[0] = 1
            await client.send(op="query", id=2, sql="SELECT 'second'")
            second = await client.recv()
            await client.send(op="stats", id=3)
            stats = (await client.recv())["stats"]
            await client.close()
            return first, second, stats

        first, second, stats = run_server_scenario(tiny_config(), scenario)
        assert first["status"] == second["status"] == "ok"
        assert second["rows"] == [["SELECT 'second'"]]
        assert stats["queries"]["cancelled_total"] == 0


# ---------------------------------------------------------------------------
# The reply line is finished in the engine
# ---------------------------------------------------------------------------
def served_mix_pairs() -> list[tuple[str, str]]:
    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    try:
        import served
    finally:
        sys.path.pop(0)
    return served.pairs()


class TestReplyBytes:
    def test_engine_reply_lines_are_the_encoders_bytes(self, dmv_db):
        """For the benchmark's 40 (statement, mode) pairs: the line a
        client reads is ``encode_response(ok_response(id, rows, stats))``
        of the rows this process computes — row order, framing and key
        order included. Every other request carries ``"workers": 2``, the
        field of the deleted intra-query pool: it is not read, so the
        reply is the one the same request gets without it."""
        pairs = served_mix_pairs()
        assert len(pairs) == 40

        def extra(number):
            return {"workers": 2} if number % 2 else {}

        async def scenario(server):
            client = await ServerClient.connect(server.port)
            lines = []
            for number, (sql, mode) in enumerate(pairs):
                await client.send(
                    op="query", id=number, sql=sql, mode=mode, **extra(number)
                )
                lines.append(await client.reader.readline())
            # A static statement once more each way, warm: the two replies
            # differ in nothing but their clocks and their query ids.
            sql = next(sql for sql, mode in pairs if mode == "none")
            twins = []
            for fields in ({}, {"workers": 2}):
                await client.send(
                    op="query", id=99, sql=sql, mode="none", **fields
                )
                twins.append(await client.reader.readline())
            await client.close()
            return lines, twins, server.admission

        lines, twins, admission = serve(
            dmv_db, ServerConfig(port=0, max_concurrency=2), scenario
        )
        # One connection, one request at a time: engine 0 ran them all, in
        # this order, from the state this database is in now.
        for number, ((sql, mode), line) in enumerate(zip(pairs, lines)):
            reply = json.loads(line)
            assert reply["status"] == "ok", reply
            request = parse_query_request(
                {"op": "query", "sql": sql, "mode": mode}
            )
            assert request == parse_query_request(
                {"op": "query", "sql": sql, "mode": mode, **extra(number)}
            )
            assert reply["stats"]["engine"].startswith("vector")
            assert reply["stats"]["shed"] == "none"
            applied = admission.apply_shed(request, "none")
            rows = dmv_db.execute(sql, applied).rows
            assert line == encode_response(
                ok_response(number, rows, reply["stats"])
            ), (number, sql)
            assert list(reply["stats"]) == [
                "work_units", "wall_ms", "queued_ms", "switches", "degraded",
                "mode", "shed", "plan_cache", "engine",
                "plan_feedback", "query_id",
            ]
            assert list(reply) == ["id", "status", "rows", "row_count", "stats"]
        clocks = re.compile(rb'"(wall_ms|queued_ms|query_id)": ?[^,}]+')
        without, carrying = (clocks.sub(b"", line) for line in twins)
        assert carrying == without and b'"status":"ok"' in without


# ---------------------------------------------------------------------------
# One recorder, in the event loop's process
# ---------------------------------------------------------------------------
class TestRecorder:
    def test_the_recorder_holds_what_the_engines_finished(self, tmp_path):
        db = build_three_table_db()
        config = ServerConfig(
            port=0, max_concurrency=2, telemetry_dir=str(tmp_path),
            slow_query_ms=0.0001,
        )
        held = SMALL.format("US")
        engine = HoldingEngine(db, config, hold=held)

        async def scenario(server):
            first = await ServerClient.connect(server.port)
            replies = []
            for number, message in enumerate((
                dict(sql=SMALL.format("DE")),
                dict(sql="SELECT nope FROM Missing m"),
                dict(sql=SMALL.format("DE"), max_rows=1),
            )):
                await first.send(op="query", id=number, **message)
                replies.append(await first.recv())
            # Engine 0 holds a query; the next one meets engine 1.
            await first.send(op="query", id=3, sql=held)
            assert await asyncio.to_thread(engine.started.acquire, timeout=5.0)
            second = await ServerClient.connect(server.port)
            await second.send(op="query", id=4, sql=SMALL.format("FR"))
            replies.append(await second.recv())
            # Cancelled in flight: its client is gone, its record is kept.
            await first.close()
            await until(lambda: len(server.sessions) == 1)
            engine.release.set()
            await until(lambda: server.admission.in_flight == 0)
            # Dropped by a dead engine: answered, never recorded.
            engine.release.clear()
            await second.send(op="query", id=5, sql=held)
            assert await asyncio.to_thread(engine.started.acquire, timeout=5.0)
            pids = [process.pid for process in server._engines]
            files = [open_files(pid) for pid in pids]
            os.kill(pids[0], signal.SIGKILL)
            replies.append(await second.recv())
            await second.send(op="telemetry", id=6)
            telemetry = (await second.recv())["telemetry"]
            await second.send(op="stats", id=7)
            stats = (await second.recv())["stats"]
            await second.close()
            return replies, telemetry, stats, pids, files

        replies, telemetry, stats, pids, files = serve(
            db, config, scenario, engine
        )
        assert [r.get("code", r["status"]) for r in replies] == [
            "ok", ErrorCode.SQL_ERROR, ErrorCode.BUDGET_EXCEEDED, "ok",
            ErrorCode.INTERNAL,
        ]
        outcomes = collections.Counter(
            entry["outcome"] for entry in telemetry["recent"]
        )
        assert outcomes == {
            "ok": 2, "sql_error": 1, "budget_exceeded": 1, "cancelled": 1,
        }
        assert telemetry["recorded_total"] == 5
        assert stats["telemetry"]["recorded_total"] == 5
        assert stats["queries"]["internal_error_total"] == 1
        slow = [entry["query_id"] for entry in telemetry["slow"]]
        assert telemetry["slow_total"] == len(slow) >= 2  # both ok ones
        assert stats["telemetry"]["slow_queries_total"] == 2
        # Each engine numbers its own queries; none is the server's.
        writers = {
            entry["query_id"].split("-")[1] for entry in telemetry["recent"]
        }
        assert writers == {f"{pid:x}" for pid in pids}
        assert f"{os.getpid():x}" not in writers
        # One writer: the store counted every record, no engine holds the
        # segment (or anything else but its channel), and what the drain
        # left behind is whole.
        assert telemetry["store"]["appended_total"] == 5
        for held_by_engine in files:
            assert len(held_by_engine) == 1, held_by_engine
            assert held_by_engine[0].startswith("socket:")
        names = sorted(os.listdir(tmp_path))
        assert names and not any(name.endswith(".part") for name in names)
        validator = TelemetryValidator()
        for name in names:
            with open(tmp_path / name, encoding="utf-8") as handle:
                for line in handle:
                    assert validator.feed(json.loads(line)) == []
        assert validator.finish() == []
        assert len(validator.seen_query_ids) == 5


    def test_the_event_loop_keeps_records_packed_and_writes_their_line(
        self, tmp_path, monkeypatch
    ):
        db = build_three_table_db()
        config = ServerConfig(
            port=0, max_concurrency=1, telemetry_dir=str(tmp_path)
        )
        unpacked = []
        unpack = PackedRecord.unpack

        def counting(packed):
            unpacked.append(packed.query_id)
            return unpack(packed)

        monkeypatch.setattr(PackedRecord, "unpack", counting)

        async def scenario(server):
            client = await ServerClient.connect(server.port)
            for number, country in enumerate(("DE", "US")):
                await client.send(
                    op="query", id=number, sql=SMALL.format(country)
                )
                assert (await client.recv())["status"] == "ok"
            opened_by_queries = list(unpacked)
            await client.send(op="telemetry", id=2)
            telemetry = (await client.recv())["telemetry"]
            await client.close()
            return opened_by_queries, telemetry, server.engine.recorder.recent()

        opened_by_queries, telemetry, records = serve(db, config, scenario)
        # Ingesting opens nothing; reading the ring does.
        assert opened_by_queries == []
        assert [e["query_id"] for e in telemetry["recent"]] == unpacked[:2]
        # The segment holds, byte for byte, what this process would have
        # encoded from the records had it opened them.
        (name,) = os.listdir(tmp_path)
        with open(tmp_path / name, encoding="utf-8") as handle:
            assert handle.readlines() == [
                json.dumps(
                    record.to_dict(), separators=(",", ":"), default=str
                ) + "\n"
                for record in records
            ]

    def test_a_packed_record_ingests_as_the_record_itself(self, tmp_path):
        db = build_three_table_db()
        config = AdaptiveConfig(mode=ReorderMode.BOTH)
        kept = {}
        for kind in ("plain", "packed"):
            recorder = FlightRecorder(
                store=TelemetryStore(str(tmp_path / kind)),
                slow_query_ms=0.0001,
            )
            sql = SMALL.format("DE")
            bundle = recorder.arm()
            record = recorder.build_record(
                bundle, db.execute(sql, config, obs=bundle),
                sql=sql, config=config,
            )
            recorder.ingest(
                recorder.pack(record) if kind == "packed" else record
            )
            assert recorder.recorded_total == recorder.slow_total == 1
            assert recorder.find(record.query_id) == record
            assert recorder.recent() == recorder.slow_queries() == [record]
            recorder.close()
            (stored,) = TelemetryStore.iter_records(str(tmp_path / kind))
            assert stored == json.loads(json.dumps(record.to_dict()))
            kept[kind] = set(stored)
        assert kept["plain"] == kept["packed"]


# ---------------------------------------------------------------------------
# Each engine learns on its own
# ---------------------------------------------------------------------------
class TestLearning:
    def test_plan_feedback_is_per_engine_and_the_stats_op_sums_it(
        self, dmv_db
    ):
        config = ServerConfig(port=0, max_concurrency=2)
        engine = HoldingEngine(dmv_db, config, hold=LONG)

        async def scenario(server):
            client = await ServerClient.connect(server.port)
            blocker = await ServerClient.connect(server.port, limit=2**24)
            await client.send(op="stats", id=0)
            before = (await client.recv())["stats"]["plan_cache"]

            async def learn():
                seen = []
                for number in range(2):
                    await client.send(
                        op="query", id=number, sql=LEARNS, mode="both"
                    )
                    seen.append((await client.recv())["stats"])
                return seen

            on_first = await learn()
            # Engine 0 is held busy: the same statement now meets engine 1.
            await blocker.send(op="query", id=9, sql=LONG, mode="none")
            assert await asyncio.to_thread(engine.started.acquire, timeout=5.0)
            on_second = await learn()
            engine.release.set()
            assert (await blocker.recv())["status"] == "ok"
            await client.send(op="stats", id=3)
            stats = (await client.recv())["stats"]
            await client.close()
            await blocker.close()
            return on_first, on_second, before, stats["plan_cache"]

        on_first, on_second, before, cache = serve(
            dmv_db, config, scenario, engine
        )
        for first, second in (on_first, on_second):
            assert first["plan_cache"] == "miss"
            assert first["plan_feedback"] is None
            assert second["plan_cache"] == "hit"
            assert second["plan_feedback"]["writes"] == 1
            assert second["work_units"] < first["work_units"]
            # The lesson runs as a static plan under the requested mode.
            assert (second["mode"], second["engine"]) == ("both", "vector")
            assert second["switches"] == 0
        assert on_first[0]["query_id"].split("-")[1] != (
            on_second[0]["query_id"].split("-")[1]
        )
        # What the two engines counted since their fork, summed.
        assert cache["feedback_writes"] - before["feedback_writes"] == 2
        assert cache["feedback_hits"] - before["feedback_hits"] == 2
        assert cache["misses"] - before["misses"] >= 2
