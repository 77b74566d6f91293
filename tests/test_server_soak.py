"""Concurrency soak: the server over the real engine, many async clients.

The acceptance contract of the serving layer:

* N concurrent clients firing the mixed DMV templates each receive
  row-for-row the result the serial engine produces for that statement —
  concurrent execution (one engine process a slot, each with the plan
  cache it was forked with; shed reconfiguration) is invisible in results;
* mid-query disconnects cancel only the disconnecting client's work —
  inside the engine process running it — and never disturb other
  sessions;
* rate-limited sessions get typed ``RATE_LIMITED`` rejections while their
  admitted queries still execute correctly;
* a real ``repro serve`` process drains on SIGTERM and exits 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.config import AdaptiveConfig
from repro.dmv import four_table_workload, load_dmv
from repro.server import ErrorCode, QueryServer, ServerConfig

CLIENTS = 8
QUERIES_PER_CLIENT = 12


@pytest.fixture(scope="module")
def soak_db():
    db, _ = load_dmv(scale=0.01)
    return db


@pytest.fixture(scope="module")
def workload(soak_db):
    """(sql, baseline sorted rows) pairs from the serial engine."""
    items = []
    for query in four_table_workload(queries_per_template=3):
        result = soak_db.execute(query.sql, AdaptiveConfig())
        items.append((query.sql, sorted(tuple(r) for r in result.rows)))
    return items


async def query_once(reader, writer, request_id: int, sql: str) -> dict:
    writer.write(
        (json.dumps({"op": "query", "id": request_id, "sql": sql}) + "\n")
        .encode()
    )
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=30.0)
    assert line, "connection closed mid-conversation"
    return json.loads(line)


def run_soak(server_config: ServerConfig, db, scenario):
    async def main():
        server = QueryServer(db, server_config)
        await server.start()
        try:
            return await asyncio.wait_for(scenario(server), timeout=120.0)
        finally:
            await server.shutdown(grace=2.0)

    return asyncio.run(main())


class TestConcurrencySoak:
    def test_eight_clients_serial_equivalent_results(self, soak_db, workload):
        config = ServerConfig(
            port=0,
            max_concurrency=4,
            max_queue_depth=64,
            max_queue_per_session=16,
        )

        async def client(server, index: int, failures: list):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                for n in range(QUERIES_PER_CLIENT):
                    sql, baseline = workload[(index + n) % len(workload)]
                    response = await query_once(
                        reader, writer, index * 1000 + n, sql
                    )
                    if response["status"] != "ok":
                        failures.append(
                            f"client {index} query {n}: {response}"
                        )
                        continue
                    rows = sorted(tuple(r) for r in response["rows"])
                    if rows != baseline:
                        failures.append(
                            f"client {index} query {n}: rows diverge from "
                            f"serial baseline for {sql[:60]}"
                        )
            finally:
                writer.close()
                await writer.wait_closed()

        async def scenario(server):
            failures: list[str] = []
            await asyncio.gather(*(
                client(server, i, failures) for i in range(CLIENTS)
            ))
            # Collect the final stats document for the post-conditions.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b'{"op": "stats"}\n')
            await writer.drain()
            stats = json.loads(await reader.readline())["stats"]
            writer.close()
            await writer.wait_closed()
            return failures, stats

        failures, stats = run_soak(config, soak_db, scenario)
        assert not failures, "\n".join(failures[:10])
        total = CLIENTS * QUERIES_PER_CLIENT
        assert stats["queries"]["ok_total"] == total
        assert stats["queries"]["internal_error_total"] == 0
        assert stats["server"]["protocol_errors"] == 0
        # The shared plan cache must have been doing its job: at most one
        # miss per distinct statement (plus single-flight waits, never
        # duplicate planning of a cached statement).
        cache = stats["plan_cache"]
        assert cache["misses"] <= len(set(sql for sql, _ in workload))
        assert cache["hits"] >= total - cache["misses"] - cache["single_flight_waits"]

    def test_mid_query_disconnects_do_not_disturb_others(
        self, soak_db, workload
    ):
        config = ServerConfig(
            port=0, max_concurrency=2, max_queue_depth=32,
            max_queue_per_session=16,
        )

        async def vanishing_client(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # Pipeline several queries and hang up without reading.
            for n, (sql, _) in enumerate(workload[:6]):
                writer.write(
                    (json.dumps({"op": "query", "id": n, "sql": sql}) + "\n")
                    .encode()
                )
            await writer.drain()
            writer.close()
            await writer.wait_closed()

        async def steady_client(server, failures: list):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                for n in range(8):
                    sql, baseline = workload[n % len(workload)]
                    response = await query_once(reader, writer, n, sql)
                    if response["status"] != "ok":
                        failures.append(str(response))
                    elif sorted(tuple(r) for r in response["rows"]) != baseline:
                        failures.append(f"rows diverge on {sql[:60]}")
            finally:
                writer.close()
                await writer.wait_closed()

        async def scenario(server):
            failures: list[str] = []
            await asyncio.gather(
                vanishing_client(server),
                steady_client(server, failures),
                vanishing_client(server),
            )
            async def settled():
                deadline = asyncio.get_running_loop().time() + 10.0
                while (
                    server.admission.in_flight or server.scheduler.pending
                ) and asyncio.get_running_loop().time() < deadline:
                    await asyncio.sleep(0.02)

            # Every session is gone; nothing may remain queued or running.
            await settled()
            # A hang-up reaches the engine process: a query that was
            # running when its client vanished is cut short there (one
            # more vanishing client, should every query so far have
            # finished before its cancel byte was set).
            outcomes = server.metrics.counter("server_queries_total")
            for _ in range(20):
                if outcomes.value("cancelled"):
                    break
                await vanishing_client(server)
                await settled()
            return (
                failures, server.admission.in_flight,
                server.scheduler.pending, server.stats_payload()["queries"],
            )

        failures, in_flight, queued, queries = run_soak(
            config, soak_db, scenario
        )
        assert not failures, "\n".join(failures[:10])
        assert in_flight == 0 and queued == 0
        assert queries["cancelled_total"] >= 1
        assert queries["dropped_on_disconnect_total"] >= 1
        assert queries["internal_error_total"] == 0

    def test_rate_limited_clients_get_typed_rejections(
        self, soak_db, workload
    ):
        config = ServerConfig(
            port=0,
            max_concurrency=2,
            rate_limit_qps=0.5,
            rate_limit_burst=3.0,
        )

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            responses = []
            try:
                for n in range(8):
                    sql, baseline = workload[n % len(workload)]
                    response = await query_once(reader, writer, n, sql)
                    responses.append((response, baseline))
            finally:
                writer.close()
                await writer.wait_closed()
            return responses

        responses = run_soak(config, soak_db, scenario)
        ok = [r for r, _ in responses if r["status"] == "ok"]
        limited = [
            r for r, _ in responses
            if r["status"] == "error" and r["code"] == ErrorCode.RATE_LIMITED
        ]
        assert len(ok) >= 3, "burst admits at least the first three"
        assert limited, "the rate limiter must have fired"
        assert len(ok) + len(limited) == len(responses)
        for response, baseline in responses:
            if response["status"] == "ok":
                assert sorted(tuple(r) for r in response["rows"]) == baseline


class TestServedEngine:
    """Served queries reach the columnar engine: the budgets the server
    arms on every request are enforced inside the cascade, not by gating
    it out."""

    SQL = (
        "SELECT o.name, c.make, a.damage FROM Owner o, Car c, Accidents a "
        "WHERE c.ownerid = o.id AND a.carid = c.id AND o.country3 = 'DE'"
    )

    @pytest.fixture(scope="class")
    def columnar_db(self):
        db, _ = load_dmv(scale=0.01, backend="columnar")
        return db

    def test_replies_name_the_vector_engines(self, columnar_db):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            replies = {}
            for request_id, mode in enumerate(("both", "none")):
                writer.write((json.dumps({
                    "op": "query", "id": request_id, "sql": self.SQL,
                    "mode": mode,
                }) + "\n").encode())
                await writer.drain()
                replies[mode] = json.loads(await reader.readline())
            writer.write(b'{"op": "stats"}\n')
            await writer.drain()
            stats = json.loads(await reader.readline())["stats"]
            writer.close()
            await writer.wait_closed()
            return replies, stats

        replies, stats = run_soak(
            ServerConfig(port=0), columnar_db, scenario
        )
        assert replies["both"]["status"] == replies["none"]["status"] == "ok"
        assert replies["both"]["stats"]["engine"] == "vector-adaptive"
        assert replies["none"]["stats"]["engine"] == "vector"
        assert replies["both"]["row_count"] == replies["none"]["row_count"] > 0
        assert stats["engines"] == {"vector-adaptive": 1, "vector": 1}

    def test_row_budget_is_exact_through_the_server(self, columnar_db):
        total = len(columnar_db.execute(self.SQL, AdaptiveConfig()).rows)
        budget = total // 2
        assert budget >= 1

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write((json.dumps({
                "op": "query", "id": 1, "sql": self.SQL, "mode": "both",
                "max_rows": budget,
            }) + "\n").encode())
            await writer.drain()
            reply = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            return reply

        reply = run_soak(ServerConfig(port=0), columnar_db, scenario)
        assert reply["status"] == "error"
        assert reply["code"] == ErrorCode.BUDGET_EXCEEDED
        assert reply["progress"]["rows_emitted"] == budget


class TestServeProcess:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """A real `repro serve` process: query it, SIGTERM it, expect 0."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
        log = tmp_path / "serve.log"
        with open(log, "wb") as log_handle:
            process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--scale", "0.01", "--port", "0",
                ],
                env=env,
                stderr=log_handle,
                stdout=subprocess.DEVNULL,
            )
        try:
            port = None
            deadline = time.time() + 60.0
            while time.time() < deadline and port is None:
                text = log.read_text(errors="replace")
                for token in text.split():
                    if token.startswith("127.0.0.1:"):
                        port = int(token.split(":")[1])
                        break
                if port is None:
                    assert process.poll() is None, f"server died:\n{text}"
                    time.sleep(0.1)
            assert port, "server never reported its port"

            async def roundtrip():
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    b'{"op": "query", "id": 1, "sql": '
                    b'"SELECT c.make FROM Car c WHERE c.year >= 2005"}\n'
                )
                await writer.drain()
                response = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return response

            response = asyncio.run(roundtrip())
            assert response["status"] == "ok" and response["row_count"] > 0
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
