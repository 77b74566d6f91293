"""Server-side telemetry plane: the ``telemetry`` op, slow-query log,
per-session stats, and store finalization on drain.

These tests run a real :class:`DatabaseEngine` over a small database (the
fake engines in ``test_server.py`` have no flight recorder) and check the
wire-visible surface: every served query carries its ``query_id`` back to
the client, the ``telemetry`` op exposes the rings and the store, the
``stats`` document validates against ``scripts/validate_stats.py``'s
schema, and a drained server leaves only finalized ``.jsonl`` segments.
"""

from __future__ import annotations

import asyncio
import os
import sys
from types import SimpleNamespace

import pytest

from tests.conftest import build_three_table_db
from tests.test_server import ServerClient

from repro.obs.schema import TelemetryValidator
from repro.server.admission import ServerConfig
from repro.server.protocol import ErrorCode
from repro.server.server import QueryServer

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
)
import validate_stats  # noqa: E402

SQL = (
    "SELECT o.name FROM Owner o, Car c, Demo d "
    "WHERE o.id = c.ownerid AND o.id = d.ownerid AND o.country = 'DE'"
)


@pytest.fixture(scope="module")
def small_db():
    return build_three_table_db()


def serve(small_db, config: ServerConfig, scenario):
    """Run *scenario* against a real-engine server; returns its result."""

    async def main():
        server = QueryServer(small_db, config)
        await server.start()
        try:
            return await asyncio.wait_for(scenario(server), timeout=30.0)
        finally:
            await server.shutdown(grace=1.0)

    return asyncio.run(main())


def config_with(**overrides) -> ServerConfig:
    defaults = dict(port=0, max_concurrency=1, max_queue_depth=8)
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestTelemetryOp:
    def test_every_query_carries_its_flight_record_id(self, small_db):
        async def scenario(server):
            client = await ServerClient.connect(server.port)
            await client.send(op="query", id=1, sql=SQL)
            response = await client.recv()
            await client.close()
            return response

        response = serve(small_db, config_with(), scenario)
        assert response["status"] == "ok"
        assert response["stats"]["query_id"].startswith("q-")

    def test_telemetry_op_reports_rings_and_store(self, small_db, tmp_path):
        config = config_with(
            telemetry_dir=str(tmp_path), slow_query_ms=0.0001
        )

        async def scenario(server):
            client = await ServerClient.connect(server.port)
            await client.send(op="query", id=1, sql=SQL)
            ok = await client.recv()
            await client.send(op="query", id=2, sql="SELECT nope FROM Missing m")
            failed = await client.recv()
            await client.send(op="telemetry", id=3)
            telemetry = await client.recv()
            await client.close()
            return ok, failed, telemetry

        ok, failed, response = serve(small_db, config, scenario)
        assert ok["status"] == "ok"
        assert failed["status"] == "error"
        body = response["telemetry"]
        assert body["recorded_total"] == 2
        assert body["slow_query_ms"] == 0.0001
        outcomes = {entry["outcome"] for entry in body["recent"]}
        assert outcomes == {"ok", "sql_error"}
        for entry in body["recent"]:
            assert entry["query_id"].startswith("q-")
            assert entry["session"].startswith("session-")
        # The 0.0001ms threshold marks the successful query slow.
        assert body["slow_total"] >= 1
        assert body["slow"]
        store = body["store"]
        assert store["directory"] == str(tmp_path)
        assert store["appended_total"] == 2

    def test_prometheus_exposition_format(self, small_db):
        async def scenario(server):
            client = await ServerClient.connect(server.port)
            await client.send(op="query", id=1, sql=SQL)
            await client.recv()
            await client.send(op="telemetry", id=2, format="prometheus")
            response = await client.recv()
            await client.close()
            return response

        response = serve(small_db, config_with(), scenario)
        text = response["exposition"]
        assert "# TYPE server_queries_total counter" in text
        assert 'server_queries_total{label="ok"} 1' in text
        assert "# TYPE server_latency_ms histogram" in text
        assert 'le="+Inf"' in text

    def test_limit_validated_and_recorderless_engine_rejected(self, small_db):
        server = QueryServer(
            small_db, config_with(), engine=SimpleNamespace()
        )
        rejected = server._telemetry_response(1, {})
        assert rejected["code"] == ErrorCode.BAD_REQUEST
        assert "no flight recorder" in rejected["error"]
        for bad in (0, -1, "five", True):
            response = QueryServer(small_db, config_with())._telemetry_response(
                2, {"limit": bad}
            )
            assert response["code"] == ErrorCode.BAD_REQUEST


class TestStatsDocument:
    def test_stats_validate_against_schema(self, small_db, tmp_path):
        config = config_with(
            telemetry_dir=str(tmp_path), slow_query_ms=0.0001
        )

        async def scenario(server):
            client = await ServerClient.connect(server.port)
            await client.send(op="query", id=1, sql=SQL)
            await client.recv()
            await client.send(op="stats", id=2)
            stats = (await client.recv())["stats"]
            await client.close()
            return stats

        stats = serve(small_db, config, scenario)
        notes = validate_stats.validate(stats)  # raises on violation
        assert notes
        telemetry = stats["telemetry"]
        assert telemetry["recorded_total"] == 1
        assert telemetry["slow_queries_total"] == 1
        (session,) = stats["per_session"]
        assert session["submitted"] == 1 and session["completed"] == 1


class TestStoreLifecycle:
    def test_drained_server_leaves_only_finalized_segments(
        self, small_db, tmp_path
    ):
        config = config_with(telemetry_dir=str(tmp_path))

        async def scenario(server):
            client = await ServerClient.connect(server.port)
            for i in range(3):
                await client.send(op="query", id=i, sql=SQL)
                await client.recv()
            await client.close()

        serve(small_db, config, scenario)
        names = sorted(os.listdir(tmp_path))
        assert names, "drained server wrote no telemetry"
        assert not any(name.endswith(".part") for name in names)
        # Every segment validates against the shared telemetry schema.
        validator = TelemetryValidator()
        import json

        for name in names:
            with open(tmp_path / name, encoding="utf-8") as handle:
                for line in handle:
                    assert validator.feed(json.loads(line)) == []
        assert validator.finish() == []
        assert len(validator.seen_query_ids) == 3
