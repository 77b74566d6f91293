#!/usr/bin/env python3
"""Validate a query-server ``stats`` document against its schema.

Connects to a live server (start one with ``python -m repro serve``),
issues ``{"op": "stats"}``, and checks the response document:

* top-level sections ``server``, ``admission``, ``latency_ms``,
  ``queries``, ``plan_cache``, ``telemetry``, ``storage`` all present,
  each an object with exactly the documented keys; ``per_session`` is a
  list with one counter object per connected session and ``per_table``
  a list with one footprint object per catalog table; ``engines`` maps
  known engine names to per-query served counts (``--expect-engine``
  asserts a specific engine — e.g. ``vector-adaptive`` — actually ran);
* types: counters are non-negative numbers, ``draining`` is a bool,
  quantiles are numbers or null;
* invariants: ``in_flight <= max_concurrency``,
  ``queue_depth <= max_queue_depth``, at most one live engine process per
  worker slot (``server.engines_live <= admission.max_concurrency``: fewer
  between an engine's death and its re-fork; the summary line prints the
  count for a caller that expects all of them), latency quantiles are
  monotonically non-decreasing (p50 <= p95 <= p99) when present,
  plan-cache ``size <= capacity``, ``feedback_hits <= hits`` and, at
  capacity 0 (off), no hits, waits, evictions or plan feedback (the
  section sums the engine processes' caches), the latency
  histogram ``count`` is at least the number of completed queries'
  outcomes recorded, ``storage.total_bytes`` equals the sum of the
  per-table bytes, and ``storage.table_count`` equals the number of
  ``per_table`` entries (each of which names the same backend).

Usage::

    python scripts/validate_stats.py --port 7654
    python scripts/validate_stats.py --file stats.json   # offline check

Exits 0 with a one-line summary on success; exits 1 naming the first
violated rule. Stdlib only — runnable in any CI image.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

SCHEMA = {
    "server": {
        "uptime_s": "number",
        "sessions": "count",
        "draining": "bool",
        "protocol_errors": "count",
        "engines_live": "count",
        "engine_restarts_total": "count",
    },
    "admission": {
        "in_flight": "count",
        "queue_depth": "count",
        "max_concurrency": "count",
        "max_queue_depth": "count",
        "accepted_total": "count",
        "rejected_overload_total": "count",
        "rejected_rate_limit_total": "count",
        "rejected_draining_total": "count",
        "shed_static_total": "count",
    },
    "latency_ms": {
        "count": "count",
        "mean": "number_or_null",
        "p50": "number_or_null",
        "p95": "number_or_null",
        "p99": "number_or_null",
    },
    "queries": {
        "ok_total": "count",
        "budget_exceeded_total": "count",
        "cancelled_total": "count",
        "sql_error_total": "count",
        "internal_error_total": "count",
        "rows_returned_total": "count",
        "dropped_on_disconnect_total": "count",
    },
    "plan_cache": {
        "size": "count",
        "capacity": "count",
        "hits": "count",
        "misses": "count",
        "single_flight_waits": "count",
        "evictions": "count",
        "invalidations": "count",
        "feedback_writes": "count",
        "feedback_hits": "count",
    },
    "telemetry": {
        "recorded_total": "count",
        "slow_total": "count",
        "slow_queries_total": "count",
        "store_segments": "count",
    },
    "storage": {
        "backend": "string",
        "total_bytes": "count",
        "table_count": "count",
        "kernel_plan_bytes": "count",
    },
}

#: Engine names the server may report in the ``engines`` section (the
#: per-query ``ExecutionStats.engine`` values).
KNOWN_ENGINES = {"scalar", "vector", "vector-adaptive"}

#: Sections whose body is a list of objects (one entry per item).
LIST_SCHEMA = {
    "per_session": {
        "session": "string",
        "submitted": "count",
        "completed": "count",
        "rejected": "count",
        "queued": "count",
        "in_flight": "count",
    },
    "per_table": {
        "table": "string",
        "backend": "string",
        "rows": "count",
        "bytes": "count",
        "kernel_bytes": "count",
    },
}


class ValidationError(Exception):
    pass


def check_type(path: str, value, kind: str) -> None:
    if kind == "bool":
        if not isinstance(value, bool):
            raise ValidationError(f"{path}: expected bool, got {value!r}")
        return
    if kind == "string":
        if not isinstance(value, str) or not value:
            raise ValidationError(
                f"{path}: expected non-empty string, got {value!r}"
            )
        return
    if kind == "number_or_null":
        if value is None:
            return
        kind = "number"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected number, got {value!r}")
    if kind == "count" and value < 0:
        raise ValidationError(f"{path}: counter is negative ({value})")


def validate(stats: dict) -> list[str]:
    """Raises ValidationError on the first violation; returns notes."""
    if not isinstance(stats, dict):
        raise ValidationError(f"stats document is not an object: {stats!r}")
    extra_sections = set(stats) - set(SCHEMA) - set(LIST_SCHEMA) - {"engines"}
    if extra_sections:
        raise ValidationError(f"unknown sections: {sorted(extra_sections)}")
    engines = stats.get("engines")
    if not isinstance(engines, dict):
        raise ValidationError("missing/invalid section 'engines'")
    for name, value in engines.items():
        if name not in KNOWN_ENGINES:
            raise ValidationError(f"engines: unknown engine {name!r}")
        check_type(f"engines.{name}", value, "count")
    for section, fields in SCHEMA.items():
        body = stats.get(section)
        if not isinstance(body, dict):
            raise ValidationError(f"missing/invalid section {section!r}")
        missing = set(fields) - set(body)
        if missing:
            raise ValidationError(f"{section}: missing keys {sorted(missing)}")
        extra = set(body) - set(fields)
        if extra:
            raise ValidationError(f"{section}: unknown keys {sorted(extra)}")
        for key, kind in fields.items():
            check_type(f"{section}.{key}", body[key], kind)
    for section, fields in LIST_SCHEMA.items():
        body = stats.get(section)
        if not isinstance(body, list):
            raise ValidationError(f"missing/invalid list section {section!r}")
        for index, entry in enumerate(body):
            path = f"{section}[{index}]"
            if not isinstance(entry, dict):
                raise ValidationError(f"{path}: expected object, got {entry!r}")
            missing = set(fields) - set(entry)
            if missing:
                raise ValidationError(f"{path}: missing keys {sorted(missing)}")
            extra = set(entry) - set(fields)
            if extra:
                raise ValidationError(f"{path}: unknown keys {sorted(extra)}")
            for key, kind in fields.items():
                check_type(f"{path}.{key}", entry[key], kind)

    admission = stats["admission"]
    if admission["in_flight"] > admission["max_concurrency"]:
        raise ValidationError(
            "admission.in_flight exceeds max_concurrency "
            f"({admission['in_flight']} > {admission['max_concurrency']})"
        )
    if admission["queue_depth"] > admission["max_queue_depth"]:
        raise ValidationError(
            "admission.queue_depth exceeds max_queue_depth "
            f"({admission['queue_depth']} > {admission['max_queue_depth']})"
        )

    server = stats["server"]
    if server["engines_live"] > admission["max_concurrency"]:
        raise ValidationError(
            f"server.engines_live exceeds admission.max_concurrency "
            f"({server['engines_live']} > {admission['max_concurrency']})"
        )

    latency = stats["latency_ms"]
    quantiles = [latency["p50"], latency["p95"], latency["p99"]]
    present = [q for q in quantiles if q is not None]
    if len(present) not in (0, 3):
        raise ValidationError("latency quantiles must be all-present or all-null")
    if present and not (present[0] <= present[1] <= present[2]):
        raise ValidationError(
            f"latency quantiles not monotone: p50={present[0]} "
            f"p95={present[1]} p99={present[2]}"
        )
    if latency["count"] == 0 and present:
        raise ValidationError("latency quantiles present with zero count")

    # The section sums the engine processes' caches (each a fork of the
    # Database's own); the event loop keeps none.
    cache = stats["plan_cache"]
    if cache["size"] > cache["capacity"]:
        raise ValidationError(
            f"plan_cache.size exceeds capacity "
            f"({cache['size']} > {cache['capacity']})"
        )
    if cache["capacity"] == 0 and (
        cache["hits"] or cache["single_flight_waits"] or cache["evictions"]
        or cache["feedback_writes"] or cache["feedback_hits"]
    ):
        raise ValidationError(
            "plan_cache: capacity 0 (off) yet it reports hits, waits, "
            "evictions or plan feedback"
        )
    # Feedback is read on a hit only (one lookup serves both).
    if cache["feedback_hits"] > cache["hits"]:
        raise ValidationError(
            f"plan_cache.feedback_hits exceeds hits "
            f"({cache['feedback_hits']} > {cache['hits']})"
        )

    queries = stats["queries"]
    outcomes = (
        queries["ok_total"] + queries["budget_exceeded_total"]
        + queries["cancelled_total"] + queries["sql_error_total"]
        + queries["internal_error_total"]
    )
    if latency["count"] < outcomes:
        raise ValidationError(
            f"latency count {latency['count']} < recorded outcomes {outcomes}"
        )
    if len(stats["per_session"]) != stats["server"]["sessions"]:
        raise ValidationError(
            f"per_session has {len(stats['per_session'])} entries but "
            f"server.sessions is {stats['server']['sessions']}"
        )
    telemetry = stats["telemetry"]
    if telemetry["slow_total"] > telemetry["recorded_total"]:
        raise ValidationError(
            "telemetry.slow_total exceeds recorded_total "
            f"({telemetry['slow_total']} > {telemetry['recorded_total']})"
        )
    storage = stats["storage"]
    per_table = stats["per_table"]
    table_bytes = sum(entry["bytes"] for entry in per_table)
    if storage["total_bytes"] != table_bytes:
        raise ValidationError(
            f"storage.total_bytes {storage['total_bytes']} != sum of "
            f"per_table bytes {table_bytes}"
        )
    if storage["table_count"] != len(per_table):
        raise ValidationError(
            f"storage.table_count {storage['table_count']} != "
            f"{len(per_table)} per_table entries"
        )
    for entry in per_table:
        if entry["backend"] != storage["backend"]:
            raise ValidationError(
                f"per_table entry {entry['table']!r} backend "
                f"{entry['backend']!r} != storage.backend "
                f"{storage['backend']!r}"
            )
    if sum(engines.values()) > outcomes:
        raise ValidationError(
            f"engines counters sum to {sum(engines.values())} but only "
            f"{outcomes} outcomes were recorded"
        )
    return [
        f"uptime {stats['server']['uptime_s']}s",
        f"{int(server['engines_live'])} engines",
        f"{int(outcomes)} queries",
        f"{int(admission['accepted_total'])} accepted",
        f"cache {int(cache['hits'])}h/{int(cache['misses'])}m",
        f"storage {storage['backend']} {int(storage['total_bytes']):,}B"
        f"/{int(storage['table_count'])} tables",
        "engines "
        + (
            ", ".join(
                f"{name}={int(engines[name])}" for name in sorted(engines)
            )
            or "none"
        ),
    ]


async def fetch_stats(host: str, port: int) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(b'{"op": "stats", "id": "validate"}\n')
        await writer.drain()
        line = await reader.readline()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    response = json.loads(line)
    if response.get("status") != "ok":
        raise ValidationError(f"stats op failed: {response!r}")
    if response.get("id") != "validate":
        raise ValidationError(f"stats response id mismatch: {response.get('id')!r}")
    return response["stats"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7654)
    parser.add_argument(
        "--file",
        default=None,
        help="validate a saved stats JSON document instead of a live server",
    )
    parser.add_argument(
        "--expect-engine",
        default=None,
        choices=sorted(KNOWN_ENGINES),
        help="additionally require at least one query served by this engine",
    )
    args = parser.parse_args()
    try:
        if args.file:
            with open(args.file, "r", encoding="utf-8") as handle:
                stats = json.load(handle)
        else:
            stats = asyncio.run(fetch_stats(args.host, args.port))
        notes = validate(stats)
        if args.expect_engine is not None:
            served = stats.get("engines", {}).get(args.expect_engine, 0)
            if not served:
                raise ValidationError(
                    f"expected engine {args.expect_engine!r} to have served "
                    f"queries, engines={stats.get('engines')!r}"
                )
    except ValidationError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError) as error:
        print(f"FAIL: could not fetch/parse stats: {error!r}", file=sys.stderr)
        return 1
    print("PASS: " + ", ".join(notes))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
