#!/usr/bin/env python3
"""Load generator for the query server: N clients, mixed DMV templates.

Opens ``--clients`` concurrent NDJSON connections against a live server
(start one with ``python -m repro serve``) and fires the four-table DMV
workload templates at it for ``--duration`` seconds, then prints a
throughput/latency report and judges the run:

* **zero protocol errors** — every response line parses, every response
  carries a known status and echoes a request id we sent;
* **no lost responses** — every request is answered (ok or a typed
  error) before the connection closes;
* **bounded rejection rate** — explicit load-shedding
  (``REJECTED_OVERLOAD`` / ``RATE_LIMITED``) may not exceed
  ``--max-reject-rate`` of all requests (the server is allowed to shed,
  not to melt);
* at least one successful query per client.

Exit code 0 when all hold, 1 with a loud report otherwise. Stdlib-only
client (the DMV SQL text is inlined via repro.dmv.templates, which needs
``PYTHONPATH=src``).

Usage::

    PYTHONPATH=src python -m repro serve --scale 0.01 --port 7654 &
    PYTHONPATH=src python scripts/load_gen.py --port 7654 --clients 8 \
        --duration 20s
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from repro.dmv.templates import four_table_workload

OK_CODES = {"REJECTED_OVERLOAD", "RATE_LIMITED"}  # load signals, not failures


def parse_duration(text: str) -> float:
    text = text.strip().lower()
    if text.endswith("s"):
        text = text[:-1]
    value = float(text)
    if value <= 0:
        raise ValueError("duration must be positive")
    return value


class ClientStats:
    def __init__(self) -> None:
        self.sent = 0
        self.ok = 0
        self.rejected = 0
        self.errors = 0          # typed errors that are real failures
        self.protocol_errors = 0
        self.latencies_ms: list[float] = []


async def run_client(
    index: int,
    host: str,
    port: int,
    queries: list[str],
    deadline: float,
    stats: ClientStats,
    pipeline: int,
) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    in_flight: dict[int, float] = {}
    next_id = index * 1_000_000
    cursor = index  # stagger template order across clients
    try:
        while time.perf_counter() < deadline or in_flight:
            expired = time.perf_counter() >= deadline
            while not expired and len(in_flight) < pipeline:
                sql = queries[cursor % len(queries)]
                cursor += 1
                next_id += 1
                request = {"op": "query", "id": next_id, "sql": sql}
                writer.write((json.dumps(request) + "\n").encode())
                in_flight[next_id] = time.perf_counter()
                stats.sent += 1
            await writer.drain()
            if not in_flight:
                continue
            line = await reader.readline()
            if not line:
                stats.protocol_errors += len(in_flight)
                return
            try:
                response = json.loads(line)
            except json.JSONDecodeError:
                stats.protocol_errors += 1
                continue
            started = in_flight.pop(response.get("id"), None)
            if started is None:
                stats.protocol_errors += 1
                continue
            stats.latencies_ms.append((time.perf_counter() - started) * 1e3)
            status = response.get("status")
            if status == "ok":
                stats.ok += 1
            elif status == "error":
                if response.get("code") in OK_CODES:
                    stats.rejected += 1
                else:
                    stats.errors += 1
                    print(
                        f"client {index}: error response "
                        f"{response.get('code')}: {response.get('error')}",
                        file=sys.stderr,
                    )
            else:
                stats.protocol_errors += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def percentile(values: list[float], q: float) -> float:
    if not values:
        return float("nan")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


async def main_async(args: argparse.Namespace) -> int:
    queries = [item.sql for item in four_table_workload(
        queries_per_template=args.queries_per_template
    )]
    duration = parse_duration(args.duration)
    per_client = [ClientStats() for _ in range(args.clients)]
    deadline = time.perf_counter() + duration
    started = time.perf_counter()
    await asyncio.gather(*(
        run_client(
            i, args.host, args.port, queries, deadline, per_client[i],
            args.pipeline,
        )
        for i in range(args.clients)
    ))
    elapsed = time.perf_counter() - started

    sent = sum(s.sent for s in per_client)
    ok = sum(s.ok for s in per_client)
    rejected = sum(s.rejected for s in per_client)
    errors = sum(s.errors for s in per_client)
    protocol_errors = sum(s.protocol_errors for s in per_client)
    latencies = [ms for s in per_client for ms in s.latencies_ms]
    answered = ok + rejected + errors

    print(f"clients:          {args.clients} (pipeline {args.pipeline})")
    print(f"duration:         {elapsed:.1f}s")
    print(f"requests sent:    {sent}")
    print(f"ok:               {ok} ({ok / max(elapsed, 1e-9):.1f} qps)")
    print(f"rejected (shed):  {rejected}")
    print(f"error responses:  {errors}")
    print(f"protocol errors:  {protocol_errors}")
    if latencies:
        print(
            f"latency ms:       p50 {percentile(latencies, 0.50):.1f}  "
            f"p95 {percentile(latencies, 0.95):.1f}  "
            f"p99 {percentile(latencies, 0.99):.1f}  "
            f"max {max(latencies):.1f}"
        )

    failures: list[str] = []
    if protocol_errors:
        failures.append(f"{protocol_errors} protocol error(s)")
    if errors:
        failures.append(f"{errors} non-shedding error response(s)")
    if answered != sent:
        failures.append(f"{sent - answered} request(s) never answered")
    if sent and rejected / sent > args.max_reject_rate:
        failures.append(
            f"rejection rate {rejected / sent:.1%} exceeds "
            f"{args.max_reject_rate:.1%}"
        )
    for i, s in enumerate(per_client):
        if s.ok == 0:
            failures.append(f"client {i} completed zero queries")
    if failures:
        print("\nFAIL: " + "; ".join(failures))
        return 1
    print("\nPASS")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7654)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--duration", default="10s", help="e.g. 20s (default 10s)"
    )
    parser.add_argument(
        "--pipeline",
        type=int,
        default=2,
        help="max requests in flight per client (default 2)",
    )
    parser.add_argument(
        "--queries-per-template",
        type=int,
        default=5,
        help="DMV workload size per template (default 5)",
    )
    parser.add_argument(
        "--max-reject-rate",
        type=float,
        default=0.5,
        help="maximum tolerated shed fraction of all requests (default 0.5)",
    )
    args = parser.parse_args()
    return asyncio.run(main_async(args))


if __name__ == "__main__":
    raise SystemExit(main())
