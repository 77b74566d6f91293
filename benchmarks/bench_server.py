"""Server throughput/latency benchmark: concurrent clients, real engine.

Starts an in-process :class:`~repro.server.QueryServer` over a columnar
DMV database — the configuration ``repro serve --backend columnar`` runs —
and drives it with N asyncio clients firing the four-table workload, then
reports

* throughput (queries/second) and end-to-end latency percentiles
  (p50/p95/p99, measured per request at the client),
* the server-path overhead versus executing the same statements serially
  through :meth:`Database.execute` with the configuration the server's
  admission layer applies (protocol + scheduling + one socket round trip
  to an engine process; the engines run in parallel, so where the kernel
  spreads them over the cores the factor approaches 1/min(engines, cores)
  — 1.14x at ``--requests-per-client 600`` on 2 cores, clients included
  (1.42x before the event loop relayed a query in two callbacks, one run
  each); the 90 requests of a ``--quick`` run are over before it does:
  2.0-3.0x; see CHANGES.md),
* executor wall next to end-to-end wall, both ways: the serial run's
  ``perf_counter`` around ``db.execute(db.plan(sql))`` (the optimizer's
  plan through the plan cache, never plan feedback: the baseline stays
  bare single executions while served ``mode=both`` repeats learn, so the
  factor reads a little below like-for-like) against the sum of its
  ``stats.wall_seconds`` (which starts after planning), warm (every
  statement already in the database's plan cache) and cold (the first pass
  over the statements: plan-cache misses, lazy kernel builds); and the
  served run's wall against the sum of the replies' ``stats.wall_ms``,
* the plan-cache hit rate (the stats op's section: the serial loop's
  lookups in this process plus what every engine process counted) and the
  engines that served the run.

Every response is verified: all requests must succeed and return the
serial engine's rows for that statement — a throughput number that
changes answers must fail loudly, not get recorded.

The report is stored under the ``"server"`` key of ``BENCH_speedup.json``
(other sections preserved, atomic write; a ``--check`` run reads the file
and leaves it as it is), so the serving layer's perf
trajectory rides the same stored-baseline regression report as the
executor benchmarks: a qps drop below ``REGRESSION_TOLERANCE`` of the
stored baseline prints loudly on stderr; ``--check`` additionally gates
correctness and the overhead factor.

Usage::

    PYTHONPATH=src python benchmarks/bench_server.py            # full run
    PYTHONPATH=src python benchmarks/bench_server.py --quick --check  # CI
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
import time

from repro.bench.runner import host_metadata, merge_json_atomic, read_json_object
from repro.dmv import four_table_workload, load_dmv
from repro.server import AdmissionController, QueryServer, ServerConfig
from repro.server.admission import SHED_NONE
from repro.server.protocol import QueryRequest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Stored-baseline qps may drift down by this factor before the
#: regression report fires (wall-clock noise allowance).
REGRESSION_TOLERANCE = 0.90

#: --check fails when the server path exceeds serial wall time by more
#: than this factor (protocol/scheduling overhead budget). The serial loop
#: finds every plan in the database's cache, as the server does, so the
#: factor sets the server path against bare execution: on a --quick run's
#: 0.4 ms statements the fixed cost of a request (JSON both ways, a socket
#: round trip to an engine process, two event-loop callbacks) alone makes
#: it 2.0-3.0x (five runs on a 2-vCPU host; 2.4-3.8x before the relay
#: became two callbacks, and 4.3-5.9x in other runs there). (It was 2.0
#: while the serial loop re-planned every statement and measured 1.4x.)
OVERHEAD_TOLERANCE = 4.0

#: Served rounds and serial loops, interleaved against one server; the
#: fastest of each is reported and gated (min/min, as bench_speedup.py
#: does): one --quick round is 0.15 s of wall, and a single pair of them
#: read anywhere from 2.3x to 4.6x on one host.
ROUNDS = 3


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


async def drive(
    server: QueryServer,
    workload: list[tuple[str, list]],
    clients: int,
    requests_per_client: int,
) -> tuple[list[float], list[float], list[str]]:
    """Fire the workload from *clients* connections; verify every answer.

    Returns per-request client latencies (ms), the executor wall each
    reply reports (ms), and the failures.
    """
    latencies: list[float] = []
    executor_ms: list[float] = []
    failures: list[str] = []

    async def one_client(index: int) -> None:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        try:
            for n in range(requests_per_client):
                sql, baseline = workload[(index + n) % len(workload)]
                started = time.perf_counter()
                writer.write(
                    (json.dumps({"op": "query", "id": n, "sql": sql}) + "\n")
                    .encode()
                )
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=60.0)
                latencies.append((time.perf_counter() - started) * 1e3)
                response = json.loads(line)
                if response.get("status") != "ok":
                    failures.append(
                        f"client {index} req {n}: {response.get('code')}"
                    )
                elif sorted(map(tuple, response["rows"])) != baseline:
                    failures.append(
                        f"client {index} req {n}: rows diverge on {sql[:50]}"
                    )
                else:
                    executor_ms.append(response["stats"]["wall_ms"])
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    await asyncio.gather(*(one_client(i) for i in range(clients)))
    return latencies, executor_ms, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument(
        "--requests-per-client", type=int, default=40, metavar="N"
    )
    parser.add_argument("--max-concurrency", type=int, default=4)
    parser.add_argument(
        "--queries-per-template", type=int, default=3, metavar="N"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scale and request count (CI smoke)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on any failed/diverging response or overhead "
        f"> {OVERHEAD_TOLERANCE:.1f}x serial",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_speedup.json")
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.scale = min(args.scale, 0.01)
        args.requests_per_client = min(args.requests_per_client, 15)

    print(f"loading DMV at scale {args.scale} ...", file=sys.stderr)
    db, _ = load_dmv(scale=args.scale, backend="columnar")
    statements = [
        q.sql
        for q in four_table_workload(
            queries_per_template=args.queries_per_template
        )
    ]

    config = ServerConfig(
        port=0,
        max_concurrency=args.max_concurrency,
        max_queue_depth=max(64, 4 * args.clients),
        max_queue_per_session=args.requests_per_client + 1,
    )
    # What an unshed request executes with: asked of the admission layer,
    # so the baseline cannot drift from it.
    served = AdmissionController(config).apply_shed(
        QueryRequest(sql=""), SHED_NONE
    )

    # Serial baseline: rows for verification, wall time for the overhead
    # factor over the exact request mix the clients will fire.
    # The first pass is the cold one (each statement is planned, kernels
    # are built); the timed loop after it finds every plan cached.
    workload: list[tuple[str, list]] = []
    cold_wall = cold_executor_wall = 0.0
    for sql in statements:
        started = time.perf_counter()
        result = db.execute(db.plan(sql), served)
        cold_wall += time.perf_counter() - started
        cold_executor_wall += result.stats.wall_seconds
        workload.append((sql, sorted(result.rows)))
    total_requests = args.clients * args.requests_per_client

    def serial_loop() -> tuple[float, float]:
        """(wall, executor wall) of the request mix, one after another."""
        executor_wall = 0.0
        started = time.perf_counter()
        for n in range(total_requests):
            result = db.execute(db.plan(workload[n % len(workload)][0]), served)
            executor_wall += result.stats.wall_seconds
        return time.perf_counter() - started, executor_wall

    async def run():
        server = QueryServer(db, config)
        await server.start()
        try:
            serial, rounds, failures = [], [], []
            for _ in range(ROUNDS):
                # Nothing is in flight: the loop may block for the serial run.
                serial.append(serial_loop())
                started = time.perf_counter()
                latencies, executor_ms, failed = await drive(
                    server, workload, args.clients, args.requests_per_client
                )
                rounds.append(
                    (time.perf_counter() - started, latencies, executor_ms)
                )
                failures += failed
            return min(serial), min(rounds), failures, server.stats_payload()
        finally:
            await server.shutdown(grace=2.0)

    (
        (serial_wall, serial_executor_wall),
        (wall, latencies, executor_ms),
        failures,
        stats,
    ) = asyncio.run(run())

    cache = stats["plan_cache"]
    lookups = cache["hits"] + cache["misses"] + cache["single_flight_waits"]
    section = {
        "scale": args.scale,
        "clients": args.clients,
        "max_concurrency": args.max_concurrency,
        "requests": total_requests,
        "rounds": ROUNDS,
        "wall_seconds": wall,
        "qps": total_requests / wall,
        "latency_ms": {
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "p99": percentile(latencies, 0.99),
        },
        # Sum over the replies; requests overlap, so it can exceed the wall.
        "executor_wall_seconds": sum(executor_ms) / 1e3,
        "serial_wall_seconds": serial_wall,
        "serial_executor_wall_seconds": serial_executor_wall,
        "serial_cold": {
            "statements": len(statements),
            "wall_seconds": cold_wall,
            "executor_wall_seconds": cold_executor_wall,
        },
        "server_overhead_vs_serial": wall / max(serial_wall, 1e-9),
        "plan_cache_hit_rate": (
            (cache["hits"] + cache["single_flight_waits"]) / lookups
            if lookups
            else None
        ),
        "engines": stats["engines"],
        "failures": len(failures),
        "host": host_metadata(),
    }

    print(f"requests:  {total_requests} from {args.clients} clients, "
          f"fastest of {ROUNDS} rounds")
    print(f"wall:      {wall:.2f}s server vs {serial_wall:.2f}s serial "
          f"({section['server_overhead_vs_serial']:.2f}x)")
    print(f"executor:  {section['executor_wall_seconds']:.2f}s of the served "
          f"wall, {serial_executor_wall:.2f}s of the serial wall (warm); "
          f"first pass over {len(statements)} statements "
          f"{cold_wall:.2f}s end to end, {cold_executor_wall:.2f}s executor")
    print(f"qps:       {section['qps']:.1f}")
    print(f"latency:   p50 {section['latency_ms']['p50']:.1f} ms  "
          f"p95 {section['latency_ms']['p95']:.1f} ms  "
          f"p99 {section['latency_ms']['p99']:.1f} ms")
    if section["plan_cache_hit_rate"] is not None:
        print(f"cache:     {section['plan_cache_hit_rate']:.1%} hit rate")
    print(f"engines:   {section['engines']}")

    # A check gates against the recorded baseline and leaves the file
    # alone; a recording run folds its section in, preserving the others.
    if args.check:
        old = read_json_object(args.output).get("server", {})
    else:
        old = merge_json_atomic(args.output, {"server": section}).get("server", {})
        print(f"wrote server section to {args.output}", file=sys.stderr)
    regressions: list[str] = []
    old_qps = old.get("qps")
    # Only comparable runs gate each other: same shape, full (non-quick)
    # runs recorded at the same scale and client count.
    comparable = (
        old.get("scale") == section["scale"]
        and old.get("clients") == section["clients"]
        and old.get("requests") == section["requests"]
    )
    if comparable and old_qps and section["qps"] < old_qps * REGRESSION_TOLERANCE:
        regressions.append(
            f"REGRESSION: server qps {section['qps']:.1f} < stored "
            f"baseline {old_qps:.1f} * {REGRESSION_TOLERANCE}"
        )
    for line in regressions:
        print(line, file=sys.stderr)

    if failures:
        for failure in failures[:10]:
            print(f"FAILURE: {failure}", file=sys.stderr)
        return 1
    if args.check and section["server_overhead_vs_serial"] > OVERHEAD_TOLERANCE:
        print(
            f"CHECK FAILED: server overhead "
            f"{section['server_overhead_vs_serial']:.2f}x > "
            f"{OVERHEAD_TOLERANCE:.1f}x serial",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
