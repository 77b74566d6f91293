"""The served workload: closed-loop clients of a ``repro serve`` child.

``min(2, nproc)`` connections each wait for a reply before sending the
next request. The statements are a fixed stride sample of both template
grids in modes none and both; the seed decides the order in which each
connection sends them, afresh for every cycle.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import signal
import socket
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from estimators import median, pooled_percentile
from library import ROUNDS, Trace, grid
from oracle import digest, statement_key

perf = time.perf_counter

#: Statements taken from each grid at an even stride (so every template
#: and parameter pool is represented); 20 distinct statements fit the
#: server's 256-entry plan cache.
STATEMENTS = {"four": 12, "six": 8}
MODES = ("none", "both")
CONNECTIONS = min(2, os.cpu_count() or 1)
#: p95 needs 200 samples in all.
MIN_SAMPLES = 200
READY_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 120.0
LOAD_SIGNALS = ("REJECTED_OVERLOAD", "RATE_LIMITED")
#: Stretches a round of requests is cut into, for the host-speed samples.
SLICES = 3


class ServerFailed(RuntimeError):
    """The child died, never became ready, or dropped a connection."""


def pairs() -> list[tuple[str, str]]:
    chosen = []
    for kind, count in STATEMENTS.items():
        population = grid(kind)
        chosen += [population[i * len(population) // count] for i in range(count)]
    return [(sql, mode) for sql in chosen for mode in MODES]


class ServerChild:
    """``python -m repro serve`` as a child, stopped and reaped on exit."""

    def __init__(self, scale: float, src: Path, log_path: Path) -> None:
        self.command = [
            sys.executable, "-m", "repro", "serve",
            "--backend", "columnar", "--extended", "--scale", f"{scale:g}",
            "--port", "0", "--max-concurrency", "2",
        ]
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.log_path = log_path
        self.process = None
        self.port = 0
        self.spawned_at = 0.0
        self.ready_s = 0.0

    def __enter__(self) -> "ServerChild":
        # stderr goes to a file, not a pipe: nothing has to drain it while
        # the clients run, and the "listening on" line is read from there.
        with open(self.log_path, "w") as log:
            self.spawned_at = perf()
            self.process = subprocess.Popen(
                self.command, env=self.env,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        try:
            self._wait_ready()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _wait_ready(self) -> None:
        deadline = self.spawned_at + READY_TIMEOUT_S
        while perf() < deadline:
            match = re.search(
                r"listening on [^:\s]+:(\d+)", self.log_path.read_text()
            )
            if match:
                self.port = int(match.group(1))
                self.ready_s = perf() - self.spawned_at
                return
            if self.process.poll() is not None:
                raise ServerFailed(
                    f"server exited with code {self.process.returncode} "
                    f"before listening (see {self.log_path})"
                )
            time.sleep(0.005)
        raise ServerFailed(f"server not listening after {READY_TIMEOUT_S:g} s")

    def __exit__(self, *exc_info) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024


class Client:
    """One NDJSON connection; a blocking file object has no line limit
    (asyncio's default 64 KiB reader limit would need ``limit=2**26``)."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=REPLY_TIMEOUT_S
        )
        self.stream = self.sock.makefile("rwb")

    def call(self, message: dict) -> tuple[dict, float, float, int]:
        """Reply, send time, caller-side latency (write to full reply line
        read) and reply size; the reply is parsed after the timestamp."""
        data = (json.dumps(message) + "\n").encode()
        t0 = perf()
        try:
            self.stream.write(data)
            self.stream.flush()
            line = self.stream.readline()
        except OSError as error:
            raise ServerFailed(f"connection lost: {error}") from error
        latency = perf() - t0
        if not line:
            raise ServerFailed("server closed the connection")
        return json.loads(line), t0, latency, len(line)

    def stats(self) -> dict:
        return self.call({"op": "stats"})[0]["stats"]

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


class Log:
    """What one connection saw."""

    def __init__(self) -> None:
        # Of every request: which pair it was, and its latency.
        self.pairs: list[int] = []
        self.latencies: list[float] = []
        # Of ok replies: (pair, send time, latency, reply stats, reply bytes).
        self.replies: list[tuple[int, float, float, dict, int]] = []
        self.attempted = 0
        self.failed = 0
        self.rejected = 0


def ask(client, index, pair, want, log: Log, check_digest=False) -> None:
    """Send one query; judge the reply after its latency is taken."""
    sql, mode = pair
    reply, sent, latency, size = client.call(
        {"op": "query", "sql": sql, "mode": mode}
    )
    log.attempted += 1
    log.pairs.append(index)
    log.latencies.append(latency)
    if reply.get("status") != "ok":
        log.failed += 1
        log.rejected += reply.get("code") in LOAD_SIGNALS
        return
    want_count, want_digest = want
    log.failed += reply["row_count"] != want_count or (
        check_digest and digest(reply["rows"]) != want_digest
    )
    log.replies.append((index, sent, latency, reply["stats"], size))


def warm_up(port, every_pair, expected) -> Log:
    """One connection sends every pair once; digests are checked."""
    log = Log()
    client = Client(port)
    try:
        for index, pair in enumerate(every_pair):
            ask(client, index, pair, expected[statement_key(pair[0])], log, True)
    finally:
        client.close()
    return log


class Orders:
    """What one connection sends next: cycles over the pairs without end,
    each cycle in a fresh order."""

    def __init__(self, rng: random.Random, count: int) -> None:
        self.rng, self.count = rng, count
        self.cycle: list[int] = []

    def next(self) -> int:
        if not self.cycle:
            self.cycle = self.rng.sample(range(self.count), self.count)
        return self.cycle.pop()


def drive(port, orders, every_pair, expected, seconds, min_samples) -> Log:
    """One closed-loop connection, until *seconds* have passed and
    *min_samples* replies were timed. It stops between two requests, not
    between two cycles: a cycle takes about 5 s, and whole cycles would
    leave up to half of a round unused."""
    log = Log()
    wants = [expected[statement_key(sql)] for sql, _ in every_pair]
    client = Client(port)
    try:
        deadline = perf() + seconds
        while perf() < deadline or len(log.latencies) < min_samples:
            index = orders.next()
            ask(client, index, every_pair[index], wants[index], log)
    finally:
        client.close()
    return log


def record_request(trace: Trace, sent, latency, stats) -> None:
    """``request`` -> ``server.queued``, ``server.exec``; what is left of
    the request is its self time, ``server.overhead`` (admission, thread
    hop, serialization, the socket)."""
    query_id = stats.get("query_id")
    request = trace.add("request", sent, sent + latency, None, query_id)
    queued = stats["queued_ms"] / 1e3
    trace.add("server.queued", sent, sent + queued, request, query_id)
    trace.add(
        "server.exec", sent + queued, sent + queued + stats["wall_ms"] / 1e3,
        request, query_id,
    )


def drive_all(
    port, orders, every_pair, expected, seconds, min_samples, speed
) -> list[Log]:
    """All connections at once, in SLICES stretches with the host's speed
    sampled before each, while the server idles (sampled while it works,
    the loop shares the processor with it and reads 20% slow)."""
    logs = []
    with ThreadPoolExecutor(len(orders)) as pool:
        for _ in range(SLICES):
            speed.sample(2)
            futures = [
                pool.submit(
                    drive, port, one, every_pair, expected,
                    seconds / SLICES, math.ceil(min_samples / SLICES),
                )
                for one in orders
            ]
            logs += [future.result() for future in futures]
    return logs


def connection_orders(seed: int, count: int) -> list[Orders]:
    return [
        Orders(random.Random(seed * 1000 + c), count) for c in range(CONNECTIONS)
    ]


def merge(logs) -> tuple[int, int]:
    return sum(l.attempted for l in logs), sum(l.failed for l in logs)


def run_untraced(seed, seconds, scale, expected, speed, src, out_dir) -> dict:
    """Rounds of {spawn, warm up, timed cycles}: see library.run_untraced."""
    log_path = out_dir / "served_mix.server.log"
    every_pair = pairs()
    orders = connection_orders(seed, len(every_pair))
    setup_walls, warm_ups, logs = [], [], []
    by_pair: list[list[float]] = [[] for _ in every_pair]
    peak_rss_mb = 0.0
    for _ in range(ROUNDS):
        with ServerChild(scale, src, log_path) as server:
            warm_ups.append(warm_up(server.port, every_pair, expected))
            setup_walls.append(perf() - server.spawned_at)
            timed = drive_all(
                server.port, orders, every_pair, expected, seconds / ROUNDS,
                math.ceil(MIN_SAMPLES / CONNECTIONS / ROUNDS), speed,
            )
            peak_rss_mb = max(peak_rss_mb, server.peak_rss_mb())
        for log in timed:
            for index, latency in zip(log.pairs, log.latencies):
                by_pair[index].append(latency)
        logs += timed
    attempted, failed = merge(warm_ups + logs)
    # As in the library workloads, each pair stands for its median latency;
    # a closed-loop connection completes one cycle in the sum of them, and
    # the connections' rates add. The percentiles are over all replies with
    # every pair weighing the same, as in whole cycles: the last cycle of a
    # round is cut short, and which pairs it reached is chance.
    cycle_seconds = sum(median(values) for values in by_pair)
    return {
        "metrics": {
            "queries_per_s": CONNECTIONS * len(by_pair) / cycle_seconds,
            "query_ms_p50": pooled_percentile(by_pair, 0.5) * 1e3,
            "query_ms_p95": pooled_percentile(by_pair, 0.95) * 1e3,
            "setup_s": median(setup_walls),
            "peak_rss_mb": peak_rss_mb,
        },
        "attempted": attempted,
        "failed": failed,
        "counts": {
            "pairs": len(every_pair),
            "connections": CONNECTIONS,
            "samples": sum(map(len, by_pair)),
            "setups": ROUNDS,
        },
    }


def run_traced(seed, seconds, scale, expected, speed, src, out_dir) -> dict:
    log_path = out_dir / "served_mix.server.log"
    every_pair = pairs()
    orders = connection_orders(seed, len(every_pair))
    # This many requests on end hold a whole cycle: every pair is traced.
    enough = 2 * len(every_pair) - 1
    with ServerChild(scale, src, log_path) as server:
        warm = warm_up(server.port, every_pair, expected)
        control = Client(server.port)
        try:
            untraced = drive_all(
                server.port, orders, every_pair, expected, seconds / 2, enough, speed
            )
            before = control.stats()
            traced = drive_all(
                server.port, orders, every_pair, expected, seconds / 2, enough, speed
            )
            after = control.stats()
        finally:
            control.close()
        ready_s = server.ready_s

    replies = [reply for log in traced for reply in log.replies]
    trace = Trace()
    for _, sent, latency, stats, _ in replies:
        record_request(trace, sent, latency, stats)
    own = trace.self_seconds_by_name()
    reply_stats = [stats for _, _, _, stats, _ in replies]
    # A pair's work units are the same every time it runs; one cycle's mean
    # repeats exactly, whichever pairs the cut-short last cycle reached.
    work_by_pair = {index: stats["work_units"] for index, _, _, stats, _ in replies}
    answered = len(replies)
    attempted, failed = merge([warm, *untraced, *traced])
    traced_attempted = sum(log.attempted for log in traced)
    engines = Counter(stats["engine"] for stats in reply_stats)
    ok_delta = after["queries"]["ok_total"] - before["queries"]["ok_total"]
    recorded_delta = (
        after["telemetry"]["recorded_total"]
        - before["telemetry"]["recorded_total"]
    )
    metrics = {
        "server.queued_ms_p50": median(own["server.queued"]) * 1e3,
        "server.exec_ms_p50": median(own["server.exec"]) * 1e3,
        "server.overhead_ms_p50": median(own["request"]) * 1e3,
        "server.overhead_share":
            sum(own["request"]) / sum(trace.durations("request")),
        "server.engine_vector_share": sum(
            count for engine, count in engines.items()
            if engine.startswith("vector")
        ) / answered,
        "server.engine_batched_share": engines["batched"] / answered,
        "server.plan_cache_hit_share": sum(
            stats["plan_cache"] == "hit" for stats in reply_stats
        ) / answered,
        "server.shed_share": sum(
            stats["shed"] != "none" for stats in reply_stats
        ) / answered,
        "server.rejected_share":
            sum(log.rejected for log in traced) / traced_attempted,
        "server.response_kb_p50": median(reply[4] for reply in replies) / 1024,
        "server.ready_s": ready_s,
        "obs.recorded_per_query": recorded_delta / ok_delta,
        "executor.work_units_per_query":
            sum(work_by_pair.values()) / len(work_by_pair),
        "storage.table_mb": after["storage"]["total_bytes"] / 2**20,
        "storage.kernel_plan_mb": after["storage"]["kernel_plan_bytes"] / 2**20,
        "bench.trace_overhead_share": median(
            value for log in traced for value in log.latencies
        ) / median(value for log in untraced for value in log.latencies) - 1.0,
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "counts": {
            "pairs": len(every_pair),
            "connections": CONNECTIONS,
            "traced_requests": traced_attempted,
            "engines": dict(engines),
        },
        "spans": trace.spans,
    }
