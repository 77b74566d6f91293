"""Where a warm grid pass spends its wall clock, layer by layer.

One pass is every statement of a template grid through
``Database.execute(sql, config)`` on a columnar database (the engine: what
``benchmarks/e2e`` runs). ``perf_counter`` wrappers
around the layers named in :data:`LAYERS` give each one's own milliseconds
a pass — a layer's time less that of the layers it calls
(``Database._execute_plan`` is then its own stats, meter delta and
controller set-up) — and its share of the pass; "other" is what no
wrapper covers. Two
static passes come first and are not reported (plan cache, kernels, rank
arrays). In a monitored mode the executions of a text are not alike —
the first asks at the end of its scan and writes what it learned, every
later one runs that lesson as a static plan — so executions 1 and 2+ are
reported apart, each with its checks, applied switches and the executions
that ran a learned plan, and each with its own layer table. Beside the
checks, ``us/check`` is the wall inside the controller's two hooks over
the checks (``ExecutionStats.check_seconds``: the hooks' own clock, not
a wrapper's) and ``us/learn`` the own time of ``Database._learn``
(what a first execution spends keeping its lesson) a statement. Each row
also counts the pass's inner-leg steps by how ``vector._expand`` took
them: ``unique`` gathers through a kernel no key of which has more than
one passing row (``_Kernel.unique``), ``csr`` expands, and ``total``
counts the unique steps none of whose probes can miss
(``vector._Step.total``: no hit test); ``us/step`` is ``_expand``'s time
over the unique and csr steps. The ``floor`` line gives, per
statement, the pass's time outside ``_expand`` and ``_project``: what an
execution costs beyond its join and its rows, and below it the floor's
named parts (:data:`FLOOR`: plan-cache lookup, executor build, scan and
probe install, chunk-loop frames, stats and result; the rest is the
hooks, ``_learn`` and what no wrapper covers). The wrappers cost
a few microseconds a call, so read the numbers against another run of
this script, not against an unwrapped pass. The ``bare`` line is
unwrapped: the fastest plain pass of ``Database.execute`` over the
fastest pass of what the join itself needs — each statement's driving
survivors, ``_expand`` and ``_project`` on the prepared step program of
the plan it ran, counting no flow — and their ratio. A ledger, not a
gate: no thresholds.

``--served`` times a served request instead, in-process: the 40
statement/mode pairs of the served workload (12 four-table and 8 six-table
statements at an even stride through their grids, modes none and both) go
through :func:`repro.server.server.answer` on a
:class:`~repro.server.server.DatabaseEngine` the way an engine process
answers them, and the table gives per request the time of ``execute``
(``Database.execute``), ``record`` (the flight record), ``pack``,
``reply`` (the reply payload), ``encode`` (the reply line), ``counters``
and ``header`` (the header pickle ``engine_main`` sends), each the minimum
over interleaved passes, and ``answer - execute``: what a request costs the
engine process beyond its execution, from passes that wrap nothing else.
It fails (exit 1) when a reply's rows differ from ``Database.execute``'s.
Then it starts a ``repro serve`` child (columnar, two engine processes),
sends :data:`CPU_REQUESTS` requests cycling through the same pairs over two
connections (one request in flight on each, after one warm cycle), and
prints the CPU a request (utime + stime of ``/proc/<pid>/stat``) of the
serving process — the event loop — and of each engine process.

``--memory`` is the memory ledger instead: this process's ``VmRSS`` /
``VmHWM`` after the imports, after the columnar DMV load, after the served
workload's 40 pairs run twice (what one process serving them holds) and
after a warm pass of each grid (modes none and both); the load's wall time
split into ``insert`` (validating and appending each table's batch),
``index fold`` (the indexes' refresh after each batch), ``analyze`` and
``generate`` (the rest: the generator's rows, the schema); then per index
its entries, distinct keys, the bytes of its arrays (``index.nbytes()``)
and of the kernel plan resident on it, and ``Database.storage_stats()``'s
totals. With ``--served`` it also starts a ``repro
serve`` child (columnar, two engine processes), sends the 40 pairs over
two connections, and prints the proportional set size (``Pss`` of
``/proc/<pid>/smaps_rollup``) of the server, of each engine process and of
the tree, and the tree over that one process's ``VmRSS``.

Usage::

    PYTHONPATH=src python scripts/layer_times.py --grid six --mode none
    PYTHONPATH=src python scripts/layer_times.py --grid four --mode monitor
    PYTHONPATH=src python scripts/layer_times.py --served --scale 0.1
    PYTHONPATH=src python scripts/layer_times.py --memory --served --scale 0.1
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import re
import signal
import socket
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter

from repro import AdaptiveConfig, Database, ReorderMode
from repro.catalog.catalog import Catalog
from repro.core.controller import AdaptationController
from repro.dmv import four_table_workload, load_dmv, six_table_workload
from repro.executor import batch, pipeline, vector
from repro.executor.batch import BatchedPipelineExecutor
from repro.executor.pipeline import PipelineRun
from repro.obs.recorder import FlightRecorder
from repro.robustness.limits import SharedCancellationToken
from repro.server import server
from repro.server.admission import ServerConfig
from repro.server.server import DatabaseEngine, answer
from repro.storage.columnar import ColumnarIndex, ColumnarTable
from repro.storage.counters import WorkMeter

LAYERS = [
    (Database, "execute"),
    (Database, "_plan_sql"),
    (Database, "_execute_plan"),
    (Database, "_learn"),
    (pipeline, "_prepare"),
    (pipeline, "memo_step"),
    (PipelineRun, "__init__"),
    (PipelineRun, "_adapting"),
    (PipelineRun, "_accounted"),
    (PipelineRun, "_drive"),
    (PipelineRun, "_install_probes"),
    (BatchedPipelineExecutor, "__init__"),
    (BatchedPipelineExecutor, "_open_scan"),
    (BatchedPipelineExecutor, "_collect"),
    (vector, "assemble"),
    (vector, "_driving_walk"),
    (batch, "_driving_walk"),
    (vector, "_expand"),
    (vector, "_project"),
    (AdaptationController, "on_suffix_depleted"),
    (AdaptationController, "on_pipeline_depleted"),
]

#: The floor's named parts: the layers whose own time each one is.
#: ``_collect`` iterates the chunk generator (``vector.cascade``: its
#: start, the driving walk and the chunk loop), so its own time is theirs
#: less ``_expand`` / ``_project`` and the other layers they call. Probe
#: install is the step memo's lookups and the probes and steps it builds
#: on a miss (``memo_step``), what a primitive installs with them
#: (``_install_probes``) and the step programs assembled from them, for a
#: prepared record as for a change a check applied (``assemble``); the
#: scan part is a monitored run's driving walks, each started, resumed
#: (``_drive``) or built for a leg that starts to drive (``_open_scan``;
#: ``batch._driving_walk``, the name the engine calls it by), beside the
#: plan's own built with its record (``vector._driving_walk``). The executor build is the run shared by both
#: machines (``PipelineRun.__init__``), the engine's own (its slim legs and
#: registry, ``_adapting``) and the plan's record (``_prepare``).
FLOOR = {
    "plan-cache lookup": ["Database._plan_sql"],
    "executor build": [
        "PipelineRun.__init__",
        "PipelineRun._adapting",
        "BatchedPipelineExecutor.__init__",
        "pipeline._prepare",
    ],
    "scan and probe install": [
        "PipelineRun._drive",
        "BatchedPipelineExecutor._open_scan",
        "PipelineRun._install_probes",
        "pipeline.memo_step",
        "vector.assemble",
        "vector._driving_walk",
        "batch._driving_walk",
    ],
    "chunk-loop frames": ["BatchedPipelineExecutor._collect"],
    "stats and result": [
        "Database.execute",
        "Database._execute_plan",
        "PipelineRun._accounted",
    ],
}

#: ``--mode`` values.
MODES = {
    "none": ReorderMode.NONE,
    "monitor": ReorderMode.MONITOR_ONLY,
    "inner": ReorderMode.INNER_ONLY,
    "driving": ReorderMode.DRIVING_ONLY,
    "both": ReorderMode.BOTH,
}


def timed(function, spent: dict, name: str, inside: list):
    """*function* charging its own time to ``spent[name]``: *inside* holds,
    per wrapped call in progress, the time its wrapped callees took."""

    def wrapper(*args, **kwargs):
        inside.append(0.0)
        start = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            took = perf_counter() - start
            spent[name] += took - inside.pop()
            if inside:
                inside[-1] += took

    return wrapper


def counted(expand, steps: list):
    """*expand* adding each call's inner-leg steps to ``steps[kernel.unique]``
    and its total steps (:attr:`vector._Step.total`) to ``steps[2]``
    (outside ``_expand``'s own timer: the enclosing layer pays the count)."""

    def wrapper(meter, program, *args):
        for step in program:
            steps[step.kernel.unique] += 1
            steps[2] += step.total
        return expand(meter, program, *args)

    return wrapper


def bare_pass(plans: list) -> float:
    """Seconds of what the join itself needs over *plans* (each run
    before, so its prepared record is built): driving survivors,
    ``_expand`` and ``_project`` on the record's cascade start, charging a
    private meter and counting no flow."""
    meter = WorkMeter()
    runs = []
    for plan in plans:
        program, walk, takers = plan.__dict__["_prepared"].cascade
        runs.append((walk.restarted(meter), program, takers))
    start = perf_counter()
    for walk, program, takers in runs:
        survivors = walk.take(vector.STATIC_SLICE_ROWS)
        ancestors, flow = vector._expand(meter, program, None, survivors, set())
        if flow:
            vector._project(takers, ancestors, flow)
    return perf_counter() - start


def print_layers(title: str, passes: list) -> None:
    """Min / median ms a pass per layer, and its share of the fastest."""
    best = min(passes, key=lambda layers: layers["pass"])
    print(f"{title:<42}{'min ms':>9}{'median ms':>11}{'share':>8}")
    for label in best:
        low = min(layers[label] for layers in passes)
        mid = median(layers[label] for layers in passes)
        share = best[label] / best["pass"]
        print(f"{label:<42}{low * 1e3:>9.1f}{mid * 1e3:>11.1f}{share:>8.1%}")


def grid_sqls(grid: str) -> list[str]:
    workload = (
        four_table_workload(queries_per_template=10**9)
        if grid == "four"
        else six_table_workload(count=10**9)
    )
    return [query.sql for query in workload]


#: The served workload's statements: this many from each grid, at an even
#: stride, each in modes none and both.
SERVED = {"four": 12, "six": 8}

#: Served-request steps: (owner, attribute, label).
SERVED_STEPS = [
    (FlightRecorder, "build_record", "record"),
    (FlightRecorder, "pack", "pack"),
    (server, "ok_response", "reply"),
    (server, "encode_response", "encode"),
    (DatabaseEngine, "counters", "counters"),
]


def served(args) -> int:
    """The ``--served`` table; 1 when a reply's rows are not
    ``Database.execute``'s."""
    pairs = served_pairs()
    db, _ = load_dmv(scale=args.scale, extended=True, backend="columnar")
    server_config = ServerConfig()
    engine = DatabaseEngine(db, server_config)
    engine.prepare_fork()
    token = SharedCancellationToken()
    budgets = (
        server_config.default_max_rows,
        server_config.max_work_units,
        server_config.default_timeout_ms / 1000.0,
    )
    context = {"session": "session-1", "shed": "none", "queued_ms": 0.0}

    def request(index: int) -> tuple:
        sql, mode = pairs[index]
        return (sql, mode, budgets, index, context)

    spent: dict[str, float] = {"execute": 0.0}
    inside: list[float] = []
    execute = db.execute
    db.execute = timed(execute, spent, "execute", inside)
    originals = [getattr(owner, name) for owner, name, _ in SERVED_STEPS]

    def wrap_steps(on: bool) -> None:
        for (owner, name, label), function in zip(SERVED_STEPS, originals):
            spent.setdefault(label, 0.0)
            if on:
                function = timed(function, spent, label, inside)
            setattr(owner, name, function)

    # Three executions of every pair: a text's first monitored run in a
    # mode learns, the runs after it run the lesson.
    for _ in range(3):
        for index in range(len(pairs)):
            answer(engine, request(index), token)
    mismatched = 0
    for index, (sql, mode) in enumerate(pairs):
        _, line = answer(engine, request(index), token)
        rows = execute(sql, AdaptiveConfig(mode=ReorderMode(mode))).rows
        want = json.loads(json.dumps([list(row) for row in rows], default=str))
        mismatched += json.loads(line)["rows"] != want

    # best[step][pair]: the pair's fastest time for the step over passes.
    best: dict[str, list[float]] = {}

    def keep(label: str, index: int, seconds: float) -> None:
        row = best.setdefault(label, [float("inf")] * len(pairs))
        row[index] = min(row[index], seconds)

    for number in range(2 * args.passes):
        stepped = number % 2 == 1
        wrap_steps(stepped)
        shift = number // 2
        for offset in range(len(pairs)):
            index = (offset + shift) % len(pairs)
            for label in spent:
                spent[label] = 0.0
            start = perf_counter()
            header, _ = answer(engine, request(index), token)
            took = perf_counter() - start
            if not stepped:
                keep("answer", index, took)
                keep("answer - execute", index, took - spent["execute"])
                continue
            start = perf_counter()
            pickle.dumps(header, pickle.HIGHEST_PROTOCOL)
            keep("header", index, perf_counter() - start)
            for label, seconds in spent.items():
                keep(label, index, seconds)
    wrap_steps(False)

    print(
        f"served pairs through answer(), scale {args.scale}: {len(pairs)} "
        f"requests, {args.passes} passes; per request, the mean over the "
        "requests of each one's fastest pass"
    )
    print(f"{'step':<20}{'us':>9}")
    labels = ["execute"] + [label for _, _, label in SERVED_STEPS]
    for label in labels + ["header", "answer", "answer - execute"]:
        row = best[label]
        print(f"{label:<20}{sum(row) / len(row) * 1e6:>9.1f}")
    print(
        f"rows: {len(pairs) - mismatched} of {len(pairs)} replies match "
        "Database.execute"
    )
    served_cpu(args.scale)
    return 1 if mismatched else 0


def proc_kb(pid: int | str, name: str, field: str) -> int:
    """A ``kB`` field of ``/proc/<pid>/<name>``."""
    text = Path(f"/proc/{pid}/{name}").read_text()
    return int(re.search(rf"^{field}:\s+(\d+) kB", text, re.M).group(1))


def print_rss(label: str) -> int:
    """Print and return this process's ``VmRSS`` (kB)."""
    rss, hwm = (proc_kb("self", "status", field) for field in ("VmRSS", "VmHWM"))
    print(f"{label:<34}{rss / 1024:>9.1f}{hwm / 1024:>9.1f}")
    return rss


def served_pairs() -> list[tuple[str, str]]:
    """The served workload's (statement, mode) pairs."""
    chosen = []
    for grid, count in SERVED.items():
        population = grid_sqls(grid)
        chosen += [population[i * len(population) // count] for i in range(count)]
    return [(sql, mode) for sql in chosen for mode in ("none", "both")]


#: The DMV load's layers: (owner, attribute, label). What none of them
#: covers is ``generate``.
LOAD_LAYERS = [
    (ColumnarTable, "insert_many", "insert"),
    (ColumnarIndex, "refresh", "index fold"),
    (Catalog, "analyze", "analyze"),
]


def timed_load(scale: float) -> tuple[Database, dict[str, float]]:
    """The columnar extended DMV, and its load's seconds per layer."""
    spent = {label: 0.0 for _, _, label in LOAD_LAYERS}
    inside: list[float] = []
    originals = []
    for owner, name, label in LOAD_LAYERS:
        function = getattr(owner, name)
        originals.append((owner, name, function))
        setattr(owner, name, timed(function, spent, label, inside))
    try:
        start = perf_counter()
        db, _ = load_dmv(scale=scale, extended=True, backend="columnar")
        total = perf_counter() - start
    finally:
        for owner, name, function in originals:
            setattr(owner, name, function)
    return db, {"generate": total - sum(spent.values()), **spent, "total": total}


def memory(args) -> int:
    """The ``--memory`` ledger."""
    print(f"{'this process (MB)':<34}{'VmRSS':>9}{'VmHWM':>9}")
    print_rss("after the imports")
    db, load = timed_load(args.scale)
    print_rss(f"after the DMV load (scale {args.scale:g})")
    # What one process serving the served pairs holds: the tree's yardstick.
    for _ in range(2):
        for sql, mode in served_pairs():
            db.execute(sql, AdaptiveConfig(mode=ReorderMode(mode)))
    single = print_rss("after the served pairs, twice")
    for grid in ("six", "four"):
        for mode in ("none", "both"):
            config = AdaptiveConfig(mode=ReorderMode(mode))
            for sql in grid_sqls(grid):
                db.execute(sql, config)
        print_rss(f"after a warm {grid}-table pass")
    print(f"\n{'DMV load':<34}{'ms':>9}{'share':>9}")
    for label, seconds in load.items():
        print(f"{label:<34}{seconds * 1e3:>9.1f}{seconds / load['total']:>9.1%}")
    print(
        f"\n{'index':<26}{'entries':>9}{'keys':>8}{'index KB':>10}"
        f"{'kernel KB':>11}"
    )
    for name in db.catalog.table_names():
        for index in db.catalog.indexes_of(name).values():
            print(
                f"{index.name:<26}{len(index):>9,d}"
                f"{index.distinct_key_count():>8,d}{index.nbytes() / 1024:>10.1f}"
                f"{index.kernel_footprint() / 1024:>11.1f}"
            )
    stats = db.storage_stats()
    print(
        "storage_stats (MB): tables "
        f"{stats['total_bytes'] / 2**20:.2f}, indexes "
        f"{stats['index_bytes'] / 2**20:.2f}, kernel plan "
        f"{stats['kernel_plan_bytes'] / 2**20:.2f}"
    )
    if args.served:
        tree = served_pss(args.scale)
        print(
            f"tree / this process after the served pairs: "
            f"{tree / single:.2f}x ({single / 1024:.1f} MB)"
        )
    return 0


@contextmanager
def serve_child(scale: float):
    """A ``repro serve`` child (columnar, two engine processes); yields
    its pid and port, and drains it with SIGTERM on the way out."""
    command = [
        sys.executable, "-m", "repro", "serve", "--backend", "columnar",
        "--extended", "--scale", f"{scale:g}", "--port", "0",
        "--max-concurrency", "2",
    ]
    child = subprocess.Popen(
        command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )
    try:
        for line in child.stderr:
            match = re.search(r"listening on [^:\s]+:(\d+)", line)
            if match:
                break
        else:
            raise SystemExit(f"server exited with code {child.wait()}")
        # Keep draining the log, so the server never blocks writing it.
        threading.Thread(target=child.stderr.read, daemon=True).start()
        yield child.pid, int(match.group(1))
    finally:
        child.send_signal(signal.SIGTERM)
        try:
            child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()


def send_orders(port: int, orders: list[list]) -> None:
    """Each order of (statement, mode) pairs over a connection of its own,
    all at once, one request in flight a connection; exits when a reply is
    not ok."""
    failed: list = []

    def send_all(order: list) -> None:
        with socket.create_connection(("127.0.0.1", port)) as sock:
            stream = sock.makefile("rwb")
            for sql, mode in order:
                message = {"op": "query", "sql": sql, "mode": mode}
                stream.write((json.dumps(message) + "\n").encode())
                stream.flush()
                reply = json.loads(stream.readline())
                if reply.get("status") != "ok":
                    failed.append(reply)

    clients = [threading.Thread(target=send_all, args=(o,)) for o in orders]
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    if failed:
        raise SystemExit(f"{len(failed)} served queries failed: {failed[0]}")


def engine_pids(pid: int) -> list[int]:
    return [
        int(child)
        for child in Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    ]


def served_pss(scale: float) -> int:
    """Tree PSS (kB) of a ``repro serve`` child after the served pairs."""
    pairs = served_pairs()
    with serve_child(scale) as (pid, port):
        send_orders(port, [pairs, pairs[::-1]])
        server_pss = proc_kb(pid, "smaps_rollup", "Pss")
        engines = [proc_kb(e, "smaps_rollup", "Pss") for e in engine_pids(pid)]
    print(
        f"\nserved tree PSS after {len(pairs)} pairs x 2 connections "
        f"(MB): server {server_pss / 1024:.1f}, engines "
        + " / ".join(f"{kb / 1024:.1f}" for kb in engines)
        + f", tree {(server_pss + sum(engines)) / 1024:.1f}"
    )
    return server_pss + sum(engines)


#: Requests the served CPU ledger times, over two connections, after one
#: warm cycle of the served pairs on each.
CPU_REQUESTS = 4000


def cpu_ticks(pid: int) -> tuple[int, int]:
    """``(utime, stime)`` of ``/proc/<pid>/stat``, in clock ticks."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return int(fields[11]), int(fields[12])


def served_cpu(scale: float) -> None:
    """CPU per request of a ``repro serve`` child's processes: the serving
    process (the event loop) and each engine, over :data:`CPU_REQUESTS`
    requests cycling through the served pairs on two connections."""
    pairs = served_pairs()
    per_connection = CPU_REQUESTS // 2
    cycles = -(-per_connection // len(pairs))
    orders = [
        (pairs * cycles)[:per_connection],
        (pairs[::-1] * cycles)[:per_connection],
    ]
    with serve_child(scale) as (pid, port):
        send_orders(port, [pairs, pairs[::-1]])
        processes = [("server", pid)] + [
            (f"engine {number}", engine)
            for number, engine in enumerate(engine_pids(pid))
        ]
        before = [cpu_ticks(p) for _, p in processes]
        start = perf_counter()
        send_orders(port, orders)
        wall = perf_counter() - start
        after = [cpu_ticks(p) for _, p in processes]
    tick_us = 1e6 / os.sysconf("SC_CLK_TCK")
    requests = 2 * per_connection
    print(
        f"\nserved CPU per request, {requests} requests over 2 connections "
        f"(scale {scale:g}, {requests / wall:,.0f} requests/s; "
        "/proc/<pid>/stat, one tick = "
        f"{tick_us / requests:.1f} us a request)"
    )
    print(f"{'process':<20}{'user us':>9}{'sys us':>9}{'total us':>10}")
    for (name, _), (user0, sys0), (user1, sys1) in zip(
        processes, before, after
    ):
        user = (user1 - user0) * tick_us / requests
        system = (sys1 - sys0) * tick_us / requests
        print(f"{name:<20}{user:>9.1f}{system:>9.1f}{user + system:>10.1f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", choices=("four", "six"), default="six")
    parser.add_argument("--mode", choices=tuple(MODES), default="none")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--passes", type=int, default=9)
    parser.add_argument("--served", action="store_true")
    parser.add_argument("--memory", action="store_true")
    args = parser.parse_args()
    if args.memory:
        sys.exit(memory(args))
    if args.served:
        sys.exit(served(args))

    sqls = grid_sqls(args.grid)
    config = AdaptiveConfig(mode=MODES[args.mode])
    db, _ = load_dmv(scale=args.scale, extended=True, backend="columnar")
    spent: dict[str, float] = {}
    inside: list[float] = []
    originals = [(owner, name, getattr(owner, name)) for owner, name in LAYERS]
    for owner, name, function in originals:
        label = f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"
        spent[label] = 0.0
        setattr(owner, name, timed(function, spent, label, inside))
    steps = [0, 0, 0]  # inner-leg steps: [csr, unique, of them total]
    vector._expand = counted(vector._expand, steps)
    plans: list = []  # the plans the last pass ran, for the bare line

    def one_pass(config) -> tuple[dict, tuple]:
        """``({layer: seconds}, (rows, checks, switches, learned runs,
        unique steps, csr steps, total steps, check seconds))``."""
        for label in spent:
            spent[label] = 0.0
        steps[:] = [0, 0, 0]
        rows = checks = switches = learned = 0
        check_seconds = 0.0
        plans.clear()
        start = perf_counter()
        for sql in sqls:
            result = db.execute(sql, config)
            plans.append(result.plan)
            rows += len(result.rows)
            checks += result.stats.inner_checks + result.stats.driving_checks
            check_seconds += result.stats.check_seconds
            switches += result.stats.total_switches
            learned += result.stats.plan_feedback is not None
        wall = perf_counter() - start
        layers = {**spent, "other": wall - sum(spent.values()), "pass": wall}
        return layers, (
            rows, checks, switches, learned, steps[1], steps[0], steps[2],
            check_seconds,
        )

    for _ in range(2):
        one_pass(AdaptiveConfig(mode=ReorderMode.NONE))
    learning = 1 if config.mode.monitors else 0
    measured = [one_pass(config) for _ in range(args.passes + learning)]
    warm = measured[learning:]
    fastest = min(warm, key=lambda one: one[0]["pass"])
    print(
        f"{args.grid}-table grid, mode {args.mode}, scale {args.scale}: "
        f"{len(sqls)} statements, {fastest[1][0]} rows a pass, "
        f"{len(warm)} warm passes"
    )
    hooks = [label for label in spent if ".on_" in label]
    print(
        f"{'execution':<12}{'pass ms':>9}{'hooks ms':>10}{'_expand ms':>12}"
        f"{'checks':>8}{'us/check':>10}{'us/learn':>10}{'switches':>10}"
        f"{'learned':>9}{'unique':>8}{'csr':>7}{'total':>7}{'us/step':>9}"
    )
    names = [str(number + 1) for number in range(learning)] + [f"{learning + 1}+"]
    shown = list(zip(names, measured[:learning] + [fastest]))
    for name, (layers, counts) in shown:
        _, checks, switches, learned, unique, csr, total, check_seconds = counts
        expand = layers["vector._expand"]
        print(
            f"{name:<12}{layers['pass'] * 1e3:>9.1f}"
            f"{sum(layers[label] for label in hooks) * 1e3:>10.1f}"
            f"{expand * 1e3:>12.1f}"
            f"{checks:>8d}{check_seconds * 1e6 / max(checks, 1):>10.1f}"
            f"{layers['Database._learn'] * 1e6 / len(sqls):>10.1f}"
            f"{switches:>10d}{learned:>9d}{unique:>8d}{csr:>7d}"
            f"{total:>7d}{expand * 1e6 / max(unique + csr, 1):>9.2f}"
        )
    for name, (layers, _) in shown:
        floor = layers["pass"] - layers["vector._expand"] - layers["vector._project"]
        print(
            f"floor (execution {name}): {floor * 1e6 / len(sqls):.1f} us a "
            "statement outside _expand and _project"
        )
        parts = {
            part: sum(layers[label] for label in labels)
            for part, labels in FLOOR.items()
        }
        parts["rest (hooks, _learn, other)"] = floor - sum(parts.values())
        for part, seconds in parts.items():
            print(f"  {part:<30}{seconds * 1e6 / len(sqls):>8.1f} us")

    # Unwrapped: plain passes of the warm executions against the bare join.
    for owner, name, function in originals:
        setattr(owner, name, function)
    plain = bare = float("inf")
    for _ in range(args.passes):
        start = perf_counter()
        for sql in sqls:
            db.execute(sql, config)
        plain = min(plain, perf_counter() - start)
        bare = min(bare, bare_pass(plans))
    print(
        f"bare (executions {names[-1]}, unwrapped): db.execute "
        f"{plain * 1e3:.1f} ms a pass, survivors + _expand + _project "
        f"{bare * 1e3:.1f} ms: {plain / bare:.2f}x"
    )
    for name, (layers, _) in zip(names, measured[:learning]):
        print_layers(f"layer (execution {name})", [layers])
    print_layers(
        f"layer (executions {names[-1]})", [layers for layers, _ in warm]
    )


if __name__ == "__main__":
    main()
