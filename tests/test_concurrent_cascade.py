"""Threads of an embedding caller share one columnar database.

A program that embeds a ``Database`` may execute on several threads of one
process (the query server's engines are processes, one request at a time),
so the structures the columnar backend builds lazily — a hash build, the
row-rank arrays, the bounded first-in-first-out kernel memo and a plan's
prepared record — are built and evicted under concurrent readers. The invariant a
lost update would break: every query returns the single-threaded run's rows
and charges its own thread-scoped meter exactly the single-threaded work.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro import AdaptiveConfig, CancellationToken, ExecutionLimits, ReorderMode
from repro.dmv import four_table_workload, load_dmv, six_table_workload
from repro.executor import pipeline, vector
from repro.storage import columnar

SCALE = 0.02
THREADS = 4
STATEMENTS = 99
#: Capacity of ``ColumnarIndex._kernels``; the workload must overflow it.
KERNEL_MEMO = 16


def configs():
    return [
        AdaptiveConfig(mode=ReorderMode.NONE),
        AdaptiveConfig(mode=ReorderMode.BOTH),
    ]


def run_all(db, meter, jobs):
    """(rows, private meter, events, engine) per job, in job order."""
    out = []
    for sql, config in jobs:
        limits = ExecutionLimits(
            max_rows=100_000, timeout_seconds=60.0,
            cancellation=CancellationToken(),
        )
        with meter.scoped() as private:
            result = db.execute(sql, config, limits=limits)
        out.append((
            result.rows,
            dataclasses.asdict(private),
            result.stats.events,
            result.stats.engine,
        ))
    return out


def test_four_threads_share_lazy_columnar_builds(monkeypatch):
    grid = [q.sql for q in four_table_workload(queries_per_template=10**9)]
    chosen = [grid[i * len(grid) // STATEMENTS] for i in range(STATEMENTS)]
    jobs = [(sql, config) for sql in chosen for config in configs()]

    # Distinct predicate sets each index was asked a kernel for.
    asked: dict[int, set] = {}
    kernel_for = columnar.ColumnarIndex._kernel_for

    def counting_kernel_for(self, tests, predicates_key):
        asked.setdefault(id(self), set()).add(predicates_key)
        return kernel_for(self, tests, predicates_key)

    monkeypatch.setattr(
        columnar.ColumnarIndex, "_kernel_for", counting_kernel_for
    )

    reference_db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    want = run_all(
        reference_db, reference_db.enable_concurrent_metering(), jobs
    )
    assert {engine for *_, engine in want} == {"vector", "vector-adaptive"}
    assert max(map(len, asked.values())) > KERNEL_MEMO  # evictions happen

    # A fresh database: nothing is built yet, every thread starts cold. No
    # plan cache, so each thread's mode-BOTH run is the optimizer's plan
    # like the reference's, not a start from another thread's feedback.
    db, _ = load_dmv(
        scale=SCALE, extended=True, backend="columnar", plan_cache_size=0
    )
    meter = db.enable_concurrent_metering()
    rotations = [
        jobs[start:] + jobs[:start]
        for start in range(0, len(jobs), len(jobs) // THREADS)
    ][:THREADS]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(THREADS) as pool:
            futures = [
                pool.submit(run_all, db, meter, rotation)
                for rotation in rotations
            ]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)

    for rotation, got in zip(rotations, results):
        start = jobs.index(rotation[0])
        expected = want[start:] + want[:start]
        for (sql, config), one, other in zip(rotation, got, expected):
            assert one == other, f"{config.mode.name}: {sql[:60]}"
    for name in db.catalog.table_names():
        for index in db.catalog.indexes_of(name).values():
            assert len(index._kernels) <= KERNEL_MEMO


def test_four_threads_race_to_prepare_one_plan(monkeypatch):
    """One plan no execution has prepared, four threads at once, in each
    mode: they race to build its prepared record (each may build one, one
    is kept), and every thread gets the single-threaded rows and charges
    its own meter exactly the single-threaded work."""
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 16)
    builds = []
    prepare = pipeline._prepare

    def counting_prepare(*args):
        builds.append(threading.get_ident())
        return prepare(*args)

    monkeypatch.setattr(pipeline, "_prepare", counting_prepare)
    statements = [query.sql for query in six_table_workload(count=10**9)][::60]
    reference_db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    meters = {
        id(one): one.enable_concurrent_metering() for one in (reference_db, db)
    }
    barrier = threading.Barrier(THREADS, timeout=30.0)

    def run(db, plan, config):
        """A handed-in plan: as text, a first monitored run would learn."""
        with meters[id(db)].scoped() as private:
            result = db.execute(plan, config)
        return (
            result.rows,
            dataclasses.asdict(private),
            result.stats.events,
            result.stats.engine,
        )

    def race(plan, config):
        barrier.wait()
        return run(db, plan, config)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for config in configs():
            for sql in statements:
                want = run(reference_db, reference_db.plan(sql), config)
                plan = db.plan(db.parse(sql))
                del builds[:]
                with ThreadPoolExecutor(THREADS) as pool:
                    futures = [
                        pool.submit(race, plan, config) for _ in range(THREADS)
                    ]
                    got = [future.result(timeout=120) for future in futures]
                assert all(one == want for one in got), sql
                assert 1 <= len(builds) <= THREADS
                kept = plan.__dict__["_prepared"]
                assert kept.generation == db.catalog.generation()
                assert list(kept.program) == list(plan.order[1:])
    finally:
        sys.setswitchinterval(interval)


def test_four_threads_race_to_build_one_hash_table():
    """The hash table behind a hash-probed leg is memoized on its table
    (``ColumnarTable.hash_build``): four threads that each need it first
    race to build it, and every one gets the single-threaded rows, events
    and exact thread-scoped work — the build charged once per execution,
    whoever built it."""
    from tests.test_vector_limits import HASHED, hand_off_db

    switching = (
        "SELECT a.id, b.cid, c.id FROM A a, B b, C c WHERE b.aid = a.id "
        "AND b.cid = c.id AND c.flag = 1 AND a.x >= 0"
    )
    jobs = [(HASHED, config) for config in configs()] + [
        (switching, AdaptiveConfig(
            mode=ReorderMode.BOTH, check_frequency=2, switch_benefit_threshold=0.0
        ))
    ]
    reference_db = hand_off_db("columnar")
    want = run_all(reference_db, reference_db.enable_concurrent_metering(), jobs)
    assert {engine for *_, engine in want} == {"vector", "vector-adaptive"}
    db = hand_off_db("columnar")
    meter = db.enable_concurrent_metering()
    barrier = threading.Barrier(THREADS, timeout=30.0)

    def race():
        barrier.wait()
        return run_all(db, meter, jobs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(THREADS) as pool:
            futures = [pool.submit(race) for _ in range(THREADS)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(got == want for got in results)
    _, builds = db.catalog.table("B")._hash_memo
    assert len(builds) == 1  # one build, every thread probed it
