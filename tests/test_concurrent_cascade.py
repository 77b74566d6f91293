"""Worker threads of one server share one columnar database.

Served queries run the vectorized cascade on ``--max-concurrency`` threads
of one process, so the structures the columnar backend builds lazily — the
row view, index sidecars, and the bounded first-in-first-out kernel memo —
are built and evicted under concurrent readers. The invariant a lost
update would break: every query returns the single-threaded run's rows and
charges its own thread-scoped meter exactly the single-threaded work.
"""

from __future__ import annotations

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

from repro import AdaptiveConfig, CancellationToken, ExecutionLimits, ReorderMode
from repro.dmv import four_table_workload, load_dmv
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
