"""CI quick-smoke for partitioned parallel execution (2 workers).

Gates two properties on a small DMV instance:

1. **Output equality** — every smoke query returns the same result
   multiset under ``workers=2`` (modes NONE and BOTH, scalar and batched)
   as under serial execution; mode NONE additionally matches row *order*
   (partitions concatenate in scan order).
2. **Monitored-mode overhead** — the engine's adaptive mode (BOTH,
   batched: chunk-granularity monitoring) running on 2 workers must not be more
   than 10% slower than the serial scalar baseline on the deterministic
   critical path: ``critical_path_work <= 1.10 * serial NONE work``.
   Work units, not wall time, so the gate is immune to CI machine noise.

Exit code 0 on success, 1 with a loud report on any violation.

Usage::

    PYTHONPATH=src python scripts/parallel_smoke.py
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.core.config import AdaptiveConfig, ReorderMode
from repro.dmv import load_dmv, six_table_workload

OVERHEAD_TOLERANCE = 1.10
WORKERS = 2

SCAN_HEAVY = [
    (
        "own-car",
        "SELECT o.name, c.make FROM Car c, Owner o "
        "WHERE c.ownerid = o.id AND c.year >= 2005",
    ),
    (
        "own-car-dem",
        "SELECT o.name, c.make FROM Demographics d, Owner o, Car c "
        "WHERE d.ownerid = o.id AND c.ownerid = o.id AND d.salary > 50000",
    ),
]


def main() -> int:
    db, _ = load_dmv(scale=0.02, extended=True)
    queries = SCAN_HEAVY + [
        (query.qid, query.sql) for query in six_table_workload(count=2)
    ]
    failures: list[str] = []

    # Every run of a statement executes the optimizer's plan (a plan handed
    # in never reads or writes plan feedback).
    for qid, sql in queries:
        plan = db.plan(sql)
        serial = db.execute(plan, AdaptiveConfig(mode=ReorderMode.NONE))
        parallel_none = db.execute(
            plan, AdaptiveConfig(mode=ReorderMode.NONE, workers=WORKERS)
        )
        if parallel_none.rows != serial.rows:
            failures.append(
                f"{qid}: workers={WORKERS} mode NONE changed rows "
                f"({len(parallel_none.rows)} vs {len(serial.rows)})"
            )
        for batched in (False, True):
            monitored = db.execute(
                plan,
                AdaptiveConfig(
                    mode=ReorderMode.BOTH,
                    workers=WORKERS,
                    batched=batched,
                ),
            )
            if Counter(monitored.rows) != Counter(serial.rows):
                failures.append(
                    f"{qid}: workers={WORKERS} mode BOTH "
                    f"batched={batched} changed the result multiset"
                )

    # Overhead gate on the scan-heavy queries (they actually partition;
    # the six-table templates drive a 200-row table and may fall back).
    serial_work = 0.0
    monitored_path = 0.0
    for qid, sql in SCAN_HEAVY:
        plan = db.plan(sql)
        serial = db.execute(plan, AdaptiveConfig(mode=ReorderMode.NONE))
        serial_work += serial.stats.work.total_units
        monitored = db.execute(
            plan,
            AdaptiveConfig(
                mode=ReorderMode.BOTH,
                workers=WORKERS,
                batched=True,
            ),
        )
        monitored_path += (
            monitored.stats.critical_path_work
            if monitored.stats.critical_path_work is not None
            else monitored.stats.work.total_units
        )
    ratio = monitored_path / serial_work
    print(
        f"monitored-mode critical path: {monitored_path:,.0f} units vs "
        f"{serial_work:,.0f} serial scalar units ({ratio:.2f}x)"
    )
    if monitored_path > serial_work * OVERHEAD_TOLERANCE:
        failures.append(
            f"monitored mode on {WORKERS} workers is more than "
            f"{(OVERHEAD_TOLERANCE - 1) * 100:.0f}% slower than scalar: "
            f"{ratio:.2f}x"
        )

    db.close()
    if failures:
        for line in failures:
            print(f"SMOKE FAILED: {line}", file=sys.stderr)
        return 1
    print(f"parallel smoke passed: {len(queries)} queries, "
          f"workers={WORKERS}, overhead {ratio:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
