"""Decision identity: one digest per grid statement of everything it decided.

Every statement of both template grids (300 six-table, 396 four-table)
runs five times on a fresh columnar DMV database: twice as SQL text in
mode BOTH (the first execution learns, the second runs the lesson as a
static plan), then the optimizer's plan for it (``db.plan(sql)``, handed
in, so no lesson is read) in INNER_ONLY, DRIVING_ONLY and BOTH. A
statement's digest is a sha256 over those five executions of what a
decision, a float or a counter could move: rows in order, the engine,
every ``WorkMeter`` field, the adaptation events (estimated costs by
``repr``), order history, final order, check counts and plan feedback.

A change that means to move no decision runs this on its parent and on
itself and compares::

    PYTHONPATH=src python scripts/decision_identity.py --scale 0.1 --out before.json
    PYTHONPATH=src python scripts/decision_identity.py --scale 0.1 --against before.json

``--against`` prints every statement whose digest moved and exits 1 when
any did (or when the files' scales differ).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from repro import AdaptiveConfig, ReorderMode
from repro.dmv import four_table_workload, load_dmv, six_table_workload

BOTH = AdaptiveConfig(mode=ReorderMode.BOTH)
#: The modes the optimizer's plan runs in after the two text executions.
PLAN_MODES = tuple(
    AdaptiveConfig(mode=mode)
    for mode in (ReorderMode.INNER_ONLY, ReorderMode.DRIVING_ONLY, ReorderMode.BOTH)
)


def statements() -> list[tuple[str, str]]:
    """``(key, sql)`` of every grid statement, six-table first."""
    six = six_table_workload(count=10**9)
    four = four_table_workload(queries_per_template=10**9)
    return [
        (f"{grid}/{number:03d}", query.sql)
        for grid, workload in (("six", six), ("four", four))
        for number, query in enumerate(workload)
    ]


def fold(digest, result) -> None:
    """Everything of *result* a changed decision or float would move."""
    stats = result.stats
    parts = (
        result.rows,
        stats.engine,
        sorted(dataclasses.asdict(stats.work).items()),
        [
            (
                event.kind.value,
                event.driving_rows_produced,
                event.old_order,
                event.new_order,
                repr(event.estimated_current_cost),
                repr(event.estimated_new_cost),
                event.position,
                event.reason,
            )
            for event in stats.events
        ],
        stats.order_history,
        result.final_order,
        stats.inner_checks,
        stats.driving_checks,
        stats.plan_feedback,
    )
    digest.update(repr(parts).encode())


def digests(scale: float) -> dict[str, str]:
    """``{statement key: sha256}`` over its five executions."""
    db, _ = load_dmv(scale=scale, extended=True, backend="columnar")
    out = {}
    for key, sql in statements():
        digest = hashlib.sha256()
        for _ in range(2):
            fold(digest, db.execute(sql, BOTH))
        plan = db.plan(sql)
        for config in PLAN_MODES:
            fold(digest, db.execute(plan, config))
        out[key] = digest.hexdigest()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1)
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--out", type=Path, help="write the digests here")
    target.add_argument(
        "--against", type=Path, help="compare with digests written by --out"
    )
    args = parser.parse_args()
    found = digests(args.scale)
    if args.out is not None:
        args.out.write_text(
            json.dumps({"scale": args.scale, "digests": found}, indent=1) + "\n"
        )
        print(f"wrote {len(found)} statement digests to {args.out}")
        return 0
    written = json.loads(args.against.read_text())
    if written["scale"] != args.scale:
        print(
            f"scale {args.scale} against digests of scale {written['scale']}",
            file=sys.stderr,
        )
        return 1
    want = written["digests"]
    moved = sorted(
        key for key in want.keys() | found.keys() if want.get(key) != found.get(key)
    )
    for key in moved:
        print(f"moved: {key}")
    print(f"{len(moved)} of {len(want)} statements moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
