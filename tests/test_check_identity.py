"""Golden decision digest: a cheaper check must decide exactly what it did.

The controller's per-boundary cost is optimisation territory (one model
snapshot per boundary, plan-invariant model parts hoisted onto the cached
plan, prefix-sharing candidate loops); its *decisions* are not. This file
pins them: a sha256 per (engine, mode, pass) over both template grids at
scale 0.02 of everything a decision can move — rows in order, every
``WorkMeter`` field, the adaptation events with their estimated costs by
``repr`` (so a float that moved in the last bit fails), order history, final
order, check counts and the plan feedback an execution started from.

``tests/golden/check_identity.json`` was generated on the commit *before*
the cheap check landed (``python tests/test_check_identity.py`` rewrites
it; only do that in a PR that means to change decisions, and say so).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro import AdaptiveConfig, ReorderMode, StatisticsLevel
from repro.dmv import load_dmv

from tests.test_plan_cache import ENGINES, SCALE

GOLDEN = Path(__file__).parent / "golden" / "check_identity.json"
MODES = (ReorderMode.INNER_ONLY, ReorderMode.DRIVING_ONLY, ReorderMode.BOTH)
# The first execution runs the optimizer's order and learns; the next two
# run its lesson (plan feedback) as a static plan: no check, no monitor.
PASSES = ("first", "learned", "learned-again")


def fold(digest, result) -> None:
    """Everything of *result* a changed decision or float would move."""
    stats = result.stats
    parts = (
        result.rows,
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
                -1,  # AdaptationEvent.worker until PR 21: keeps the digests
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


def grid_digests(engine: str) -> dict[str, str]:
    """``{"<engine>/<mode>/<pass>": sha256}`` for one engine of ENGINES."""
    backend, statements = ENGINES[engine]
    db, _ = load_dmv(scale=SCALE, extended=True, backend=backend)
    digests = {}
    for mode in MODES:
        # Same level, same statistics, same plans: it only makes every
        # cached plan, and the feedback in it, stale between modes.
        db.analyze(level=StatisticsLevel.CARDINALITY)
        config = AdaptiveConfig(mode=mode)
        for name in PASSES:
            digest = hashlib.sha256()
            for sql in statements:
                fold(digest, db.execute(sql, config))
            digests[f"{engine}/{mode.name.lower()}/{name}"] = (
                digest.hexdigest()
            )
    return digests


@pytest.mark.parametrize("engine", ENGINES)
def test_decisions_are_the_golden_ones(engine):
    golden = json.loads(GOLDEN.read_text())
    digests = grid_digests(engine)
    assert set(digests) == {key for key in golden if key.startswith(engine)}
    moved = sorted(key for key, value in digests.items() if golden[key] != value)
    assert not moved, f"decisions, floats or counters moved in: {moved}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    written = {}
    for name in ENGINES:
        written.update(grid_digests(name))
    GOLDEN.write_text(json.dumps(written, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(written)} digests to {GOLDEN}")
