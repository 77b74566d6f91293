"""The engine stands alone: it is not the row store's scalar machine.

``BatchedPipelineExecutor`` shares only the run with the oracle
(``PipelineRun``: counters, clock, the state a check mutates and its two
primitives). A monitored columnar run keeps slim legs and reads its
driving scan as a walk, which a switch freezes and a switch back resumes:
it builds no scalar leg and opens no storage cursor, across driving
switches that resume frozen legs, and still replays on the row store's
scalar oracle — rows in order, every physical WorkMeter field, the applied
decisions, the order history and the frozen positions.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import AdaptiveConfig, ReorderMode
from repro.dmv import load_dmv
from repro.executor import vector
from repro.executor.access import RuntimeLeg
from repro.executor.batch import BatchedPipelineExecutor
from repro.executor.pipeline import PipelineExecutor
from repro.storage.cursor import IndexScanCursor, TableScanCursor

from tests.test_decision_replay import PHYSICAL, frozen_positions, machines

#: A four-table grid statement that, at the settings below, drives from
#: ``d``, then ``o``, then ``c``, and switches back to ``o`` and then to
#: ``d``: two resumed frozen scans.
SQL = (
    "SELECT o.name, c.year "
    "FROM Owner o, Car c, Demographics d, Accidents a "
    "WHERE c.ownerid = o.id AND o.id = d.ownerid AND c.id = a.carid "
    "AND c.year BETWEEN 1993 AND 1999 "
    "AND o.country1 = 'United States' "
    "AND d.salary BETWEEN 20000 AND 45000"
)
CONFIG = AdaptiveConfig(
    mode=ReorderMode.BOTH, check_frequency=2, switch_benefit_threshold=0.0
)
#: What the scalar machine builds and the engine must not.
SCALAR = (RuntimeLeg, TableScanCursor, IndexScanCursor)


def test_the_engine_is_not_the_scalar_machine():
    assert not issubclass(BatchedPipelineExecutor, PipelineExecutor)
    assert not hasattr(BatchedPipelineExecutor, "_build_machine")


@pytest.fixture
def built(monkeypatch):
    """Constructions of each :data:`SCALAR` class while ``built["on"]``."""
    counts = Counter()
    for cls in SCALAR:

        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            if counts["on"]:
                counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_a_switching_run_builds_no_scalar_machine(built, monkeypatch):
    monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 4)
    row_db, columnar_db = (
        load_dmv(scale=0.02, extended=True, backend=backend)[0]
        for backend in ("row", "columnar")
    )
    columnar_db.execute(columnar_db.plan(SQL), CONFIG)  # prepares the record
    built["on"] = 1
    engine, start_oracle = machines(row_db, columnar_db, SQL, CONFIG)
    rows = engine.run_to_completion()
    built["on"] = 0
    assert engine.engine_used == "vector-adaptive"
    assert sum(built[cls.__name__] for cls in SCALAR) == 0, dict(built)
    # Not vacuous: it switched, and switched back to frozen legs.
    leaders = [order[0] for order in engine.order_history]
    resumed = [
        alias
        for at, alias in enumerate(leaders)
        if alias in leaders[: at - 1] and alias != leaders[at - 1]
    ]
    assert engine.driving_switches >= 3 and resumed, leaders
    assert rows
    # The row store's oracle replaying the engine's applied decisions (the
    # recording the oracle replays is the engine's events, checked there).
    oracle, scripted = start_oracle()
    assert oracle.run_to_completion() == rows  # in order
    assert not scripted.script
    for field in PHYSICAL:
        assert getattr(oracle.work, field) == getattr(engine.work, field), field
    assert oracle.order_history == engine.order_history
    assert frozen_positions(oracle) == frozen_positions(engine)
