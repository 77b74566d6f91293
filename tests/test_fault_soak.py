"""Randomized fault soak: adaptation + injected faults never corrupt results.

The acceptance harness for the robustness layer. Over 20 (seed, fault-plan)
combinations and 3 DMV query templates, on both stores — the row store's
scalar machine (the oracle) and the columnar store's engine, which consults
the fault plan once per chunk — it asserts, for every adaptive mode:

* the result multiset is identical to the ``ReorderMode.NONE`` baseline —
  transient storage faults are retried transparently and adaptation never
  duplicates or drops rows;
* an injected exception inside the controller or monitor never aborts the
  query — it records a ``DEGRADED`` event and the query still answers
  correctly from its static order.

A final sentinel test checks the soak was not vacuous, per store: faults
actually fired, degraded events were actually produced, and adaptation
actually reordered something somewhere — and on the columnar store every
run stayed on the engine, with every site it consults firing. The row-store
combinations keep their historical ids; the engine's carry a ``columnar-``
prefix.
"""

from collections import Counter

import pytest

from repro import AdaptiveConfig, ReorderMode
from repro.core.events import EventKind
from repro.dmv import four_table_workload, load_dmv
from repro.executor import vector
from repro.robustness.faults import FaultPlan, FaultSpec

SEEDS = (101, 202, 303, 404)

# Five fault-plan shapes x four seeds = 20 (seed, fault-plan) combinations.
# Execution sites get *transient* faults (the retry layer must absorb
# them); the controller/monitor sites get *permanent* faults (the sandbox
# must absorb those instead).
PLAN_SHAPES = {
    "nth-storage": (
        FaultSpec(site="index-lookup", kind="transient", nth_call=3),
        FaultSpec(site="cursor-advance", kind="transient", nth_call=7),
    ),
    "random-storage": (
        FaultSpec(site="index-lookup", kind="transient", probability=0.01),
        FaultSpec(site="cursor-advance", kind="transient", probability=0.005),
    ),
    "controller-dead": (
        FaultSpec(site="controller", kind="permanent", nth_call=1),
    ),
    "monitor-dead": (
        FaultSpec(site="monitor", kind="permanent", nth_call=1),
        FaultSpec(site="index-lookup", kind="transient", nth_call=5),
    ),
    "mixed-chaos": (
        FaultSpec(site="cursor-advance", kind="transient", probability=0.01),
        FaultSpec(site="controller", kind="permanent", nth_call=2),
    ),
}

COMBOS = [
    (seed, shape) for seed in SEEDS for shape in PLAN_SHAPES
]  # 20 combinations
BACKENDS = ("row", "columnar")


def _id(backend: str, *parts) -> str:
    return "-".join(map(str, (() if backend == "row" else (backend,)) + parts))

ADAPTIVE_MODES = (
    ReorderMode.INNER_ONLY,
    ReorderMode.DRIVING_ONLY,
    ReorderMode.BOTH,
)

# Check aggressively so adaptation (and therefore the controller fault
# sites) actually exercises during these small-scale queries.
def _config(mode: ReorderMode) -> AdaptiveConfig:
    return AdaptiveConfig(
        mode=mode, check_frequency=2, switch_benefit_threshold=0.0
    )


# Aggregate evidence, per store, that the soak exercised what it claims to.
_TOTALS = {
    backend: {
        "fired": Counter(), "degraded": 0, "switches": 0, "runs": 0,
        "engines": Counter(),
    }
    for backend in BACKENDS
}
_REFERENCES: dict[tuple[str, str], Counter] = {}


@pytest.fixture(scope="module")
def stores():
    return {}


@pytest.fixture
def dmv(stores, backend, monkeypatch):
    """The store under test. On the engine, chunks of 4 driving rows: at the
    default first chunk most of these scans are one chunk, and a finished
    scan applies nothing."""
    if backend == "columnar":
        monkeypatch.setattr(vector, "MONITORED_CHUNK_ROWS", 4)
    if backend not in stores:
        stores[backend] = load_dmv(scale=0.01, seed=20070426, backend=backend)[0]
    return stores[backend]


def _queries(seed: int) -> list[str]:
    """One query each from three distinct DMV templates, varied by seed."""
    workload = four_table_workload(queries_per_template=1, seed=seed)
    chosen = {}
    for query in workload:
        if query.template in (1, 3, 5) and query.template not in chosen:
            chosen[query.template] = query.sql
    assert len(chosen) == 3
    return [chosen[template] for template in sorted(chosen)]


def _reference(db, backend: str, sql: str) -> Counter:
    if (backend, sql) not in _REFERENCES:
        baseline = db.execute(sql, AdaptiveConfig(mode=ReorderMode.NONE))
        _REFERENCES[backend, sql] = Counter(baseline.rows)
    return _REFERENCES[backend, sql]


@pytest.mark.parametrize(
    ("backend", "seed", "shape"),
    [
        pytest.param(backend, seed, shape, id=_id(backend, seed, shape))
        for backend in BACKENDS
        for seed, shape in COMBOS
    ],
)
def test_soak_combo(dmv, backend, seed, shape):
    plan = FaultPlan(specs=PLAN_SHAPES[shape], seed=seed)
    totals = _TOTALS[backend]
    for sql in _queries(seed):
        reference = _reference(dmv, backend, sql)
        for mode in ADAPTIVE_MODES:
            injector = plan.build()
            result = dmv.execute(sql, _config(mode), fault_plan=injector)
            assert Counter(result.rows) == reference, (
                f"result multiset diverged from ReorderMode.NONE "
                f"(seed={seed}, plan={shape}, mode={mode.value})"
            )
            if injector.fired["controller"]:
                # A controller failure must degrade, never abort.
                assert result.stats.degraded
            degraded = [
                event
                for event in result.stats.events
                if event.kind is EventKind.DEGRADED
            ]
            for event in degraded:
                assert event.reason  # always explains itself
            totals["fired"].update(injector.fired)
            totals["degraded"] += len(degraded)
            totals["switches"] += result.stats.total_switches
            totals["engines"][result.stats.engine] += 1
            totals["runs"] += 1


@pytest.mark.parametrize(
    ("backend", "seed"),
    [
        pytest.param(backend, seed, id=_id(backend, seed))
        for backend in BACKENDS
        for seed in SEEDS[:2]
    ],
)
def test_soak_oracle_cross_check(dmv, backend, seed):
    """Debug-mode oracle agrees: RID-tuple multisets match the baseline,
    and it saw every row the run returned — on the engine too."""
    plan = FaultPlan(specs=PLAN_SHAPES["mixed-chaos"], seed=seed)
    for sql in _queries(seed):
        baseline = dmv.execute(
            sql, AdaptiveConfig(mode=ReorderMode.NONE), oracle=True
        )
        chaotic = dmv.execute(
            sql,
            _config(ReorderMode.BOTH),
            fault_plan=plan,
            oracle=True,
        )
        assert chaotic.oracle.diff_against(baseline.oracle) is None
        assert Counter(chaotic.rows) == Counter(baseline.rows)
        assert chaotic.oracle.emits == len(chaotic.rows)
        if backend == "columnar":
            assert chaotic.stats.engine == "vector-adaptive"


def test_soak_was_not_vacuous():
    """Runs after the parametrized soak (pytest preserves file order)."""
    for backend, totals in _TOTALS.items():
        assert totals["runs"] >= len(COMBOS) * 3 * 3, backend
        assert sum(totals["fired"].values()) > 0, (backend, "nothing fired")
        assert totals["degraded"] > 0, (backend, "no failure degraded")
        assert totals["switches"] > 0, (backend, "nothing was reordered")
    engine = _TOTALS["columnar"]
    assert set(engine["engines"]) == {"vector-adaptive"}, engine["engines"]
    for site in ("cursor-advance", "index-lookup", "monitor", "controller"):
        assert engine["fired"][site] > 0, site
