"""Deterministic fault injection and transient-fault retry."""

import pytest

from repro import AdaptiveConfig, ReorderMode
from repro.errors import (
    PermanentStorageError,
    StorageError,
    TransientStorageError,
)
from repro.robustness.faults import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    call_with_retry,
)

from tests.conftest import build_three_table_db

THREE_TABLE_SQL = (
    "SELECT o.name, c.make, d.salary FROM Owner o, Car c, Demo d "
    "WHERE c.ownerid = o.id AND d.ownerid = o.id AND o.country = 'DE'"
)


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="disk-sector", nth_call=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="fault kind"):
            FaultSpec(site="index-lookup", kind="flaky", nth_call=1)

    def test_exactly_one_trigger(self):
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec(site="index-lookup")
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec(site="index-lookup", nth_call=1, probability=0.5)

    def test_bounds(self):
        with pytest.raises(ValueError, match="nth_call"):
            FaultSpec(site="index-lookup", nth_call=0)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(site="index-lookup", probability=1.5)
        with pytest.raises(ValueError, match="max_fires"):
            FaultSpec(site="index-lookup", nth_call=1, max_fires=0)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="index-lookup", kind="transient", nth_call=3),
                FaultSpec(site="controller", kind="permanent", probability=0.1),
            ),
            seed=99,
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("not json")
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.from_json('{"faults": [], "extra": 1}')
        with pytest.raises(ValueError, match="unknown fault keys"):
            FaultPlan.from_json(
                '{"faults": [{"site": "index-lookup", "nth": 1}]}'
            )


class TestFaultInjector:
    def test_nth_call_fires_exactly_once(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="index-lookup", nth_call=3),), seed=0
        )
        injector = plan.build()
        injector.fire("index-lookup")
        injector.fire("index-lookup")
        with pytest.raises(TransientStorageError, match="call #3"):
            injector.fire("index-lookup")
        for _ in range(10):  # nth-call specs default to a single fire
            injector.fire("index-lookup")
        assert injector.fired["index-lookup"] == 1

    def test_sites_are_independent(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="cursor-advance", nth_call=1),), seed=0
        )
        injector = plan.build()
        injector.fire("index-lookup")  # different site: no fault
        with pytest.raises(TransientStorageError):
            injector.fire("cursor-advance")

    def test_permanent_kind_raises_permanent_error(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="controller", kind="permanent", nth_call=1),),
        )
        with pytest.raises(PermanentStorageError):
            plan.build().fire("controller")

    def test_probability_is_deterministic_per_seed(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="hash-probe", probability=0.3),), seed=1234
        )

        def fire_pattern() -> list[bool]:
            injector = plan.build()
            pattern = []
            for _ in range(50):
                try:
                    injector.fire("hash-probe")
                    pattern.append(False)
                except TransientStorageError:
                    pattern.append(True)
            return pattern

        first, second = fire_pattern(), fire_pattern()
        assert first == second
        assert any(first), "probability 0.3 over 50 ops should fire"

    def test_max_fires_bounds_probabilistic_specs(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="monitor", probability=1.0, max_fires=2),
            ),
        )
        injector = plan.build()
        for _ in range(2):
            with pytest.raises(TransientStorageError):
                injector.fire("monitor")
        injector.fire("monitor")  # budget spent: no more faults
        assert injector.total_fired == 2


class TestRetry:
    def test_delay_doubles_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.25, sleep=lambda _: None)
        assert policy.delay_for(1) == pytest.approx(0.1)
        assert policy.delay_for(2) == pytest.approx(0.2)
        assert policy.delay_for(3) == pytest.approx(0.25)

    def test_succeeds_after_transient_failures(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientStorageError("blip")
            return "ok"

        slept = []
        policy = RetryPolicy(max_attempts=4, base_delay=0.01, sleep=slept.append)
        assert call_with_retry(flaky, policy) == "ok"
        assert len(attempts) == 3
        assert slept == [pytest.approx(0.01), pytest.approx(0.02)]

    def test_exhaustion_chains_the_last_fault(self):
        def always_failing():
            raise TransientStorageError("blip")

        policy = RetryPolicy(max_attempts=3, base_delay=0.0, sleep=lambda _: None)
        with pytest.raises(StorageError, match="3 attempts") as excinfo:
            call_with_retry(always_failing, policy)
        assert isinstance(excinfo.value.__cause__, TransientStorageError)

    def test_permanent_faults_pass_through(self):
        def broken():
            raise PermanentStorageError("dead")

        with pytest.raises(PermanentStorageError):
            call_with_retry(broken, RetryPolicy(sleep=lambda _: None))


class TestStorageIntegration:
    """Faults fire inside real storage operations during real queries."""

    def test_transient_index_fault_is_retried_transparently(self):
        db = build_three_table_db()
        clean = db.execute(THREE_TABLE_SQL, AdaptiveConfig(mode=ReorderMode.NONE))
        injector = FaultPlan(
            specs=(
                FaultSpec(site="index-lookup", kind="transient", nth_call=2),
                FaultSpec(site="cursor-advance", kind="transient", nth_call=4),
            ),
        ).build()
        faulty = db.execute(
            THREE_TABLE_SQL,
            AdaptiveConfig(mode=ReorderMode.NONE),
            fault_plan=injector,
        )
        assert sorted(faulty.rows) == sorted(clean.rows)
        assert injector.fired["index-lookup"] == 1
        assert injector.fired["cursor-advance"] == 1

    def test_permanent_index_fault_aborts_the_query(self):
        db = build_three_table_db()
        with pytest.raises(PermanentStorageError, match="index-lookup"):
            db.execute(
                THREE_TABLE_SQL,
                AdaptiveConfig(mode=ReorderMode.NONE),
                fault_plan=FaultPlan(
                    specs=(
                        FaultSpec(
                            site="index-lookup", kind="permanent", nth_call=1
                        ),
                    ),
                ),
            )

    def test_faults_are_disarmed_after_execution(self):
        db = build_three_table_db()
        with pytest.raises(PermanentStorageError):
            db.execute(
                THREE_TABLE_SQL,
                AdaptiveConfig(mode=ReorderMode.NONE),
                fault_plan=FaultPlan(
                    specs=(
                        FaultSpec(
                            site="cursor-advance", kind="permanent", nth_call=1
                        ),
                    ),
                ),
            )
        assert db.catalog.faults is None
        # The next execution runs clean.
        result = db.execute(THREE_TABLE_SQL, AdaptiveConfig(mode=ReorderMode.NONE))
        assert len(result.rows) > 0

    def test_hash_probe_fault_site(self):
        # Demo's join column has no index: it is hash-probed.
        db = build_three_table_db(unindexed=(("Demo", "ownerid"),))
        injector = FaultPlan(
            specs=(FaultSpec(site="hash-probe", kind="transient", nth_call=1),),
        ).build()
        config = AdaptiveConfig(mode=ReorderMode.NONE)
        clean = db.execute(THREE_TABLE_SQL, config)
        faulty = db.execute(THREE_TABLE_SQL, config, fault_plan=injector)
        assert sorted(faulty.rows) == sorted(clean.rows)
        assert injector.fired["hash-probe"] == 1
