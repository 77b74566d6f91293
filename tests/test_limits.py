"""Execution budgets: row caps, work caps, deadlines, cancellation."""

import threading

import pytest

from repro import (
    AdaptiveConfig,
    BudgetExceeded,
    CancellationToken,
    ExecutionError,
    ExecutionLimits,
    ReorderMode,
)

from tests.conftest import build_three_table_db

SQL = (
    "SELECT o.name, c.make, d.salary FROM Owner o, Car c, Demo d "
    "WHERE c.ownerid = o.id AND d.ownerid = o.id AND o.country = 'DE'"
)


def _db():
    return build_three_table_db()


class TestExecutionLimits:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_rows"):
            ExecutionLimits(max_rows=0)
        with pytest.raises(ValueError, match="max_work_units"):
            ExecutionLimits(max_work_units=0)
        with pytest.raises(ValueError, match="timeout_seconds"):
            ExecutionLimits(timeout_seconds=-1)

    def test_unlimited(self):
        assert ExecutionLimits().unlimited
        assert not ExecutionLimits(max_rows=5).unlimited
        assert not ExecutionLimits(cancellation=CancellationToken()).unlimited


class TestCancellationToken:
    def test_starts_clear_and_latches(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel("admission control")
        assert token.cancelled
        assert token.reason == "admission control"

    def test_default_reason(self):
        token = CancellationToken()
        token.cancel()
        assert token.reason == "cancelled"


class TestTokenThreadSafety:
    def test_exactly_one_winner_under_contention(self):
        for _ in range(20):
            token = CancellationToken()
            barrier = threading.Barrier(8)
            wins = []

            def racer(i):
                barrier.wait()
                if token.cancel(f"racer-{i}"):
                    wins.append(i)

            threads = [
                threading.Thread(target=racer, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5.0)
            assert len(wins) == 1, "exactly one cancel() call may win"
            assert token.reason == f"racer-{wins[0]}"
            assert token.cancelled

    def test_idempotent_and_losers_keep_winning_reason(self):
        token = CancellationToken()
        assert token.cancel("first") is True
        assert token.cancel("second") is False
        assert token.reason == "first"
        assert token.cancel() is False
        assert token.reason == "first"


class TestRowBudget:
    def test_delivers_exactly_max_rows_then_raises(self):
        db = _db()
        full = db.execute(SQL, AdaptiveConfig(mode=ReorderMode.NONE))
        assert len(full.rows) > 3
        with pytest.raises(BudgetExceeded) as excinfo:
            db.execute(
                SQL,
                AdaptiveConfig(mode=ReorderMode.NONE),
                limits=ExecutionLimits(max_rows=3),
            )
        error = excinfo.value
        assert error.rows_emitted == 3
        assert error.driving_rows > 0
        assert error.work_units > 0
        assert "row budget" in error.reason
        assert "3 row(s)" in error.progress_summary()

    def test_budget_matching_result_size_does_not_trip(self):
        db = _db()
        full = db.execute(SQL, AdaptiveConfig(mode=ReorderMode.NONE))
        capped = db.execute(
            SQL,
            AdaptiveConfig(mode=ReorderMode.NONE),
            limits=ExecutionLimits(max_rows=len(full.rows)),
        )
        assert sorted(capped.rows) == sorted(full.rows)

    def test_row_budget_applies_to_adaptive_modes(self):
        db = _db()
        with pytest.raises(BudgetExceeded):
            db.execute(
                SQL,
                AdaptiveConfig(mode=ReorderMode.BOTH),
                limits=ExecutionLimits(max_rows=1),
            )


class TestWorkAndTimeBudgets:
    def test_work_budget(self):
        db = _db()
        with pytest.raises(BudgetExceeded, match="work budget"):
            db.execute(
                SQL,
                AdaptiveConfig(mode=ReorderMode.NONE),
                limits=ExecutionLimits(max_work_units=1.0),
            )

    def test_deadline(self):
        db = _db()
        with pytest.raises(BudgetExceeded, match="deadline"):
            db.execute(
                SQL,
                AdaptiveConfig(mode=ReorderMode.NONE),
                limits=ExecutionLimits(timeout_seconds=1e-9),
            )

    def test_pre_cancelled_token_stops_immediately(self):
        db = _db()
        token = CancellationToken()
        token.cancel("shed load")
        with pytest.raises(BudgetExceeded, match="shed load") as excinfo:
            db.execute(
                SQL,
                AdaptiveConfig(mode=ReorderMode.NONE),
                limits=ExecutionLimits(cancellation=token),
            )
        assert excinfo.value.rows_emitted == 0


class TestBudgetExceededType:
    def test_is_an_execution_error(self):
        assert issubclass(BudgetExceeded, ExecutionError)

    def test_progress_summary_formats_all_fields(self):
        error = BudgetExceeded(
            "row budget exceeded (10 rows)",
            rows_emitted=10,
            work_units=1234.5,
            elapsed_seconds=0.25,
            driving_rows=40,
        )
        text = error.progress_summary()
        assert "10 row(s)" in text
        assert "1,234 work units" in text or "1,235 work units" in text
        assert "250.0 ms" in text
        assert "40 driving row(s)" in text
