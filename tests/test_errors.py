"""The exception hierarchy is stable API: everything derives from ReproError."""

import pytest

from repro import AdaptiveConfig, Database, ReorderMode
from repro.errors import (
    BudgetExceeded,
    CatalogError,
    ExecutionError,
    OracleViolation,
    PermanentStorageError,
    PlanError,
    QueryError,
    ReproError,
    SchemaError,
    SqlSyntaxError,
    StorageError,
    TransientStorageError,
)

ALL_ERRORS = [
    BudgetExceeded,
    CatalogError,
    ExecutionError,
    OracleViolation,
    PermanentStorageError,
    PlanError,
    QueryError,
    SchemaError,
    SqlSyntaxError,
    StorageError,
    TransientStorageError,
]


@pytest.mark.parametrize("error_type", ALL_ERRORS)
def test_all_derive_from_repro_error(error_type):
    assert issubclass(error_type, ReproError)


def test_sql_syntax_error_is_query_error():
    assert issubclass(SqlSyntaxError, QueryError)


def test_sql_syntax_error_position():
    error = SqlSyntaxError("bad", position=7)
    assert error.position == 7
    assert "offset 7" in str(error)


def test_sql_syntax_error_without_position():
    error = SqlSyntaxError("bad")
    assert error.position is None
    assert str(error) == "bad"


def test_storage_fault_kinds_are_storage_errors():
    assert issubclass(TransientStorageError, StorageError)
    assert issubclass(PermanentStorageError, StorageError)


def test_budget_and_oracle_are_execution_errors():
    assert issubclass(BudgetExceeded, ExecutionError)
    assert issubclass(OracleViolation, ExecutionError)


def test_sql_syntax_error_position_survives_db_execute():
    """The parser's error offset reaches the caller of the facade."""
    db = Database()
    db.create_table("T", [("id", "int")])
    with pytest.raises(SqlSyntaxError) as excinfo:
        db.execute("SELECT t.id FRM T t")
    error = excinfo.value
    assert error.position is not None
    assert f"offset {error.position}" in str(error)


def test_columnar_backend_without_numpy_is_a_one_line_error(monkeypatch):
    """numpy is required for the columnar backend only: without it the row
    oracle still builds and ``backend="columnar"`` says what is missing."""
    from repro.storage import columnar

    monkeypatch.setattr(columnar, "HAVE_NUMPY", False)
    with pytest.raises(ReproError, match="requires numpy") as excinfo:
        Database(backend="columnar")
    assert "\n" not in str(excinfo.value)
    Database(backend="row").create_table("T", [("id", "int")])


class TestAdaptiveConfigValidation:
    def test_check_frequency_bound(self):
        with pytest.raises(ValueError, match="check_frequency must be >= 1"):
            AdaptiveConfig(mode=ReorderMode.BOTH, check_frequency=0)

    def test_history_window_bound(self):
        with pytest.raises(ValueError, match="history_window must be >= 1"):
            AdaptiveConfig(mode=ReorderMode.BOTH, history_window=0)

    def test_switch_benefit_threshold_bounds(self):
        with pytest.raises(ValueError, match="switch_benefit_threshold"):
            AdaptiveConfig(mode=ReorderMode.BOTH, switch_benefit_threshold=1.0)
        with pytest.raises(ValueError, match="switch_benefit_threshold"):
            AdaptiveConfig(mode=ReorderMode.BOTH, switch_benefit_threshold=-0.1)

    def test_warmup_rows_bound(self):
        with pytest.raises(ValueError, match="warmup_rows must be >= 0"):
            AdaptiveConfig(mode=ReorderMode.BOTH, warmup_rows=-1)

    def test_boundary_values_accepted(self):
        config = AdaptiveConfig(
            mode=ReorderMode.BOTH,
            check_frequency=1,
            history_window=1,
            switch_benefit_threshold=0.0,
            warmup_rows=0,
        )
        assert config.check_frequency == 1
