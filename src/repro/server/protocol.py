"""The wire protocol: newline-delimited JSON requests and responses.

One JSON object per line in each direction. Requests carry an ``op`` and
an optional client-chosen ``id`` that is echoed verbatim on the response,
so clients may pipeline requests and match answers out of band.

Requests::

    {"op": "query", "id": 7, "sql": "SELECT ...", "mode": "both",
     "timeout_ms": 2000, "max_rows": 1000}
    {"op": "stats"}
    {"op": "telemetry", "limit": 20}            # recent/slow flight records
    {"op": "telemetry", "format": "prometheus"}  # metrics exposition text
    {"op": "ping"}

Responses::

    {"id": 7, "status": "ok", "rows": [[...], ...], "row_count": 2,
     "stats": {"work_units": ..., "wall_ms": ..., "switches": ...,
               "shed": "none", "plan_cache": "hit",
               "plan_feedback": {"order": ["c", "o"], "writes": 1}, ...}}
    {"id": 7, "status": "error", "code": "REJECTED_OVERLOAD",
     "error": "admission queue full (32 queued)"}

Every error response carries a machine-readable ``code`` from
:class:`ErrorCode`; ``REJECTED_OVERLOAD`` and ``RATE_LIMITED`` are *load
signals*, not failures — the session stays healthy and the client may
retry with backoff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.core.config import ReorderMode
from repro.errors import (
    BudgetExceeded,
    CatalogError,
    ExecutionError,
    OracleViolation,
    PlanError,
    QueryError,
    ReproError,
    SchemaError,
    StorageError,
)

#: Hard cap on one request line; longer lines are a protocol error (and
#: asyncio's readline enforces it before the JSON parse).
MAX_LINE_BYTES = 1_048_576


class ErrorCode:
    """Machine-readable error codes carried by error responses."""

    BAD_REQUEST = "BAD_REQUEST"            # malformed JSON / unknown op / bad field
    SQL_ERROR = "SQL_ERROR"                # parse / plan / catalog failure
    BUDGET_EXCEEDED = "BUDGET_EXCEEDED"    # row, work, or deadline budget hit
    CANCELLED = "CANCELLED"                # cancellation token fired
    RATE_LIMITED = "RATE_LIMITED"          # session token bucket empty
    REJECTED_OVERLOAD = "REJECTED_OVERLOAD"  # admission queue full
    SHUTTING_DOWN = "SHUTTING_DOWN"        # server is draining
    INTERNAL = "INTERNAL"                  # unexpected engine failure


#: Engine exception → (outcome the flight record and the metrics carry,
#: reply code). Looked up along the exception's MRO, so a subclass answers
#: as its nearest listed base; what no row covers is ``INTERNAL``.
ERROR_TABLE: dict[type, tuple[str, str]] = {
    BudgetExceeded: ("budget_exceeded", ErrorCode.BUDGET_EXCEEDED),
    QueryError: ("sql_error", ErrorCode.SQL_ERROR),
    PlanError: ("sql_error", ErrorCode.SQL_ERROR),
    CatalogError: ("sql_error", ErrorCode.SQL_ERROR),
    SchemaError: ("sql_error", ErrorCode.SQL_ERROR),
    StorageError: ("internal_error", ErrorCode.INTERNAL),
    ExecutionError: ("internal_error", ErrorCode.INTERNAL),
    OracleViolation: ("internal_error", ErrorCode.INTERNAL),
}


def classify_error(error: BaseException, cancelled: bool) -> tuple[str, str]:
    """``(outcome, reply code)`` of an exception an execution raised.

    A spent budget reads ``cancelled`` / ``CANCELLED`` when the query's
    cancellation token had fired: the token is one of the budgets.
    """
    for cls in type(error).__mro__:
        if cls in ERROR_TABLE:
            if cls is BudgetExceeded and cancelled:
                return "cancelled", ErrorCode.CANCELLED
            return ERROR_TABLE[cls]
    return "internal_error", ErrorCode.INTERNAL


def error_reply(request_id: Any, code: str, error: BaseException) -> dict:
    """The error response for an exception classified as *code*;
    :class:`~repro.errors.BudgetExceeded` keeps its ``progress`` block."""
    if isinstance(error, BudgetExceeded):
        return error_response(
            request_id,
            code,
            error.progress_summary(),
            progress={
                "rows_emitted": error.rows_emitted,
                "work_units": round(error.work_units, 3),
                "elapsed_ms": round(error.elapsed_seconds * 1000.0, 3),
                "driving_rows": error.driving_rows,
            },
        )
    if isinstance(error, ReproError):
        return error_response(request_id, code, str(error))
    return error_response(
        request_id, code, f"{type(error).__name__}: {error}"
    )


class ProtocolError(ValueError):
    """A request line that cannot be honoured; maps to ``BAD_REQUEST``."""


_MODE_VALUES = {mode.value for mode in ReorderMode}


@dataclass(frozen=True)
class QueryRequest:
    """A validated ``op=query`` request."""

    sql: str
    request_id: Any = None
    mode: ReorderMode = ReorderMode.BOTH
    timeout_ms: float | None = None
    max_rows: int | None = None


def _positive_number(msg: dict, key: str) -> float | None:
    value = msg.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{key} must be a number, got {value!r}")
    if value <= 0:
        raise ProtocolError(f"{key} must be > 0, got {value!r}")
    return float(value)


def decode_request(line: str | bytes) -> dict:
    """Parse one request line into a dict; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not valid UTF-8: {exc}") from exc
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("request line exceeds the 1 MiB limit")
    try:
        msg = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(msg, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(msg).__name__}"
        )
    op = msg.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError("request is missing the 'op' field")
    return msg


def parse_query_request(msg: dict) -> QueryRequest:
    """Validate an ``op=query`` message into a :class:`QueryRequest`."""
    sql = msg.get("sql")
    if not isinstance(sql, str) or not sql.strip():
        raise ProtocolError("query request needs a non-empty 'sql' string")
    mode_value = msg.get("mode", ReorderMode.BOTH.value)
    if mode_value not in _MODE_VALUES:
        raise ProtocolError(
            f"mode {mode_value!r} not one of {sorted(_MODE_VALUES)}"
        )
    timeout_ms = _positive_number(msg, "timeout_ms")
    max_rows = msg.get("max_rows")
    if max_rows is not None:
        if isinstance(max_rows, bool) or not isinstance(max_rows, int):
            raise ProtocolError(f"max_rows must be an int, got {max_rows!r}")
        if max_rows < 1:
            raise ProtocolError(f"max_rows must be >= 1, got {max_rows!r}")
    return QueryRequest(
        sql=sql,
        request_id=msg.get("id"),
        mode=ReorderMode(mode_value),
        timeout_ms=timeout_ms,
        max_rows=max_rows,
    )


def ok_response(
    request_id: Any,
    rows: list[tuple],
    stats: dict[str, Any],
) -> dict:
    return {
        "id": request_id,
        "status": "ok",
        "rows": [list(row) for row in rows],
        "row_count": len(rows),
        "stats": stats,
    }


def error_response(
    request_id: Any, code: str, message: str, **extra: Any
) -> dict:
    payload: dict[str, Any] = {
        "id": request_id,
        "status": "error",
        "code": code,
        "error": message,
    }
    payload.update(extra)
    return payload


def encode_response(payload: dict) -> bytes:
    """One response line: compact JSON + newline."""
    return (
        json.dumps(payload, separators=(",", ":"), default=str) + "\n"
    ).encode("utf-8")


# ---------------------------------------------------------------------------
# SQL normalization (plan-cache keys and template grouping) now lives in
# repro.query.sql.normalize so the observability layer can share it without
# importing the server package; re-exported here for existing callers.
# ---------------------------------------------------------------------------
from repro.query.sql.normalize import (  # noqa: E402,F401
    normalize_sql,
    template_signature,
)
