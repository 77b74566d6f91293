"""repro: a reproduction of "Adaptively Reordering Joins during Query
Execution" (Li, Shao, Markl, Beyer, Colby, Lohman - ICDE 2007).

The package implements, from scratch:

* an in-memory single-node DBMS substrate (heap tables, ordered indexes,
  resumable cursors, deterministic work accounting),
* a static cost-based optimizer with the classic uniformity/independence
  assumptions,
* a pipelined indexed nested-loop join executor, and
* the paper's contribution: run-time reordering of both inner and driving
  legs with monitored selectivities and duplicate prevention by positional
  predicates.

Public entry points: :class:`Database`, :class:`AdaptiveConfig`,
:class:`ReorderMode`, and the DMV workload generators under
:mod:`repro.dmv`.
"""

from repro.catalog.statistics import StatisticsLevel
from repro.core.config import AdaptiveConfig, ReorderMode
from repro.db import Database, ExecutionStats, QueryResult
from repro.obs import (
    EstimateSampler,
    MetricsRegistry,
    QueryObservability,
    Tracer,
    render_explain_analyze,
)
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
from repro.query.sql.parser import parse_sql
from repro.robustness import (
    CancellationToken,
    ExecutionLimits,
    FaultPlan,
    FaultSpec,
    InvariantOracle,
)

__version__ = "1.1.0"

__all__ = [
    "AdaptiveConfig",
    "BudgetExceeded",
    "CancellationToken",
    "CatalogError",
    "Database",
    "EstimateSampler",
    "ExecutionError",
    "ExecutionLimits",
    "ExecutionStats",
    "MetricsRegistry",
    "QueryObservability",
    "Tracer",
    "FaultPlan",
    "FaultSpec",
    "InvariantOracle",
    "OracleViolation",
    "PermanentStorageError",
    "PlanError",
    "QueryError",
    "QueryResult",
    "ReorderMode",
    "ReproError",
    "SchemaError",
    "SqlSyntaxError",
    "StatisticsLevel",
    "StorageError",
    "TransientStorageError",
    "parse_sql",
    "render_explain_analyze",
    "__version__",
]
