"""Benchmark harness: workload runner, experiment drivers, reporting."""

from repro.bench.experiments import (
    PAPER_TABLE1,
    AblationResult,
    LearnedResult,
    OverheadResult,
    ScatterResult,
    Table1Result,
    TemplateRatioResult,
    WindowSweepResult,
    ablation_experiment,
    learned_experiment,
    overhead_experiment,
    scatter_experiment,
    table1_experiment,
    template_ratio_experiment,
    window_sweep_experiment,
)
from repro.bench.reporting import (
    format_scatter_summary,
    format_table,
)
from repro.bench.runner import (
    QueryMeasurement,
    WorkloadResult,
    merge_json_atomic,
    run_workload,
    standard_configs,
    write_json_atomic,
)

__all__ = [
    "PAPER_TABLE1",
    "AblationResult",
    "LearnedResult",
    "OverheadResult",
    "QueryMeasurement",
    "ScatterResult",
    "Table1Result",
    "TemplateRatioResult",
    "WindowSweepResult",
    "WorkloadResult",
    "ablation_experiment",
    "format_scatter_summary",
    "format_table",
    "learned_experiment",
    "merge_json_atomic",
    "overhead_experiment",
    "run_workload",
    "scatter_experiment",
    "standard_configs",
    "table1_experiment",
    "template_ratio_experiment",
    "window_sweep_experiment",
    "write_json_atomic",
]
