"""E6 — Sec 5.4: monitoring and reorder-checking overhead.

Paper numbers: on queries whose join order is never changed, the average
overhead of monitoring + checking was 0.68% (inner legs) and 0.67%
(driving legs) at check frequency c=10. The work-unit weights of monitor
updates and reorder checks are calibrated to land in this regime; the bench
verifies the calibration holds on the full workload.

The paper's claim is elapsed time, so the report also carries the elapsed
overhead of MONITOR_ONLY / INNER_ONLY / DRIVING_ONLY against the static plan
under chunk semantics and the microseconds one check takes. It runs on the
columnar backend (work units are bit-identical across backends), where
``batched=True`` is the engine.
"""

from conftest import SCALE, emit_report

from repro.bench import overhead_experiment
from repro.dmv import load_dmv


def test_sec54_overhead(benchmark, workload):
    db, _ = load_dmv(scale=SCALE, backend="columnar")
    result = benchmark.pedantic(
        lambda: overhead_experiment(db, workload), rounds=1, iterations=1
    )
    emit_report("sec54_overhead", result.report())
    assert result.unchanged_inner > 0 and result.unchanged_driving > 0
    assert 0.0 <= result.inner_overhead < 0.02, (
        f"inner overhead {result.inner_overhead:.4f} out of the paper's regime"
    )
    assert 0.0 <= result.driving_overhead < 0.02, (
        f"driving overhead {result.driving_overhead:.4f} out of the paper's regime"
    )
    assert result.engines == ("vector-adaptive",)
