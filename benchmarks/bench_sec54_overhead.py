"""E6 — Sec 5.4: monitoring and reorder-checking overhead.

Paper numbers: on queries whose join order is never changed, the average
overhead of monitoring + checking was 0.68% (inner legs) and 0.67%
(driving legs) at check frequency c=10. The work-unit weights of monitor
updates and reorder checks are calibrated to land in this regime; the bench
verifies the calibration holds on the full workload.

The paper's claim is elapsed time, so the report also carries the elapsed
overhead of MONITOR_ONLY / INNER_ONLY / DRIVING_ONLY against the static plan
and the microseconds one check takes. One store per call: the row database
is the paper's regime (the oracle, a check every ``c`` rows), the columnar
database the engine's (checks at chunk boundaries).
"""

from conftest import SCALE, emit_report

from repro.bench import overhead_experiment
from repro.dmv import load_dmv


def test_sec54_overhead(benchmark, dmv_db, workload):
    result = benchmark.pedantic(
        lambda: overhead_experiment(dmv_db, workload), rounds=1, iterations=1
    )
    engine = overhead_experiment(
        load_dmv(scale=SCALE, backend="columnar")[0], workload
    )
    emit_report("sec54_overhead", result.report() + "\n" + engine.report())
    assert result.engines == ("scalar",) and result.backend == "row"
    assert result.unchanged_inner > 0 and result.unchanged_driving > 0
    assert 0.0 <= result.inner_overhead < 0.02, (
        f"inner overhead {result.inner_overhead:.4f} out of the paper's regime"
    )
    assert 0.0 <= result.driving_overhead < 0.02, (
        f"driving overhead {result.driving_overhead:.4f} out of the paper's regime"
    )
    assert engine.engines == ("vector-adaptive",) and engine.backend == "columnar"
    assert [row.mode for row in engine.elapsed] == [
        "monitor-only", "inner-only", "driving-only",
    ]
    # The oracle checks every c rows, the engine once a chunk.
    for exact, chunked in zip(result.elapsed[1:], engine.elapsed[1:]):
        assert exact.checks > chunked.checks > 0, exact.mode
