"""Tests for the benchmark harness (runner, experiments, reporting)."""

import json

import pytest

from repro import AdaptiveConfig, ReorderMode
from repro.bench.experiments import (
    PAPER_TABLE1,
    ablation_experiment,
    learned_experiment,
    overhead_experiment,
    scatter_experiment,
    table1_experiment,
    template_ratio_experiment,
    window_sweep_experiment,
)
from repro.bench.reporting import format_scatter_summary, format_table
from repro.bench.runner import (
    merge_json_atomic,
    read_json_object,
    run_workload,
    standard_configs,
    write_json_atomic,
)
from repro.dmv import four_table_workload, load_dmv, six_table_workload


@pytest.fixture(scope="module")
def tiny_workload():
    return four_table_workload(queries_per_template=2, seed=5)


class TestRunner:
    def test_standard_configs_modes(self):
        configs = standard_configs()
        assert set(configs) == {"static", "inner-only", "driving-only", "both"}
        assert configs["static"].mode is ReorderMode.NONE

    def test_run_workload_measures_all_modes(self, mini_dmv, tiny_workload):
        db, _ = mini_dmv
        configs = {
            "static": AdaptiveConfig(mode=ReorderMode.NONE),
            "both": AdaptiveConfig(mode=ReorderMode.BOTH),
        }
        result = run_workload(db, tiny_workload, configs)
        assert result.modes() == ["static", "both"]
        assert len(result.by_mode("static")) == len(tiny_workload)
        for measurement in result.measurements:
            assert measurement.work > 0

    def test_verification_runs_reference_first(self, mini_dmv, tiny_workload):
        db, _ = mini_dmv
        configs = {
            "both": AdaptiveConfig(mode=ReorderMode.BOTH),
            "static": AdaptiveConfig(mode=ReorderMode.NONE),
        }
        # static is listed second but must still act as the reference.
        result = run_workload(db, tiny_workload, configs, verify_against="static")
        assert len(result.measurements) == 2 * len(tiny_workload)

    def test_workload_result_accumulates_metrics(self, mini_dmv, tiny_workload):
        db, _ = mini_dmv
        configs = {
            "static": AdaptiveConfig(mode=ReorderMode.NONE),
            "both": AdaptiveConfig(mode=ReorderMode.BOTH),
        }
        result = run_workload(db, tiny_workload, configs)
        for mode in ("static", "both"):
            measured = list(result.by_mode(mode).values())
            queries, work, switches = result.totals(mode)
            assert queries == len(tiny_workload)
            assert work == sum(m.work for m in measured)
            assert switches == sum(m.total_switches for m in measured)
        assert result.totals("static")[2] == 0
        assert result.totals("inner-only") == (0, 0.0, 0)


class TestExperiments:
    def test_table1(self, mini_dmv):
        _, summary = mini_dmv
        result = table1_experiment(summary, 0.02)
        report = result.report()
        for name in PAPER_TABLE1:
            assert name in report

    def test_scatter(self, mini_dmv, tiny_workload):
        db, _ = mini_dmv
        result = scatter_experiment(db, tiny_workload)
        assert len(result.pairs) == len(tiny_workload)
        assert result.max_speedup > 0
        assert "total improvement" in result.report("t")

    def test_template_ratio(self, mini_dmv, tiny_workload):
        db, _ = mini_dmv
        result = template_ratio_experiment(db, tiny_workload, ReorderMode.INNER_ONLY)
        assert set(result.ratios) == {1, 2, 3, 4, 5}
        assert "Template 1" in result.report("t")

    def test_overhead(self, mini_dmv, tiny_workload):
        db, _ = mini_dmv
        result = overhead_experiment(db, tiny_workload)
        assert result.inner_overhead >= 0.0
        assert "paper: 0.68%" in result.report()
        # The elapsed half: three monitored modes against the static plan
        # on the same store, microseconds per check where checks run.
        by_mode = {row.mode: row for row in result.elapsed}
        assert list(by_mode) == ["monitor-only", "inner-only", "driving-only"]
        assert by_mode["monitor-only"].checks == 0
        assert by_mode["monitor-only"].check_us is None
        assert by_mode["driving-only"].checks > 0
        assert by_mode["driving-only"].check_us > 0.0
        assert result.engines == ("scalar",)  # the row store: the oracle
        assert "us per check" in result.report()
        assert "elapsed, row store (engine scalar;" in result.report()

    def test_learned(self):
        """E11 on the engine: later executions run plan feedback as static
        plans and do no more work than the first; a database that already
        learned the workload is refused (its "first" pass would not be
        one)."""
        db, _ = load_dmv(scale=0.02, extended=True, backend="columnar")
        workload = six_table_workload(count=12)
        configs = (
            AdaptiveConfig(mode=ReorderMode.BOTH),
            AdaptiveConfig(mode=ReorderMode.NONE),
        )
        result = learned_experiment(db, workload, *configs, later_passes=2)
        assert sum(result.statements.values()) == len(workload)
        assert sum(result.learned.values()) > 0
        assert result.total("later")[0] <= result.total("first")[0]
        assert len(result.later_switches) == len(result.later_checks) == 2
        # A learned statement is static: no later pass asks anything.
        assert result.first_checks > 0
        assert result.later_checks == result.later_switches == [0, 0]
        report = result.report("E11")
        assert "2nd+ work" in report and "#learned" in report
        assert f"checks: first pass {result.first_checks}" in report
        with pytest.raises(ValueError, match="monitored mode"):
            learned_experiment(db, workload, *configs)

    def test_window_sweep(self, mini_dmv, tiny_workload):
        db, _ = mini_dmv
        result = window_sweep_experiment(db, tiny_workload, windows=(10, 500))
        assert set(result.series) == {10, 500}
        assert "history window" in result.report()

    def test_ablation(self, mini_dmv, tiny_workload):
        db, _ = mini_dmv
        variants = {
            "static": AdaptiveConfig(mode=ReorderMode.NONE),
            "both": AdaptiveConfig(mode=ReorderMode.BOTH),
        }
        result = ablation_experiment(db, tiny_workload, variants, "static")
        assert set(result.series) == {"static", "both"}
        assert "vs static" in result.report("t")


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 20.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "20.25" in lines[-1]

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.startswith("T\n")

    def test_scatter_summary_empty(self):
        assert format_scatter_summary([]) == "(no data)"

    def test_scatter_summary_stats(self):
        pairs = [("q1", 100.0, 50.0), ("q2", 10.0, 10.0)]
        text = format_scatter_summary(pairs)
        assert "max speedup: 2.00x (q1)" in text

    def test_write_json_atomic(self, tmp_path):
        target = tmp_path / "payload.json"
        write_json_atomic(str(target), {"b": 2, "a": [1, 2]})
        assert json.loads(target.read_text()) == {"a": [1, 2], "b": 2}
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_write_json_atomic_keeps_old_file_on_failure(self, tmp_path):
        target = tmp_path / "payload.json"
        write_json_atomic(str(target), {"ok": True})
        with pytest.raises(TypeError):
            write_json_atomic(str(target), {"bad": object()})
        # The original content survives and no temp file is left behind.
        assert json.loads(target.read_text()) == {"ok": True}
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_speedup_payload_keeps_the_server_section(self, tmp_path):
        """BENCH_speedup.json is shared: bench_speedup.py writes its keys,
        bench_server.py its ``server`` section, neither erases the other's."""
        target = tmp_path / "BENCH_speedup.json"
        server = {"qps": 812.5, "scale": 0.02, "clients": 4}
        stored = {"benchmark": "six_table_speedup", "scale": 0.1, "server": server}
        write_json_atomic(str(target), stored)
        payload = {"benchmark": "six_table_speedup", "scale": 0.05, "modes": {}}
        assert merge_json_atomic(str(target), payload) == stored
        assert json.loads(target.read_text()) == {**payload, "server": server}
        merge_json_atomic(str(target), {"server": {"qps": 900.0}})
        assert json.loads(target.read_text()) == {**payload, "server": {"qps": 900.0}}
        assert not list(tmp_path.glob("*.tmp.*"))
        # No file yet: nothing to keep, nothing stored.
        assert merge_json_atomic(str(tmp_path / "new.json"), payload) == {}

    def test_a_baseline_is_read_without_a_write(self, tmp_path):
        """What a ``--check`` run gates against: the stored object, read and
        left as it was; a missing or non-object file reads as empty."""
        target = tmp_path / "BENCH_speedup.json"
        write_json_atomic(str(target), {"scale": 0.1})
        before = target.stat().st_mtime_ns
        assert read_json_object(str(target)) == {"scale": 0.1}
        assert target.stat().st_mtime_ns == before
        assert read_json_object(str(tmp_path / "missing.json")) == {}
        target.write_text("[1, 2]")
        assert read_json_object(str(target)) == {}
