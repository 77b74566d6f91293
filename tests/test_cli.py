"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.scale == 0.05
        assert not args.extended

    def test_query_mode_choices(self):
        args = build_parser().parse_args(["query", "SELECT 1", "--mode", "none"])
        assert args.mode == "none"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "SELECT 1", "--mode", "bogus"])

    def test_experiment_names(self):
        for name in ("table1", "fig7", "fig8", "fig9", "fig10", "fig11", "overhead"):
            args = build_parser().parse_args(["experiment", name])
            assert args.name == name


class TestCommands:
    def test_generate(self, capsys):
        assert main(["generate", "--scale", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Owner" in out

    def test_query_static_and_adaptive(self, capsys):
        code = main(
            [
                "query",
                "--scale",
                "0.005",
                "SELECT o.name FROM Owner o WHERE o.country3 = 'DE' LIMIT 3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "static:" in out
        assert "adaptive:" in out
        assert "results match" in out
        # The row store: both lines name the oracle's machine.
        assert out.count("[scalar]") == 2

    def test_query_explain(self, capsys):
        main(
            [
                "query",
                "--scale",
                "0.005",
                "--explain",
                "--mode",
                "none",
                "SELECT o.name FROM Owner o WHERE o.country3 = 'DE'",
            ]
        )
        out = capsys.readouterr().out
        assert "PipelinePlan" in out
        assert "adaptive:" not in out

    def test_query_max_rows_budget(self, capsys):
        code = main(
            [
                "query",
                "--scale",
                "0.005",
                "--mode",
                "none",
                "--max-rows",
                "2",
                "SELECT o.name FROM Owner o WHERE o.country3 = 'DE'",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "budget exceeded" in out
        assert "2 row(s)" in out

    def test_query_fault_plan_degrades(self, capsys):
        plan = (
            '{"seed": 7, "faults": [{"site": "controller", '
            '"kind": "permanent", "nth_call": 1}]}'
        )
        code = main(
            [
                "query",
                "--scale",
                "0.005",
                "--fault-plan",
                plan,
                "SELECT o.name, c.make FROM Owner o, Car c "
                "WHERE c.ownerid = o.id AND o.country3 = 'DE'",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "results match" in out
        assert "DEGRADED" in out
        assert "[degraded]" in out

    def test_query_rejects_invalid_limits(self, capsys):
        code = main(
            ["query", "--scale", "0.005", "--max-rows", "0", "SELECT 1"]
        )
        assert code == 2
        assert "invalid limits" in capsys.readouterr().err

    def test_query_fault_plan_rejects_garbage(self, capsys):
        code = main(
            ["query", "--scale", "0.005", "--fault-plan", "{broken", "SELECT 1"]
        )
        assert code == 2
        assert "invalid --fault-plan" in capsys.readouterr().err

    def test_query_fault_plan_from_file(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(
            '{"faults": [{"site": "index-lookup", "kind": "transient", '
            '"nth_call": 2}]}'
        )
        code = main(
            [
                "query",
                "--scale",
                "0.005",
                "--fault-plan",
                str(plan_file),
                "SELECT o.name, c.make FROM Owner o, Car c "
                "WHERE c.ownerid = o.id AND o.country3 = 'DE'",
            ]
        )
        assert code == 0
        assert "results match" in capsys.readouterr().out

    def test_query_explain_analyze(self, capsys):
        code = main(
            [
                "query",
                "--scale",
                "0.005",
                "--explain-analyze",
                "SELECT o.name FROM Owner o, Car c "
                "WHERE c.ownerid = o.id AND o.country3 = 'DE'",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Golden markers: each section of the report must be present.
        assert "EXPLAIN ANALYZE" in out
        assert "PipelinePlan" in out
        assert "pipeline actuals" in out
        assert "DRIVING" in out and "INNER" in out
        assert "executed:" in out
        assert "work breakdown:" in out
        assert "adaptation timeline" in out
        assert "budget: unlimited" in out
        assert "faults: 0 transient retrie(s), 0 degradation(s)" in out

    def test_query_trace_and_metrics(self, tmp_path, capsys):
        import json

        trace_file = tmp_path / "trace.jsonl"
        code = main(
            [
                "query",
                "--scale",
                "0.005",
                "--trace",
                str(trace_file),
                "--metrics",
                "SELECT o.name FROM Owner o WHERE o.country3 = 'DE' LIMIT 3",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "query_rows_emitted_total" in captured.out
        assert "span(s) written" in captured.err
        lines = trace_file.read_text().splitlines()
        assert lines
        spans = [json.loads(line) for line in lines]
        names = {span["name"] for span in spans}
        assert {"query", "parse", "optimize", "execute"} <= names
        assert main(["experiment", "table1", "--scale", "0.005"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_columnar_batch_size_runs_the_adaptive_cascade(
        self, tmp_path, capsys
    ):
        """``--backend columnar`` is the engine, in mode BOTH too: no other
        flag asks for it."""
        import json

        sql = (
            "SELECT o.name, c.make, a.damage FROM Owner o, Car c, Accidents a "
            "WHERE c.ownerid = o.id AND a.carid = c.id AND o.country3 = 'DE'"
        )
        telemetry = tmp_path / "telemetry"
        args = [
            "query", "--scale", "0.01", "--backend", "columnar",
            "--mode", "both", "--telemetry-dir", str(telemetry), sql,
        ]
        assert main(args) == 0
        assert "note:" not in capsys.readouterr().err  # no gate to warn about
        (segment,) = telemetry.iterdir()
        records = map(json.loads, segment.read_text().splitlines())
        (flight,) = [r for r in records if r["type"] == "flight"]
        assert flight["engine"] == "vector-adaptive"
        assert "vector_gate" not in flight  # no gate to name
        assert main(["replay", "--telemetry-dir", str(telemetry), "--latest"]) == 0
        assert "engine=vector-adaptive" in capsys.readouterr().out
        # The plain comparison says which machine ran each line.
        assert main(["query", "--scale", "0.01", "--backend", "columnar", sql]) == 0
        captured = capsys.readouterr()
        assert "[vector]" in captured.out and "[vector-adaptive]" in captured.out
        assert "note:" not in captured.err
        # The probe cache and its flag are gone.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--probe-cache", "64", sql])

    def test_experiment_fig7_small(self, capsys):
        assert (
            main(["experiment", "fig7", "--scale", "0.01", "--queries", "2"]) == 0
        )
        assert "total improvement" in capsys.readouterr().out


class TestEngineErrors:
    """A ReproError ends any subcommand with one ``error:`` line, exit 1."""

    @pytest.mark.parametrize(
        "sql, fragment",
        [
            ("SELECT o.name FROM Nope o", "unknown table 'Nope'"),  # catalog
            ("SELECT FROM WHERE", "expected"),  # parse
        ],
    )
    def test_query_error_is_one_line(self, capsys, sql, fragment):
        assert main(["query", "--scale", "0.005", sql]) == 1
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(lines) == 1 and fragment in lines[0]
        assert "Traceback" not in err

    def test_escaped_budget_error(self, capsys, monkeypatch):
        # `query` reports its own budget stops; one escaping any other
        # subcommand must not become a traceback either.
        from repro import cli
        from repro.errors import BudgetExceeded

        def stopped(args):
            raise BudgetExceeded("row budget exceeded\n(1 row)", rows_emitted=1)

        monkeypatch.setattr(cli, "cmd_stats", stopped)
        assert main(["stats", "--scale", "0.005"]) == 1
        assert capsys.readouterr().err == "error: row budget exceeded (1 row)\n"

    def test_profile_keeps_the_traceback(self, tmp_path):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            main(
                [
                    "--profile",
                    str(tmp_path / "p.pstats"),
                    "query",
                    "--scale",
                    "0.005",
                    "SELECT o.name FROM Nope o",
                ]
            )
