"""Tests for the command-line interface (invoked in-process)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--design", "F", "--benchmark", "art"])
        assert args.design == "F" and args.benchmark == "art"

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--design", "Z"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_only_serve_selects_a_flit_core(self):
        parser = build_parser()
        assert parser.parse_args(["serve", "--core", "array"]).core == "array"
        for argv in (["figure", "9"], ["validate"], ["faults"]):
            with pytest.raises(SystemExit):
                parser.parse_args([*argv, "--core", "array"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--fuzz", "-1"],
            ["run", "--window", "-5"],
            ["serve", "--window", "-3"],
        ],
        ids=["fuzz", "run-window", "serve-window"],
    )
    def test_negative_count_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "must not be negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["layout", "--jobs", "4"],
            ["table", "1", "--window", "5"],
            ["trace", "--output", "t.trace", "--metrics-out", "m.json"],
        ],
        ids=["layout", "table", "trace"],
    )
    def test_engine_option_on_a_command_that_simulates_nothing(
        self, capsys, argv
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", "--benchmark", "art", "--design", "B",
                     "--measure", "200"]) == 0
        out = capsys.readouterr().out
        assert "design B" in out and "IPC" in out

    def test_run_early_miss(self, capsys):
        main(["run", "--benchmark", "mcf", "--measure", "200", "--early-miss"])
        assert "early misses" in capsys.readouterr().out

    def test_table_1(self, capsys):
        main(["table", "1"])
        assert "Table 1" in capsys.readouterr().out

    def test_table_3(self, capsys):
        main(["table", "3"])
        assert "halo" in capsys.readouterr().out

    def test_table_4(self, capsys):
        main(["table", "4"])
        assert "Table 4" in capsys.readouterr().out

    def test_figure_10(self, capsys):
        main(["figure", "10"])
        assert "die side" in capsys.readouterr().out

    def test_layout(self, capsys):
        main(["layout"])
        assert "spike" in capsys.readouterr().out

    def test_energy(self, capsys):
        main(["energy", "--measure", "200", "--benchmark", "mesa"])
        out = capsys.readouterr().out
        assert "pJ/access" in out and "gating" in out


class TestTelemetryFlags:
    @pytest.fixture(autouse=True)
    def _fresh_telemetry(self):
        from repro.experiments.runner import reset_memo
        from repro.telemetry import reset_global_metrics

        reset_memo()
        reset_global_metrics()
        yield
        reset_memo()
        reset_global_metrics()

    def test_metrics_out_writes_valid_json(self, capsys, tmp_path):
        import json

        target = tmp_path / "metrics.json"
        assert main(["run", "--benchmark", "art", "--measure", "200",
                     "--metrics-out", str(target)]) == 0
        err = capsys.readouterr().err
        assert "1 cells:" in err
        assert f"metrics written to {target}" in err
        payload = json.loads(target.read_text())
        metrics = payload["metrics"]
        assert metrics
        assert "noc.router.vc_alloc_failures" in metrics
        assert "cache.bankset.eviction_chain_depth" in metrics
        assert payload["provenance"]["source_fingerprint"]
        assert payload["journal"][0]["total"] == 1

    def test_trace_jsonl_written_and_nonempty(self, capsys, tmp_path):
        import json

        target = tmp_path / "t.jsonl"
        assert main(["run", "--benchmark", "art", "--measure", "200",
                     "--trace", str(target)]) == 0
        lines = target.read_text().splitlines()
        assert lines
        for line in lines[:50]:
            json.loads(line)

    def test_trace_chrome_is_perfetto_loadable(self, capsys, tmp_path):
        import json

        target = tmp_path / "t.json"
        assert main(["run", "--benchmark", "art", "--measure", "200",
                     "--trace", str(target), "--trace-format", "chrome"]) == 0
        document = json.loads(target.read_text())
        assert document["traceEvents"]
        assert any(e["ph"] == "X" for e in document["traceEvents"])

    def test_trace_forces_serial_uncached(self, capsys, tmp_path):
        from repro.experiments.runner import settings

        target = tmp_path / "t.jsonl"
        main(["run", "--benchmark", "art", "--measure", "200",
              "--jobs", "4", "--trace", str(target)])
        err = capsys.readouterr().err
        assert "forces --jobs 1" in err
        assert settings().jobs == 1
        assert settings().cache is None

    def test_null_sink_restored_after_traced_run(self, tmp_path):
        from repro.telemetry import NULL_SINK, current_sink

        main(["run", "--benchmark", "art", "--measure", "200",
              "--trace", str(tmp_path / "t.jsonl")])
        assert current_sink() is NULL_SINK


class TestObservabilityCLI:
    """--window series, --metrics-out/--trace beyond `run`, and the
    `repro report <metrics.json>` explorer."""

    @pytest.fixture(autouse=True)
    def _fresh_telemetry(self):
        from repro.experiments.runner import reset_memo
        from repro.telemetry import reset_global_metrics

        reset_memo()
        reset_global_metrics()
        yield
        reset_memo()
        reset_global_metrics()

    def _windowed_metrics(self, tmp_path):
        target = tmp_path / "metrics.json"
        assert main(["run", "--benchmark", "art", "--measure", "400",
                     "--window", "32", "--no-cache",
                     "--metrics-out", str(target)]) == 0
        return target

    def test_window_flag_emits_series_metrics(self, capsys, tmp_path):
        import json

        target = self._windowed_metrics(tmp_path)
        metrics = json.loads(target.read_text())["metrics"]
        series = {
            name: snap for name, snap in metrics.items()
            if snap["type"] == "series"
        }
        assert "cache.series.accesses" in series
        assert series["cache.series.accesses"]["window"] == 32
        assert series["cache.series.accesses"]["windows"]
        assert series["cache.series.latency"]["agg"] == "hist"

    def test_early_miss_run_keeps_window_series(self, capsys, tmp_path):
        import json

        target = tmp_path / "metrics.json"
        assert main(["run", "--benchmark", "mcf", "--measure", "300",
                     "--early-miss", "--window", "32", "--no-cache",
                     "--metrics-out", str(target)]) == 0
        assert "early misses" in capsys.readouterr().out
        metrics = json.loads(target.read_text())["metrics"]
        assert metrics["cache.series.accesses"]["window"] == 32
        assert metrics["cache.partial_tags.early_misses"]["value"] > 0

    @pytest.mark.parametrize(
        "argv, accesses",
        [
            (["energy", "--benchmark", "art", "--measure", "300"], 300),
            (["snuca", "--measure", "300"], 2 * 300),
            (["cmp", "--designs", "A", "--cores", "1", "2",
              "--measure", "300"], (1 + 2) * 300),
            (["faults", "--rate", "1e-2", "--accesses", "200",
              "--designs", "A"], 2 * 200),
        ],
        ids=["energy", "snuca", "cmp", "faults"],
    )
    def test_simulating_command_keeps_window_series(
        self, capsys, tmp_path, argv, accesses
    ):
        """Every cell the command ran records its measured accesses into
        the six ``cache.series.*`` series (faults: the rate-0 baseline
        and the 1e-2 point)."""
        import json

        target = tmp_path / "metrics.json"
        assert main([*argv, "--window", "32", "--no-cache",
                     "--metrics-out", str(target)]) == 0
        metrics = json.loads(target.read_text())["metrics"]
        for name in ("accesses", "hits", "bank_cycles", "network_cycles",
                     "memory_cycles", "latency"):
            assert metrics[f"cache.series.{name}"]["window"] == 32
        windows = metrics["cache.series.accesses"]["windows"]
        assert sum(count for _, count in windows) == accesses

    def test_faults_metrics_out_and_trace(self, capsys, tmp_path):
        import json

        metrics_path = tmp_path / "faults.json"
        trace_path = tmp_path / "faults.jsonl"
        assert main(["faults", "--rate", "1e-3", "--accesses", "200",
                     "--designs", "A", "--seed", "7",
                     "--metrics-out", str(metrics_path),
                     "--trace", str(trace_path)]) == 0
        payload = json.loads(metrics_path.read_text())
        assert any(
            name.startswith("faults.") for name in payload["metrics"]
        )
        assert payload["provenance"]["source_fingerprint"]
        lines = trace_path.read_text().splitlines()
        assert lines
        json.loads(lines[0])

    def test_validate_metrics_out(self, capsys, tmp_path):
        import json

        target = tmp_path / "validate.json"
        assert main(["validate", "--fuzz", "3", "--seed", "5",
                     "--metrics-out", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["provenance"]["source_fingerprint"]

    def test_validate_profile_phases(self, capsys):
        assert main(["validate", "--profile-phases", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "phase profile (object core" in out
        for phase in ("arrivals", "inject", "replication", "switch"):
            assert phase in out

    def test_report_explorer_text(self, capsys, tmp_path):
        target = self._windowed_metrics(tmp_path)
        capsys.readouterr()
        assert main(["report", str(target)]) == 0
        out = capsys.readouterr().out
        assert "Windowed series" in out
        assert "Congestion heatmap" in out
        assert "Latency breakdown (cycles)" in out
        assert "cache.series.accesses" in out
        assert "hottest links:" in out
        assert "hop_traversal" in out

    def test_report_explorer_json(self, capsys, tmp_path):
        import json

        target = self._windowed_metrics(tmp_path)
        capsys.readouterr()
        assert main(["report", str(target), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"series", "heatmap", "breakdown"}
        assert report["heatmap"]["links"]
        assert report["breakdown"]["hop_traversal"]["count"] > 0

    def test_report_explorer_accepts_directory(self, capsys, tmp_path):
        self._windowed_metrics(tmp_path)
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 0
        assert "Congestion heatmap" in capsys.readouterr().out


class TestExtensionCommands:
    def test_cmp(self, capsys):
        main(["cmp", "--cores", "1", "2", "--designs", "A",
              "--measure", "300"])
        out = capsys.readouterr().out
        assert "agg IPC" in out

    def test_snuca(self, capsys):
        main(["snuca", "--benchmark", "art", "--measure", "300"])
        out = capsys.readouterr().out
        assert "S-NUCA" in out and "speedup" in out

    def test_trace(self, capsys, tmp_path):
        target = tmp_path / "out.trace"
        main(["trace", "--benchmark", "mesa", "--measure", "100",
              "--output", str(target)])
        assert "wrote 100 accesses" in capsys.readouterr().out
        assert target.exists()

    def test_report(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        main(["report", "--measure", "250", "--out", str(target)])
        out = capsys.readouterr().out
        assert "report written" in out
        text = target.read_text()
        assert "Figure 9" in text and "Table 4" in text
        assert "Headline" in text


class TestSeedHygiene:
    SIM_COMMANDS = (
        ["run"],
        ["figure", "9"],
        ["table", "3"],
        ["headline"],
        ["energy"],
        ["report"],
        ["cmp"],
        ["snuca"],
        ["faults"],
        ["validate"],
        ["trace", "--output", "x.trace"],
    )

    def test_every_sim_subcommand_accepts_seed(self):
        parser = build_parser()
        for argv in self.SIM_COMMANDS:
            args = parser.parse_args(argv + ["--seed", "42"])
            assert args.seed == 42, argv

    def test_seed_changes_the_workload(self, capsys):
        outputs = []
        for seed in ("1", "2"):
            main(["run", "--benchmark", "art", "--design", "A",
                  "--measure", "200", "--seed", seed, "--no-cache"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]


class TestFaultsCommand:
    def test_campaign_smoke(self, capsys):
        assert main(["faults", "--rate", "1e-3", "--accesses", "200",
                     "--seed", "7", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Fault sweep" in out
        assert "avail" in out and "lat degr" in out
        assert " 0 " in out or "0\n" in out  # the forced zero-rate baseline

    def test_fault_seed_defaults_to_seed(self, capsys):
        main(["faults", "--rate", "1e-3", "--accesses", "200",
              "--designs", "A", "--seed", "9", "--no-cache"])
        assert "fault seed 9" in capsys.readouterr().out

    def test_explicit_fault_seed_wins(self, capsys):
        main(["faults", "--rate", "1e-3", "--accesses", "200",
              "--designs", "A", "--seed", "9", "--fault-seed", "3",
              "--no-cache"])
        assert "fault seed 3" in capsys.readouterr().out


class TestTypedErrors:
    """A ``repro.errors`` exception leaves the CLI as one usage-error line."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--cycles", "0", "--no-cache"], "cycles must be positive"),
            (["run", "--measure", "0", "--no-cache"], "measure must be positive"),
            (["cmp", "--cores", "0", "--no-cache"], "num_cores must be >= 1"),
            (["lint", "notes.txt"], "not a python file or directory: notes.txt"),
        ],
        ids=["serve", "run", "cmp", "lint"],
    )
    def test_one_line_and_status_2(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: error: {message}\n"
