"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import ANALYSIS_RUNNERS, TABLE_IDS, main
from repro.experiments import REGISTRY


class TestCLI:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for identifier in ("table1", "table2", "table3", "table4", "fig5"):
            assert identifier in out
        for identifier in ANALYSIS_RUNNERS:
            assert identifier in out

    def test_table_ids_match_experiment_registry(self):
        assert sorted(TABLE_IDS) == sorted(REGISTRY)

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            main(["table1", "--preset", "huge"])

    def test_methods_argument_parsing(self, capsys, monkeypatch):
        captured = {}

        def fake_run_table(identifier, preset, methods):
            captured["methods"] = methods
            return "ok"

        monkeypatch.setattr("repro.__main__._run_table", fake_run_table)
        main(["table1", "--methods", "equal,mocograd"])
        assert captured["methods"] == ("equal", "mocograd")
        assert "ok" in capsys.readouterr().out


class TestTelemetryCLI:
    def test_telemetry_flag_streams_events(self, capsys, tmp_path, monkeypatch):
        """--telemetry installs a JSONL sink that real trainers write to."""
        from repro import obs

        def fake_run_table(identifier, preset, methods):
            # Simulate what any experiment does: train under the ambient sinks.
            telemetry = obs.Telemetry(sinks=obs.default_sinks())
            with telemetry.span("step", method="equal"):
                pass
            telemetry.counter("train_steps_total", method="equal").inc()
            telemetry.flush()
            return "ok"

        monkeypatch.setattr("repro.__main__._run_table", fake_run_table)
        path = str(tmp_path / "out.jsonl")
        assert main(["table1", "--telemetry", path]) == 0
        events = obs.load_events(path)
        types = {e["type"] for e in events}
        assert types == {"run", "span", "metric"}
        assert events[0]["experiment"] == "table1"
        # The global sink list is restored afterwards.
        assert obs.default_sinks() == []

    def test_sink_closed_even_when_run_raises(self, tmp_path, monkeypatch):
        from repro import obs

        def boom(identifier, preset, methods):
            raise RuntimeError("experiment failed")

        monkeypatch.setattr("repro.__main__._run_table", boom)
        path = str(tmp_path / "out.jsonl")
        with pytest.raises(RuntimeError):
            main(["table1", "--telemetry", path])
        assert obs.default_sinks() == []
        assert obs.load_events(path)[0]["type"] == "run"

    def test_report_renders_saved_run(self, capsys, tmp_path):
        from repro import obs

        path = str(tmp_path / "out.jsonl")
        sink = obs.JsonlSink(path)
        sink.emit({"type": "run", "experiment": "table1", "preset": "quick", "ts": 0.0})
        telemetry = obs.Telemetry(sinks=[sink])
        with telemetry.span("step", method="mocograd"):
            with telemetry.span("backward"):
                pass
        telemetry.counter("balancer_pairs_total", method="mocograd").inc(4)
        telemetry.counter("balancer_conflicts_total", method="mocograd").inc(1)
        telemetry.flush()
        sink.close()

        assert main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "step/backward" in out
        assert "mocograd" in out

    def test_report_without_path_errors(self):
        with pytest.raises(SystemExit):
            main(["report"])


class TestTrainStreaming:
    def test_streaming_flag_reports_pipeline_counters(self, capsys, tmp_path):
        cache_dir = tmp_path / "shards"
        argv = [
            "train",
            "--streaming",
            "--steps",
            "2",
            "--tasks",
            "2",
            "--chunk-size",
            "256",
            "--cache-dir",
            str(cache_dir),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "streaming: chunk=256" in out
        assert "prefetch hits=" in out
        assert "misses=2" in out  # 512 rows / 256-row chunks, cold cache
        assert len(list(cache_dir.glob("*.shard"))) == 2
        # A second run over the same cache serves every shard from disk.
        assert main(argv) == 0
        assert "cache hits=2 misses=0" in capsys.readouterr().out

    def test_streaming_defaults_skip_the_cache(self, capsys):
        assert main(["train", "--streaming", "--steps", "2", "--tasks", "2"]) == 0
        out = capsys.readouterr().out
        assert "cache hits=0 misses=0" in out


class TestServe:
    def test_serve_demo_reports_throughput_and_scenarios(self, capsys):
        argv = [
            "serve",
            "--requests", "24",
            "--rows", "2",
            "--clients", "2",
            "--scenarios", "ES,FR",
            "--max-wait-ms", "1.0",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "served 24 requests × 2 rows" in out
        assert "rows/s" in out
        assert "batches:" in out
        assert "ES: 12 requests" in out
        assert "FR: 12 requests" in out

    def test_serve_checkpoint_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "model.npz"
        save_argv = [
            "serve",
            "--requests", "4",
            "--scenarios", "ES",
            "--save-checkpoint", str(path),
        ]
        assert main(save_argv) == 0
        assert path.exists()
        assert "saved self-describing checkpoint" in capsys.readouterr().out
        load_argv = [
            "serve",
            "--requests", "4",
            "--scenarios", "ES",
            "--checkpoint", str(path),
        ]
        assert main(load_argv) == 0
        assert "served 4 requests" in capsys.readouterr().out

    def test_serve_rejects_empty_scenarios(self):
        with pytest.raises(SystemExit):
            main(["serve", "--scenarios", ","])
