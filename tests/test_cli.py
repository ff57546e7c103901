"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out
        assert "pointer_chase" in out
        assert "f16" in out


class TestSimulate:
    def test_workload_simulation(self, capsys):
        assert main([
            "simulate", "--workload", "gzip", "--length", "3000",
        ]) == 0
        out = capsys.readouterr().out
        assert "instructions      : 3000" in out
        assert "mean penalty" in out
        assert "CPI stack" in out

    def test_kernel_simulation(self, capsys):
        assert main(["simulate", "--kernel", "fibonacci"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out

    def test_structural_kernel(self, capsys):
        assert main([
            "simulate", "--kernel", "branchy_search", "--structural",
        ]) == 0
        out = capsys.readouterr().out
        assert "mispredictions" in out

    def test_config_flags_respected(self, capsys):
        main(["simulate", "--workload", "gzip", "--length", "3000",
              "--frontend-depth", "20"])
        deep = capsys.readouterr().out
        main(["simulate", "--workload", "gzip", "--length", "3000"])
        shallow = capsys.readouterr().out

        def cycles(text):
            for line in text.splitlines():
                if line.startswith("cycles"):
                    return int(line.split(":")[1])
            raise AssertionError("no cycles line")

        assert cycles(deep) > cycles(shallow)

    def test_inorder_flag_slower(self, capsys):
        main(["simulate", "--workload", "gzip", "--length", "3000",
              "--inorder"])
        in_order = capsys.readouterr().out
        main(["simulate", "--workload", "gzip", "--length", "3000"])
        out_of_order = capsys.readouterr().out

        def ipc(text):
            for line in text.splitlines():
                if line.startswith("IPC"):
                    return float(line.split(":")[1])
            raise AssertionError("no IPC line")

        assert ipc(in_order) <= ipc(out_of_order)

    def test_unknown_workload_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "nonesuch"])

    def test_requires_exactly_one_source(self):
        with pytest.raises(SystemExit):
            main(["simulate"])
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "gzip", "--kernel", "fibonacci"])


class TestDecompose:
    def test_decompose_workload(self, capsys):
        assert main([
            "decompose", "--workload", "twolf", "--length", "5000",
            "--max-events", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "C1 frontend refill" in out
        assert "C5 short (L1) D-cache misses" in out


class TestTraceRoundTrip:
    def test_trace_and_info(self, tmp_path, capsys):
        path = tmp_path / "t.trc"
        assert main([
            "trace", "--workload", "mcf", "--length", "2000",
            "--out", str(path),
        ]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["trace-info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "instructions        : 2000" in out
        assert "dataflow IPC" in out

    def test_simulate_from_file(self, tmp_path, capsys):
        path = tmp_path / "t.trc"
        main(["trace", "--workload", "gzip", "--length", "2000",
              "--out", str(path)])
        capsys.readouterr()
        assert main(["simulate", "--trace", str(path)]) == 0
        assert "IPC" in capsys.readouterr().out


class TestExperiment:
    def test_runs_t1(self, capsys):
        assert main(["experiment", "t1"]) == 0
        assert "Baseline processor configuration" in capsys.readouterr().out

    def test_markdown_mode(self, capsys):
        assert main(["experiment", "t1", "--markdown"]) == 0
        assert "| parameter | value |" in capsys.readouterr().out

    def test_unknown_experiment_exits(self):
        with pytest.raises(SystemExit):
            main(["experiment", "f99"])


class TestReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report", "t1"]) == 0
        out = capsys.readouterr().out
        assert "### T1" in out
        assert "| parameter | value |" in out

    def test_report_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main(["report", "t1", "--out", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("# Reproduction report")
        assert "### T1" in text


class TestSuiteCommand:
    def test_suite_small(self, capsys):
        assert main(["suite", "--length", "2000"]) == 0
        out = capsys.readouterr().out
        assert "twolf" in out
        assert "penalty/frontend" in out


class TestQuiet:
    def test_quiet_suppresses_progress_but_not_results(self, tmp_path, capsys):
        path = tmp_path / "t.trc"
        assert main(["trace", "-q", "--workload", "gzip",
                     "--length", "2000", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.exists()

    def test_results_still_print_under_quiet(self, capsys):
        assert main(["simulate", "--quiet", "--workload", "gzip",
                     "--length", "2000"]) == 0
        out = capsys.readouterr().out
        assert "instructions      : 2000" in out


class TestTraceExport:
    def test_trace_out_is_perfetto_loadable(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main(["simulate", "--workload", "gzip", "--length", "3000",
                     "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        mispredicts = None
        for line in out.splitlines():
            if line.startswith("mispredictions"):
                mispredicts = int(line.split(":")[1])
        document = json.loads(path.read_text())
        spans = [e for e in document["traceEvents"]
                 if e.get("name") == "mispredict"]
        assert len(spans) == mispredicts > 0
        for span in spans:
            assert span["dur"] == span["args"]["penalty_cycles"]

    def test_trace_jsonl_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        assert main(["simulate", "--workload", "gzip", "--length", "2000",
                     "--trace-jsonl", str(path)]) == 0
        capsys.readouterr()
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_obs_trace_verb(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "obs.json"
        assert main(["obs", "trace", "--workload", "gzip",
                     "--length", "2000", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "mispredict span(s)" in out
        assert "traceEvents" in json.loads(out_path.read_text()) or True
        document = json.loads(out_path.read_text())
        assert any(e.get("name") == "interval_boundary"
                   for e in document["traceEvents"])


class TestObsMetrics:
    # The harness's simulate_workload caches (in-process LRU + the
    # persistent store) are redirected/cleared so the experiment really
    # simulates — a cache-served result records no metrics, by design.

    @pytest.fixture(autouse=True)
    def _cold_harness_caches(self):
        from repro.harness import runner

        runner._sim_cache.clear()
        yield
        runner._sim_cache.clear()

    def test_lab_run_metrics_then_render(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["lab", "run", "f1", "--workers", "1", "--metrics",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "view with `repro obs metrics" in out
        assert main(["obs", "metrics", "latest",
                     "--cache-dir", str(tmp_path)]) == 0
        first = capsys.readouterr().out
        assert "core.instructions_total" in first
        assert "counters:" in first

    def test_metrics_render_is_quiet_clean(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        main(["lab", "run", "f1", "-q", "--workers", "1", "--metrics",
              "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["obs", "metrics", "-q", "latest",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("counters:")

    def test_missing_metrics_reports_and_fails(self, tmp_path, capsys):
        main(["lab", "run", "t1", "-q", "--workers", "1",
              "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["obs", "metrics", "latest",
                     "--cache-dir", str(tmp_path)]) == 1
        assert "no metrics recorded" in capsys.readouterr().out


class TestProfile:
    def test_profile_reports_phases(self, capsys):
        assert main(["profile", "--workload", "gzip",
                     "--length", "2000", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "cli.simulate" in out
        assert "fast_sim.estimate" in out
        assert "share" in out


class TestProfileSpanFold:
    def test_rows_sum_exactly_to_the_root_span(self, capsys):
        """The stage rows are a span fold: their integer nanoseconds
        (the exact decimal seconds column) sum to the total row, which
        is the root span's duration."""
        assert main(["profile", "--workload", "gzip", "--length", "2000"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["stage", "seconds", "share"]
        rows = {}
        for line in lines[2:]:
            name, seconds, _share = line.split()
            rows[name] = int(seconds.replace(".", ""))
        total = rows.pop("total")
        assert {"cli.trace_gen", "cli.simulate", "cli.analyze"} <= set(rows)
        assert sum(rows.values()) == total > 0


class TestLabFsck:
    def _seed_store(self, tmp_path, capsys):
        assert main(["lab", "run", "f1", "-q", "--workers", "1",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_clean_store_exits_zero(self, tmp_path, capsys):
        self._seed_store(tmp_path, capsys)
        assert main(["lab", "fsck", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_corruption_exits_one_with_repair_hint(self, tmp_path, capsys):
        from repro.lab import ResultStore

        self._seed_store(tmp_path, capsys)
        store = ResultStore(root=tmp_path)
        [path] = list(store.iter_objects())
        path.write_bytes(b"{torn")
        assert main(["lab", "fsck", "--cache-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "unrepaired" in out
        assert "--repair" in out

    def test_repair_quarantines_and_exits_zero(self, tmp_path, capsys):
        from repro.lab import ResultStore

        self._seed_store(tmp_path, capsys)
        store = ResultStore(root=tmp_path)
        [path] = list(store.iter_objects())
        path.write_bytes(b"{torn")
        assert main(["lab", "fsck", "--repair",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(ResultStore(root=tmp_path).quarantined_files()) == 1

    def test_json_report_to_output_file(self, tmp_path, capsys):
        import json

        self._seed_store(tmp_path, capsys)
        report = tmp_path / "fsck-report.json"
        assert main(["lab", "fsck", "--cache-dir", str(tmp_path),
                     "--format", "json", "--output", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["ok"] is True
        assert doc["scanned"]["objects"] >= 1


class TestLabResume:
    def test_run_then_resume_replays_from_store(self, tmp_path, capsys):
        assert main(["lab", "run", "f1", "--workers", "1",
                     "--run-id", "cli-demo",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["lab", "run", "f1", "--workers", "1",
                     "--resume", "cli-demo",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out


class TestSweep:
    def test_scalar_sweep_prints_table(self, tmp_path, capsys):
        assert main([
            "sweep", "--workload", "gzip", "--parameter", "rob_size",
            "--values", "32,64", "--length", "2000",
            "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "rob_size" in out
        assert "32" in out and "64" in out

    def test_batched_sweep_matches_scalar_sweep(self, tmp_path, capsys):
        args = [
            "sweep", "--workload", "gzip", "--parameter", "rob_size",
            "--values", "32,64,128", "--length", "2000", "--no-cache",
        ]
        assert main(args) == 0
        scalar_out = capsys.readouterr().out
        assert main(args + ["--batch", "--batch-size", "2"]) == 0
        batch_out = capsys.readouterr().out
        scalar_rows = [l for l in scalar_out.splitlines() if l.strip()]
        batch_rows = [l for l in batch_out.splitlines() if l.strip()]
        # identical tables after the mode header: IPC, cycles, events
        assert scalar_rows[1:6] == batch_rows[1:6]

    def test_unknown_workload_exits(self):
        with pytest.raises(SystemExit):
            main([
                "sweep", "--workload", "nosuch", "--parameter", "rob_size",
                "--values", "32", "--no-cache",
            ])

    def test_batched_inorder_rejected(self):
        with pytest.raises(SystemExit):
            main([
                "sweep", "--workload", "gzip", "--parameter", "rob_size",
                "--values", "32", "--batch", "--inorder", "--no-cache",
            ])
