"""simulate_workload_batch must share the scalar cache and equal the oracle."""

import pytest

import repro.harness.runner as runner
from repro.analysis import sanitizer
from repro.harness.runner import (
    baseline_config,
    clear_caches,
    simulate_workload,
    simulate_workload_batch,
    workload_trace,
)
from repro.perf import batchcore
from repro.pipeline.core import SuperscalarCore

_LENGTH = 600


def _sweep_cases():
    """(figure, workloads, configs) of the F7, F9 and F19 sweeps."""
    base = baseline_config()
    return [
        (
            "f7",
            ("parser", "twolf", "crafty"),
            [
                base.with_scaled_fu_latencies(factor)
                for factor in (1.0, 1.5, 2.0, 3.0, 4.0)
            ],
        ),
        (
            "f9",
            ("parser", "twolf", "bzip2"),
            [base.with_overrides(rob_size=rob) for rob in (32, 64, 128, 256)],
        ),
        (
            "f19",
            ("parser", "twolf", "gzip"),
            [
                base.with_overrides(
                    dispatch_width=width,
                    issue_width=width,
                    commit_width=width,
                )
                for width in (1, 2, 4, 8)
            ],
        ),
    ]


class TestBatchRunner:
    def setup_method(self):
        clear_caches()

    def teardown_method(self):
        clear_caches()

    def test_batch_matches_scalar_per_config(self):
        configs = [
            baseline_config(),
            baseline_config().with_overrides(rob_size=32),
        ]
        batch = simulate_workload_batch("gzip", configs, length=500)
        for config, result in zip(configs, batch):
            clear_caches()  # force the scalar path to recompute
            scalar = simulate_workload("gzip", config, length=500)
            assert vars(result) == vars(scalar)

    def test_none_config_means_baseline(self):
        [from_none] = simulate_workload_batch("gzip", [None], length=500)
        scalar = simulate_workload("gzip", baseline_config(), length=500)
        assert vars(from_none) == vars(scalar)

    def test_batch_populates_scalar_cache(self):
        config = baseline_config().with_overrides(rob_size=48)
        simulate_workload_batch("gzip", [config], length=500)
        hits_before = runner.cache_stats()["sim"]["hits"]
        simulate_workload("gzip", config, length=500)
        assert runner.cache_stats()["sim"]["hits"] == hits_before + 1

    def test_batch_reads_scalar_cache(self):
        config = baseline_config().with_overrides(rob_size=96)
        scalar = simulate_workload("gzip", config, length=500)
        hits_before = runner.cache_stats()["sim"]["hits"]
        [batched] = simulate_workload_batch("gzip", [config], length=500)
        assert runner.cache_stats()["sim"]["hits"] == hits_before + 1
        assert vars(batched) == vars(scalar)

    def test_missing_result_raises_instead_of_shifting(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setattr(batchcore, "run_batch", lambda trace, configs: [])
        configs = [
            baseline_config(),
            baseline_config().with_overrides(rob_size=32),
        ]
        with pytest.raises(RuntimeError, match="config index"):
            simulate_workload_batch("gzip", configs, length=300)


class TestSweepsMatchOracle:
    """Every F7/F9/F19 point equals the scalar core, on both entry points."""

    def setup_method(self):
        clear_caches()

    def teardown_method(self):
        clear_caches()

    @pytest.mark.parametrize(
        "figure,names,configs",
        [pytest.param(*case, id=case[0]) for case in _sweep_cases()],
    )
    def test_sweep_points_equal_scalar_core(
        self, monkeypatch, figure, names, configs
    ):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        for name in names:
            trace = workload_trace(name, length=_LENGTH)
            oracle = [vars(SuperscalarCore(c).run(trace)) for c in configs]
            batched = simulate_workload_batch(name, configs, length=_LENGTH)
            assert [vars(r) for r in batched] == oracle, (figure, name)
            clear_caches()
            for config, expected in zip(configs, oracle):
                single = simulate_workload(name, config, length=_LENGTH)
                assert vars(single) == expected, (figure, name, config)


class TestMissPath:
    def setup_method(self):
        clear_caches()
        sanitizer.reset()

    def teardown_method(self):
        clear_caches()
        sanitizer.reset()

    def _count_kernel_runs(self, monkeypatch):
        calls = []
        kernel = batchcore._simulate_columns

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(batchcore, "_simulate_columns", counting)
        return calls

    def test_miss_runs_on_the_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
        calls = self._count_kernel_runs(monkeypatch)
        simulate_workload("gzip", length=400)
        assert len(calls) == 1

    def test_ambient_sanitizer_takes_the_oracle_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv(sanitizer.ENV_VAR, "1")
        calls = self._count_kernel_runs(monkeypatch)
        result = simulate_workload("gzip", length=400)
        assert calls == []
        report = sanitizer.drain_report()
        assert report is not None and report.checks_run > 0
        assert not report.violations
        trace = workload_trace("gzip", length=400)
        monkeypatch.delenv(sanitizer.ENV_VAR)
        sanitizer.reset()
        oracle = SuperscalarCore(baseline_config()).run(trace)
        assert vars(result) == vars(oracle)
