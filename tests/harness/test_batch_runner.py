"""simulate_workload_batch must share the scalar cache."""

import repro.harness.runner as runner
from repro.harness.runner import (
    baseline_config,
    clear_caches,
    simulate_workload,
    simulate_workload_batch,
)


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
