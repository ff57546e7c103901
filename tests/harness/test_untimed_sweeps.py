"""Which experiments simulate with a per-instruction timeline.

Sweep and ablation points are read only through their events and run
counters, so they run untimed; the suite baseline that F1 and F11 read
the dispatch and completion columns of stays timed. Each experiment
runs here at a short length through a spy on the harness's two
simulation entry points.
"""

import pytest

import repro.harness.experiments as experiments
from repro.harness.runner import (
    baseline_config,
    clear_caches,
    simulate_workload_batch,
    workload_trace,
)

_LENGTH = 2_000

UNTIMED = ("f7", "f9", "f13", "f14", "f19", "f20")
TIMED = ("t2", "f1", "f2", "f3", "f4", "f5", "f10", "t3", "f11")

#: Fields an untimed run must share with its timed twin.
_COUNTERS = (
    "events",
    "cycles",
    "fu_issue_counts",
    "rob_peak_occupancy",
    "squashed_ghosts",
)
_TIMELINE = ("dispatch_cycle", "issue_cycle", "complete_cycle", "commit_cycle")


@pytest.fixture
def simulations(monkeypatch):
    """Every (workload, config, result) the experiment under test asks
    the harness for, each simulated at ``_LENGTH`` instructions."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    clear_caches()
    seen = []

    def batch(name, configs, length=None, seed=experiments.DEFAULT_SEED):
        configs = [baseline_config() if c is None else c for c in configs]
        results = simulate_workload_batch(name, configs, _LENGTH, seed)
        seen.extend(zip([name] * len(configs), configs, results))
        return results

    def single(name, config=None, length=None, seed=experiments.DEFAULT_SEED):
        return batch(name, [config], length, seed)[0]

    def trace(name, length=None, seed=experiments.DEFAULT_SEED):
        return workload_trace(name, _LENGTH, seed)

    monkeypatch.setattr(experiments, "simulate_workload_batch", batch)
    monkeypatch.setattr(experiments, "simulate_workload", single)
    monkeypatch.setattr(experiments, "workload_trace", trace)
    yield seen
    clear_caches()


@pytest.mark.parametrize("experiment", UNTIMED)
def test_sweep_points_run_untimed_and_match_the_timed_run(
    simulations, experiment
):
    experiments.EXPERIMENTS[experiment]()
    assert simulations, experiment
    for name, config, result in simulations:
        assert not config.record_timeline, (experiment, name, config)
        assert all(getattr(result, column) is None for column in _TIMELINE)
        [timed] = simulate_workload_batch(
            name, [config.with_overrides(record_timeline=True)], _LENGTH
        )
        for field in _COUNTERS:
            assert getattr(result, field) == getattr(timed, field), (
                experiment, name, field
            )


@pytest.mark.parametrize("experiment", TIMED)
def test_suite_baseline_stays_timed(simulations, experiment):
    experiments.EXPERIMENTS[experiment]()
    assert simulations, experiment
    for name, config, result in simulations:
        assert config.record_timeline, (experiment, name)
        assert all(
            len(getattr(result, column)) == _LENGTH for column in _TIMELINE
        ), (experiment, name)


def test_untimed_points_share_one_baseline():
    """F13, F14 and F20's baselines and the sweeps' baseline points are
    one config, so the memo and the store hold one point for them."""
    base = experiments._untimed_baseline()
    assert base.with_scaled_fu_latencies(1.0) == base
    assert base.with_overrides(rob_size=128) == base
    assert base.with_overrides(
        dispatch_width=4, issue_width=4, commit_width=4
    ) == base
