"""Throughput benchmarks of the simulators themselves.

Unlike the experiment benches (timed once — their output is the table),
these measure the infrastructure: instructions simulated per second for
the cycle-level core, the in-order core, and interval simulation, plus
trace generation and trace-file loading. Several rounds give real timing distributions.
"""

import pytest

from repro.interval.model import IntervalModel
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.pipeline.inorder import simulate_inorder
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace

N = 20_000


@pytest.fixture(scope="module")
def trace():
    return generate_trace(WorkloadProfile(name="speed"), N, seed=99)


@pytest.fixture(scope="module")
def config():
    return CoreConfig()


def test_throughput_trace_generation(benchmark):
    profile = WorkloadProfile(name="speed")
    result = benchmark.pedantic(
        lambda: generate_trace(profile, N, seed=1),
        rounds=3,
        iterations=1,
    )
    assert len(result) == N


def test_throughput_ooo_core(benchmark, trace, config):
    result = benchmark.pedantic(
        lambda: simulate(trace, config), rounds=3, iterations=1
    )
    assert result.instructions == N


def test_throughput_ooo_core_no_timeline(benchmark, trace):
    config = CoreConfig(record_timeline=False)
    result = benchmark.pedantic(
        lambda: simulate(trace, config), rounds=3, iterations=1
    )
    assert result.instructions == N


def test_throughput_inorder_core(benchmark, trace, config):
    result = benchmark.pedantic(
        lambda: simulate_inorder(trace, config), rounds=3, iterations=1
    )
    assert result.instructions == N


def test_throughput_interval_simulation(benchmark, trace, config):
    model = IntervalModel(config)
    estimate = benchmark.pedantic(
        lambda: model.estimate(trace), rounds=3, iterations=1
    )
    assert estimate.instructions == N


def test_throughput_trace_file_load(benchmark, trace, tmp_path):
    from repro.trace.io import load_trace, save_trace

    path = tmp_path / "speed.trc"
    save_trace(trace, path)
    loaded = benchmark.pedantic(
        lambda: load_trace(path), rounds=3, iterations=1
    )
    assert len(loaded) == N
