"""The batched SoA core must equal the scalar oracle field-for-field.

Every test here compares complete :class:`SimulationResult` objects —
all fields, including event lists and (when recorded) the four
per-instruction timeline columns — because the batched kernel's whole
contract is bit-exactness against :class:`SuperscalarCore`.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sanitizer
from repro.perf.batchcore import (
    BatchedSuperscalarCore,
    TraceColumns,
    batch_supported,
    run_batch,
)
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import SuperscalarCore
from repro.trace.profiles import WorkloadProfile
from repro.trace.stream import Trace
from repro.trace.synthetic import generate_trace


def profile(**overrides):
    params = dict(
        name="batchcore-eq",
        mispredict_rate=0.06,
        il1_mpki=2.0,
        dl1_miss_rate=0.05,
        dl2_miss_rate=0.02,
    )
    params.update(overrides)
    return WorkloadProfile(**params)


def assert_result_equal(batched, scalar, context=""):
    assert vars(batched) == vars(scalar), context


def assert_batch_matches_oracle(trace, configs):
    results = run_batch(trace, configs)
    assert len(results) == len(configs)
    for config, result in zip(configs, results):
        oracle = SuperscalarCore(config).run(trace)
        assert_result_equal(result, oracle, f"config={config}")


class TestBatchSupported:
    def test_default_config_is_supported(self):
        assert batch_supported(CoreConfig())

    def test_random_issue_falls_back(self):
        assert not batch_supported(CoreConfig(issue_policy="random"))

    def test_wrong_path_dispatch_falls_back(self):
        assert not batch_supported(CoreConfig(dispatch_wrong_path=True))


class TestEdgeCases:
    def test_empty_trace(self):
        trace = Trace(records=[])
        for result in run_batch(trace, [CoreConfig(), CoreConfig(rob_size=32)]):
            assert result.instructions == 0
            assert result.cycles == 0

    def test_empty_config_list(self):
        trace = generate_trace(profile(), 50, seed=1)
        assert BatchedSuperscalarCore([]).run(trace) == []

    def test_single_instruction(self):
        trace = generate_trace(profile(), 1, seed=3)
        assert_batch_matches_oracle(trace, [CoreConfig()])

    def test_plan_reused_across_runs(self):
        core = BatchedSuperscalarCore([CoreConfig(), CoreConfig(rob_size=48)])
        trace = generate_trace(profile(), 300, seed=5)
        first = core.run(trace)
        again = core.run(trace)
        for a, b in zip(first, again):
            assert_result_equal(a, b)


class TestOracleEquality:
    @pytest.mark.parametrize("seed", [7, 42, 2006])
    def test_rob_sweep_matches_scalar(self, seed):
        trace = generate_trace(profile(), 1500, seed=seed)
        configs = [CoreConfig(rob_size=r) for r in (16, 32, 64, 128, 256)]
        assert_batch_matches_oracle(trace, configs)

    def test_width_and_latency_variants(self):
        trace = generate_trace(profile(), 1200, seed=11)
        base = CoreConfig()
        configs = [
            base,
            base.with_overrides(issue_width=1, dispatch_width=1, commit_width=1),
            base.with_overrides(issue_width=8, dispatch_width=8, rob_size=256),
            base.with_overrides(l1_latency=1, l2_latency=20, memory_latency=400),
            base.with_overrides(frontend_depth=12),
            base.with_overrides(record_timeline=False),
        ]
        assert_batch_matches_oracle(trace, configs)

    def test_timeline_off_leaves_columns_unset(self):
        trace = generate_trace(profile(), 400, seed=17)
        [result] = run_batch(trace, [CoreConfig(record_timeline=False)])
        assert result.dispatch_cycle is None
        assert result.issue_cycle is None
        assert result.complete_cycle is None
        assert result.commit_cycle is None

    def test_unsupported_config_uses_oracle(self):
        trace = generate_trace(profile(), 800, seed=23)
        config = CoreConfig(issue_policy="random")
        assert_batch_matches_oracle(trace, [config])

    def test_mixed_batch_supported_and_fallback(self):
        trace = generate_trace(profile(), 800, seed=29)
        configs = [
            CoreConfig(),
            CoreConfig(issue_policy="random"),
            CoreConfig(rob_size=32),
            CoreConfig(dispatch_wrong_path=True),
        ]
        assert_batch_matches_oracle(trace, configs)

    def test_memory_heavy_profile(self):
        heavy = profile(dl1_miss_rate=0.25, dl2_miss_rate=0.4, il1_mpki=12.0)
        trace = generate_trace(heavy, 1000, seed=31)
        assert_batch_matches_oracle(
            trace, [CoreConfig(), CoreConfig(rob_size=32)]
        )

    def test_branch_heavy_profile(self):
        branchy = profile(mispredict_rate=0.25)
        trace = generate_trace(branchy, 1000, seed=37)
        assert_batch_matches_oracle(
            trace, [CoreConfig(), CoreConfig(frontend_depth=15)]
        )


@pytest.fixture
def kernel_path(monkeypatch):
    """No ambient sanitizer, so supported configs run on the kernel."""
    monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
    sanitizer.reset()
    yield
    sanitizer.reset()


class TestTraceColumns:
    def test_columns_are_cached_per_core_instance(self):
        trace = generate_trace(profile(), 200, seed=41)
        core = BatchedSuperscalarCore([CoreConfig()])
        cols = core._plan_for(trace).cols
        assert core._plan_for(trace).cols is cols
        other = BatchedSuperscalarCore([CoreConfig()])
        assert other._plan_for(trace).cols is not cols
        trace.extend(generate_trace(profile(), 10, seed=43).records)
        rebuilt = core._plan_for(trace).cols
        assert rebuilt is not cols
        assert rebuilt.n == len(trace)

    def test_finished_run_batch_frees_the_columns(
        self, monkeypatch, kernel_path
    ):
        built = []
        from_packed = TraceColumns.from_packed

        def recording(packed):
            cols = from_packed(packed)
            built.append(weakref.ref(cols))
            return cols

        monkeypatch.setattr(TraceColumns, "from_packed", recording)
        trace = generate_trace(profile(), 300, seed=47)
        results = run_batch(trace, [CoreConfig(), CoreConfig(rob_size=32)])
        gc.collect()
        assert len(built) == 1
        assert built[0]() is None
        assert len(results) == 2


class TestResultMemory:
    def test_timeline_columns_share_one_object_per_value(self, kernel_path):
        trace = generate_trace(profile(), 2000, seed=53)
        [result] = run_batch(trace, [CoreConfig()])
        columns = (
            result.dispatch_cycle,
            result.issue_cycle,
            result.complete_cycle,
            result.commit_cycle,
        )
        objects = {id(value) for column in columns for value in column}
        values = {value for column in columns for value in column}
        assert max(values) > 256  # beyond CPython's small-int cache
        assert len(objects) == len(values)


CONFIG_STRATEGY = st.builds(
    CoreConfig,
    rob_size=st.sampled_from([16, 32, 64, 128, 256]),
    dispatch_width=st.sampled_from([1, 2, 4, 8]),
    issue_width=st.sampled_from([1, 2, 4, 8]),
    commit_width=st.sampled_from([1, 2, 4]),
    frontend_depth=st.integers(min_value=1, max_value=12),
    issue_policy=st.sampled_from(["oldest", "random"]),
    record_timeline=st.booleans(),
)


class TestBatchProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        configs=st.lists(CONFIG_STRATEGY, min_size=1, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_equals_scalar(self, seed, configs):
        trace = generate_trace(profile(), 300, seed=seed)
        assert_batch_matches_oracle(trace, configs)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_batch_order_is_config_order(self, seed):
        trace = generate_trace(profile(), 200, seed=seed)
        configs = [CoreConfig(rob_size=r) for r in (128, 16, 64)]
        results = run_batch(trace, configs)
        singles = [run_batch(trace, [c])[0] for c in configs]
        for batched, single in zip(results, singles):
            assert_result_equal(batched, single)
