"""The batched SoA core must equal the scalar oracle field-for-field.

Every test here compares complete :class:`SimulationResult` objects —
all fields, including event lists and (when recorded) the four
per-instruction timeline columns — because the batched kernel's whole
contract is bit-exactness against :class:`SuperscalarCore`.
"""

from __future__ import annotations

import gc
import weakref
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sanitizer
from repro.perf.batchcore import (
    BatchedSuperscalarCore,
    TraceColumns,
    run_batch,
)
from repro.pipeline.config import CoreConfig
from repro.trace.profiles import WorkloadProfile
from repro.trace.stream import Trace
from repro.trace.synthetic import generate_trace
from repro.util.rng import derive_seed
from repro.workloads.spec_profiles import SPEC_PROFILES

from tests.pipeline.scalar_core import SuperscalarCore


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


def _width(width, **overrides):
    return CoreConfig(
        dispatch_width=width,
        issue_width=width,
        commit_width=width,
        **overrides,
    )


# Wrong-path ghosts, random issue and both, run over every suite profile.
MODE_CONFIGS = (
    [
        _width(width, rob_size=rob, dispatch_wrong_path=True)
        for rob in (32, 128, 256)
        for width in (1, 4, 8)
    ]
    + [CoreConfig(issue_policy="random", seed=s) for s in (0, 1, 7)]
    + [
        CoreConfig(issue_policy="random", seed=3, dispatch_wrong_path=True),
        _width(8, rob_size=32, issue_policy="random", seed=4,
               dispatch_wrong_path=True),
        _width(1, rob_size=32, issue_policy="random", seed=5,
               dispatch_wrong_path=True),
    ]
)


def suite_trace(name, length=1_500):
    return generate_trace(
        SPEC_PROFILES[name], length, seed=derive_seed(2006, name)
    )


class TestKernelModes:
    """Every out-of-order mode runs on the kernel, never the scalar core."""

    def assert_runs_on_kernel(self, monkeypatch, config):
        trace = generate_trace(profile(), 600, seed=19)

        def refuse(self, *args, **kwargs):
            raise AssertionError("an out-of-order run took the scalar core")

        monkeypatch.setattr(SuperscalarCore, "run", refuse)
        [result] = run_batch(trace, [config])
        monkeypatch.undo()
        assert_result_equal(result, SuperscalarCore(config).run(trace))

    def test_default_config_runs_on_the_kernel(self, monkeypatch, kernel_path):
        self.assert_runs_on_kernel(monkeypatch, CoreConfig())

    def test_random_issue_runs_on_the_kernel(self, monkeypatch, kernel_path):
        self.assert_runs_on_kernel(
            monkeypatch, CoreConfig(issue_policy="random", seed=5)
        )

    def test_wrong_path_dispatch_runs_on_the_kernel(
        self, monkeypatch, kernel_path
    ):
        self.assert_runs_on_kernel(
            monkeypatch, CoreConfig(dispatch_wrong_path=True)
        )


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

    def test_random_issue_kernel_equals_oracle(self):
        trace = generate_trace(profile(), 800, seed=23)
        config = CoreConfig(issue_policy="random")
        assert_batch_matches_oracle(trace, [config])

    def test_mixed_mode_batch_kernel_equals_oracle(self):
        trace = generate_trace(profile(), 800, seed=29)
        configs = [
            CoreConfig(),
            CoreConfig(issue_policy="random"),
            CoreConfig(rob_size=32),
            CoreConfig(dispatch_wrong_path=True),
        ]
        assert_batch_matches_oracle(trace, configs)

    @pytest.mark.parametrize("name", sorted(SPEC_PROFILES))
    def test_kernel_modes_on_suite_profiles(self, name, kernel_path):
        """Ghosts and random issue equal the scalar core field for field:
        events with their wrong-path counts, FU issue counts (issued
        ghosts included), the ROB peak and the squashed-ghost count."""
        trace = suite_trace(name)
        results = run_batch(trace, MODE_CONFIGS)
        for config, result in zip(MODE_CONFIGS, results):
            oracle = SuperscalarCore(config).run(trace)
            assert_result_equal(result, oracle, f"config={config}")
            wrong_path = sum(
                e.wrong_path_instructions for e in result.mispredict_events
            )
            if config.dispatch_wrong_path:
                assert result.squashed_ghosts == wrong_path > 0
            else:
                assert result.squashed_ghosts == wrong_path == 0

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


class TestWrongPathGhosts:
    def test_ghosts_fill_a_small_window(self, kernel_path):
        """A small ROB behind a wide stall caps ghost dispatch.

        Ghosts dispatch at every cycle from the stall to the branch's
        issue (its completion minus the one-cycle branch latency), a
        full width per cycle after the first, unless the window is full;
        fewer ghosts than that means a full window held them back.
        """
        config = _width(8, rob_size=32, dispatch_wrong_path=True)
        trace = suite_trace("gcc")
        [result] = run_batch(trace, [config])
        assert_result_equal(result, SuperscalarCore(config).run(trace))
        assert result.rob_peak_occupancy == config.rob_size
        assert any(
            e.wrong_path_instructions < 8 * (e.resolve_cycle - 1 - e.cycle)
            for e in result.mispredict_events
        ), "no stall filled the window"

    def test_issued_ghosts_count_as_fu_issues(self, kernel_path):
        trace = suite_trace("twolf")
        plain, ghost = run_batch(
            trace, [CoreConfig(), CoreConfig(dispatch_wrong_path=True)]
        )
        assert sum(plain.fu_issue_counts.values()) == len(trace)
        assert sum(ghost.fu_issue_counts.values()) > len(trace)


class TestTraceColumns:
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
    def test_timeline_columns_are_typed_int64(self, kernel_path):
        trace = generate_trace(profile(), 2000, seed=53)
        [result] = run_batch(trace, [CoreConfig()])
        columns = (
            result.dispatch_cycle,
            result.issue_cycle,
            result.complete_cycle,
            result.commit_cycle,
        )
        for column in columns:
            assert isinstance(column, array)
            assert column.typecode == "q" and column.itemsize == 8
            assert len(column) == len(trace)
        assert max(max(column) for column in columns) > 256


CONFIG_STRATEGY = st.builds(
    CoreConfig,
    rob_size=st.sampled_from([16, 32, 64, 128, 256]),
    dispatch_width=st.sampled_from([1, 2, 4, 8]),
    issue_width=st.sampled_from([1, 2, 4, 8]),
    commit_width=st.sampled_from([1, 2, 4]),
    frontend_depth=st.integers(min_value=1, max_value=12),
    issue_policy=st.sampled_from(["oldest", "random"]),
    dispatch_wrong_path=st.booleans(),
    record_timeline=st.booleans(),
    seed=st.integers(min_value=0, max_value=1000),
)


def sanitized_report(run):
    """``run()`` under a fresh ambient sanitizer; returns its report."""
    sanitizer.reset()
    sanitizer.enable()
    try:
        run()
        return sanitizer.drain_report()
    finally:
        sanitizer.disable()
        sanitizer.reset()


def assert_reports_equal(got, want, context=""):
    assert (got.runs, got.checks_run, got.ok, got.violations) == (
        want.runs, want.checks_run, want.ok, want.violations
    ), context


# The baseline, ghosts in a small and a large window, random issue, and
# the narrowest and widest machines.
SANITIZED_CONFIGS = [
    CoreConfig(),
    CoreConfig(rob_size=32, dispatch_wrong_path=True),
    CoreConfig(rob_size=128, dispatch_wrong_path=True),
    CoreConfig(issue_policy="random", seed=3),
    _width(1),
    _width(8),
]


class TestSanitizedKernel:
    """The kernel makes the oracle's sanitizer checks: equal reports."""

    @pytest.mark.parametrize("name", sorted(SPEC_PROFILES))
    def test_report_matches_the_oracle_on_suite_profiles(self, name):
        trace = suite_trace(name)
        for config in SANITIZED_CONFIGS:
            got = sanitized_report(lambda: run_batch(trace, [config]))
            want = sanitized_report(lambda: SuperscalarCore(config).run(trace))
            assert_reports_equal(got, want, f"config={config}")
            assert got.runs == 1 and got.ok, got.render()
            # A commit and a dispatch check per instruction at least.
            assert got.checks_run > 2 * len(trace)

    def test_one_report_over_a_batch(self):
        trace = suite_trace("mcf")
        got = sanitized_report(lambda: run_batch(trace, SANITIZED_CONFIGS))
        want = sanitized_report(
            lambda: [SuperscalarCore(c).run(trace) for c in SANITIZED_CONFIGS]
        )
        assert_reports_equal(got, want)
        assert got.runs == len(SANITIZED_CONFIGS)

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        configs=st.lists(CONFIG_STRATEGY, min_size=1, max_size=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_report_matches_the_oracle_on_random_configs(self, seed, configs):
        trace = generate_trace(profile(), 300, seed=seed)
        got = sanitized_report(lambda: run_batch(trace, configs))
        want = sanitized_report(
            lambda: [SuperscalarCore(c).run(trace) for c in configs]
        )
        assert_reports_equal(got, want, f"seed={seed}")
        assert got.ok, got.render()


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
