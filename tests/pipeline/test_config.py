"""Unit tests for CoreConfig and FUSpec."""

import numpy as np
import pytest

from repro.isa.opcodes import OpClass
from repro.trace.columns import DCODE_L1_HIT, DCODE_LONG, DCODE_NONE, DCODE_SHORT
from repro.pipeline.annotate import price_loads
from repro.pipeline.config import DEFAULT_FU_SPECS, CoreConfig, FUSpec


class TestFUSpec:
    def test_valid(self):
        FUSpec(count=2, latency=3)

    def test_unpipelined(self):
        spec = FUSpec(count=1, latency=20, issue_interval=20)
        assert spec.issue_interval == spec.latency

    def test_issue_interval_cannot_exceed_latency(self):
        with pytest.raises(ValueError):
            FUSpec(count=1, latency=2, issue_interval=3)

    @pytest.mark.parametrize("field", ["count", "latency", "issue_interval"])
    def test_positive_fields(self, field):
        kwargs = dict(count=1, latency=1, issue_interval=1)
        kwargs[field] = 0
        with pytest.raises(ValueError):
            FUSpec(**kwargs)

    def test_scaled_doubles_latency(self):
        spec = FUSpec(count=2, latency=4).scaled(2.0)
        assert spec.latency == 8
        assert spec.count == 2
        assert spec.issue_interval == 1

    def test_scaled_keeps_unpipelined(self):
        spec = FUSpec(count=1, latency=10, issue_interval=10).scaled(2.0)
        assert spec.latency == 20
        assert spec.issue_interval == 20

    def test_scaled_floors_at_one(self):
        spec = FUSpec(count=1, latency=1).scaled(0.1)
        assert spec.latency == 1


class TestCoreConfig:
    def test_default_valid(self):
        config = CoreConfig()
        assert config.rob_size == 128
        assert config.frontend_depth == 5

    def test_all_op_classes_have_specs(self):
        config = CoreConfig()
        for op_class in OpClass:
            assert op_class in config.fu_specs

    def test_missing_fu_spec_rejected(self):
        specs = dict(DEFAULT_FU_SPECS)
        del specs[OpClass.IDIV]
        with pytest.raises(ValueError, match="missing"):
            CoreConfig(fu_specs=specs)

    def test_rob_smaller_than_dispatch_rejected(self):
        with pytest.raises(ValueError):
            CoreConfig(rob_size=2, dispatch_width=4)

    @pytest.mark.parametrize(
        "field", ["dispatch_width", "issue_width", "commit_width",
                  "rob_size", "frontend_depth", "l1_latency"]
    )
    def test_positive_fields(self, field):
        with pytest.raises(ValueError):
            CoreConfig(**{field: 0})

    def test_bad_issue_policy_rejected(self):
        with pytest.raises(ValueError, match="issue_policy"):
            CoreConfig(issue_policy="lifo")

    def test_with_overrides(self):
        config = CoreConfig().with_overrides(rob_size=64)
        assert config.rob_size == 64
        assert config.dispatch_width == 4

    def test_with_scaled_fu_latencies(self):
        config = CoreConfig().with_scaled_fu_latencies(2.0)
        assert config.fu_specs[OpClass.IMUL].latency == 6
        assert config.fu_specs[OpClass.IALU].latency == 2

    def test_load_latency_by_class(self):
        """A load is priced by miss class at the config's latencies
        (``price_loads``, the one pricing of a load)."""
        config = CoreConfig()
        latencies = (config.l1_latency, config.l2_latency, config.memory_latency)
        classes = np.array([DCODE_L1_HIT, DCODE_SHORT, DCODE_LONG, DCODE_NONE])
        assert price_loads(classes, *latencies).tolist() == [
            config.l1_latency,
            config.l2_latency,
            config.memory_latency,
            0,
        ]
        with pytest.raises(IndexError):
            price_loads(np.array([DCODE_LONG + 1]), *latencies)

    def test_describe_has_core_rows(self):
        rows = dict(CoreConfig().describe())
        assert "frontend pipeline depth" in rows
        assert "ROB / issue window" in rows
