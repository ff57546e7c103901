"""Byte-level determinism: same config + seed ⇒ identical results.

The lab's content-addressed store and the analysis pack both assume a
simulation is a pure function of (trace, config). Serialize two
back-to-back runs through lab.codec's encoder and compare the exact
bytes.
"""

from __future__ import annotations

import pytest

from repro.lab.codec import encode_payload, result_to_payload
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.pipeline.inorder import simulate_inorder
from repro.trace.synthetic import generate_trace
from repro.workloads.spec_profiles import SPEC_PROFILES


def canonical_bytes(result) -> bytes:
    return encode_payload(result_to_payload(result))


@pytest.mark.parametrize("workload", ["gzip", "mcf"])
def test_back_to_back_simulations_are_byte_identical(workload):
    config = CoreConfig()
    first = simulate(
        generate_trace(SPEC_PROFILES[workload], 6_000, seed=2006), config
    )
    second = simulate(
        generate_trace(SPEC_PROFILES[workload], 6_000, seed=2006), config
    )
    assert canonical_bytes(first) == canonical_bytes(second)


def test_inorder_model_is_deterministic_too():
    config = CoreConfig()
    trace = generate_trace(SPEC_PROFILES["twolf"], 6_000, seed=7)
    first = simulate_inorder(trace, config)
    second = simulate_inorder(trace, config)
    assert first == second


def test_different_seed_changes_the_bytes():
    config = CoreConfig()
    a = simulate(generate_trace(SPEC_PROFILES["gzip"], 6_000, seed=1), config)
    b = simulate(generate_trace(SPEC_PROFILES["gzip"], 6_000, seed=2), config)
    assert canonical_bytes(a) != canonical_bytes(b)


def test_different_config_changes_the_bytes():
    trace = generate_trace(SPEC_PROFILES["gzip"], 6_000, seed=1)
    a = simulate(trace, CoreConfig())
    b = simulate(trace, CoreConfig(rob_size=32))
    assert canonical_bytes(a) != canonical_bytes(b)
