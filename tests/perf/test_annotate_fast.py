"""The packed oracle-annotation path must not change simulation results."""

from __future__ import annotations

import pytest

from repro.lab.codec import encode_payload, result_to_payload
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace

from tests.pipeline.annotate_fast import annotation_table, oracle_annotations
from tests.pipeline.record_annotate import OracleAnnotator
from tests.trace.records import records_of


def make(seed=21, length=1500):
    profile = WorkloadProfile(
        name="annot-test",
        mispredict_rate=0.08,
        il1_mpki=4.0,
        dl1_miss_rate=0.06,
        dl2_miss_rate=0.02,
    )
    return generate_trace(profile, length, seed)


def test_oracle_annotations_match_scalar_annotator():
    trace = make()
    config = CoreConfig()
    annotator = OracleAnnotator(config)
    fast = oracle_annotations(trace, config)
    assert len(fast) == len(trace)
    for seq, record in enumerate(records_of(trace)):
        assert fast[seq] == annotator.annotate(record)


@pytest.mark.parametrize("seed", [21, 99])
def test_simulation_result_byte_identical(seed):
    """End to end: packed-oracle fast path vs the per-record annotator."""
    trace = make(seed)
    config = CoreConfig()
    via_fast = simulate(trace, config)
    via_scalar = simulate(trace, config, annotator=OracleAnnotator(config))
    fast_bytes = encode_payload(result_to_payload(via_fast))
    scalar_bytes = encode_payload(result_to_payload(via_scalar))
    assert fast_bytes == scalar_bytes


def test_annotation_table_covers_all_keys():
    table = annotation_table(CoreConfig())
    assert len(table) == 16
    mispredicted = [a for a in table if a.mispredicted]
    assert len(mispredicted) == 8
    with_icache = [a for a in table if a.icache_latency is not None]
    assert len(with_icache) == 8


def test_annotations_are_shared_instances():
    """One canonical object per key, not one fresh object per record."""
    trace = make(length=600)
    fast = oracle_annotations(trace, CoreConfig())
    assert len({id(a) for a in fast}) <= 16
