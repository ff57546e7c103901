"""Simulation results survive the store's binary objects field for field.

Every core's result goes ``result_to_payload`` -> ``ResultStore.put`` ->
``ResultStore.get`` -> ``result_from_payload`` and must come back equal
to the original, typed cycle columns included.
"""

from __future__ import annotations

from array import array

import pytest

from repro.lab.codec import CYCLE_COLUMNS, result_from_payload, result_to_payload
from repro.lab.store import ResultStore
from repro.perf.batchcore import run_batch
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.pipeline.inorder import simulate_inorder
from repro.trace.synthetic import generate_trace
from repro.workloads.spec_profiles import SPEC_PROFILES


@pytest.fixture(scope="module")
def trace():
    return generate_trace(SPEC_PROFILES["mcf"], 3_000, seed=41)


def _through_store(tmp_path, result):
    store = ResultStore(root=tmp_path)
    key = "5e" * 32
    store.put(key, result_to_payload(result), meta={"core": "test"})
    payload = store.get(key)
    assert payload is not None
    assert store.stats.hits == 1
    return result_from_payload(payload)


CORES = {
    "simulate": lambda trace, config: simulate(trace, config),
    "run_batch": lambda trace, config: run_batch(trace, [config])[0],
    "simulate_inorder": lambda trace, config: simulate_inorder(trace, config),
}


@pytest.mark.parametrize("core", sorted(CORES))
@pytest.mark.parametrize("record_timeline", [True, False])
def test_result_round_trips_field_exact(tmp_path, trace, core, record_timeline):
    config = CoreConfig(record_timeline=record_timeline)
    result = CORES[core](trace, config)
    decoded = _through_store(tmp_path, result)
    assert decoded == result
    assert decoded.events == result.events
    for name in CYCLE_COLUMNS:
        column = getattr(result, name)
        if column is None:
            assert getattr(decoded, name) is None
        else:
            assert isinstance(column, array) and column.typecode == "q"
            assert list(getattr(decoded, name)) == list(column)


def test_timeline_off_stores_no_columns(tmp_path, trace):
    result = simulate(trace, CoreConfig(record_timeline=False))
    assert all(getattr(result, name) is None for name in CYCLE_COLUMNS)
    assert _through_store(tmp_path, result) == result
