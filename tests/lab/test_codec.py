"""Round-trip tests for the store's codecs."""

import pytest

from repro.harness.experiment import ExperimentResult
from repro.lab.codec import (
    decode_payload,
    encode_payload,
    experiment_from_payload,
    experiment_to_payload,
    payload_from_value,
    result_from_payload,
    result_to_payload,
    value_from_payload,
)
from repro.lab.store import ResultStore
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.trace.synthetic import generate_trace
from repro.workloads.spec_profiles import SPEC_PROFILES


@pytest.fixture(scope="module")
def sim_result():
    trace = generate_trace(SPEC_PROFILES["gzip"], 2_000, seed=9)
    return simulate(trace, CoreConfig())


class TestSimulationResultCodec:
    def test_roundtrip_is_faithful(self, sim_result):
        decoded = result_from_payload(result_to_payload(sim_result))
        assert decoded.instructions == sim_result.instructions
        assert decoded.cycles == sim_result.cycles
        assert decoded.events == sim_result.events
        assert decoded.dispatch_cycle == sim_result.dispatch_cycle
        assert decoded.issue_cycle == sim_result.issue_cycle
        assert decoded.complete_cycle == sim_result.complete_cycle
        assert decoded.commit_cycle == sim_result.commit_cycle
        assert decoded.fu_issue_counts == sim_result.fu_issue_counts
        assert decoded.rob_peak_occupancy == sim_result.rob_peak_occupancy
        assert decoded.squashed_ghosts == sim_result.squashed_ghosts

    def test_roundtrip_survives_stored_bytes(self, sim_result, tmp_path):
        store = ResultStore(root=tmp_path)
        store.put("ab" * 32, result_to_payload(sim_result))
        decoded = result_from_payload(store.get("ab" * 32))
        assert decoded == sim_result
        assert decoded.ipc == sim_result.ipc

    def test_interval_analysis_agrees_on_decoded_result(self, sim_result):
        from repro.interval.penalty import measure_penalties

        decoded = result_from_payload(result_to_payload(sim_result))
        a = measure_penalties(sim_result)
        b = measure_penalties(decoded)
        assert a.count == b.count
        assert a.mean_penalty == b.mean_penalty
        assert a.mean_resolution == b.mean_resolution

    def test_rejects_wrong_type(self):
        with pytest.raises(ValueError):
            result_from_payload({"type": "experiment_result"})


class TestEncodedPayload:
    def test_encoding_is_deterministic_and_exact(self, sim_result):
        payload = result_to_payload(sim_result)
        blob = encode_payload(payload)
        assert blob == encode_payload(result_to_payload(sim_result))
        decoded, envelope = decode_payload(blob)
        assert envelope == {}
        assert decoded == payload
        assert result_from_payload(decoded) == sim_result

    def test_envelope_rides_beside_the_payload(self):
        payload = {"x": [1, 2, 3]}
        decoded, envelope = decode_payload(
            encode_payload(payload, {"key": "k", "meta": {"a": 1}})
        )
        assert decoded == payload
        assert envelope == {"key": "k", "meta": {"a": 1}}

    def test_delta_beyond_int32_raises(self):
        from array import array

        payload = {
            "type": "simulation_result",
            "dispatch_cycle": array("q", [0, 1 << 31]),
        }
        with pytest.raises(ValueError, match="int32"):
            encode_payload(payload)
        extremes = [-(1 << 31), -1, (1 << 31) - 2]  # deltas at both bounds
        payload["dispatch_cycle"] = array("q", extremes)
        decoded, _ = decode_payload(encode_payload(payload))
        assert list(decoded["dispatch_cycle"]) == extremes

    def test_truncated_or_padded_bytes_raise(self, sim_result):
        blob = encode_payload(result_to_payload(sim_result))
        for damaged in (blob[:-1], blob + b"\0", blob[:3]):
            with pytest.raises(ValueError):
                decode_payload(damaged)


class TestExperimentResultCodec:
    def test_roundtrip(self):
        result = ExperimentResult(
            experiment_id="f2",
            title="demo",
            headers=["a", "b"],
            rows=[["x", 1.5], ["y", 2.5]],
            series={"b": [1.5, 2.5]},
            notes="note",
        )
        decoded = experiment_from_payload(experiment_to_payload(result))
        assert decoded.experiment_id == result.experiment_id
        assert decoded.headers == list(result.headers)
        assert decoded.rows == [list(r) for r in result.rows]
        assert decoded.series == result.series
        assert decoded.notes == result.notes
        assert decoded.render() == result.render()

    def test_rejects_wrong_type(self):
        with pytest.raises(ValueError):
            experiment_from_payload({"type": "simulation_result"})


class TestGenericCodec:
    def test_dispatches_by_value_type(self, sim_result):
        payload = payload_from_value(sim_result)
        assert payload["type"] == "simulation_result"
        assert value_from_payload(payload).cycles == sim_result.cycles

    def test_result_list_has_no_codec(self, sim_result):
        with pytest.raises(TypeError):
            payload_from_value([sim_result, sim_result])

    def test_unknown_value_raises(self):
        with pytest.raises(TypeError):
            payload_from_value(object())

    def test_unknown_payload_raises(self):
        with pytest.raises(ValueError):
            value_from_payload({"type": "mystery"})
