"""Batched simulation jobs: keys, execution, codec, caching."""

import pytest

from repro.lab.codec import (
    batch_from_payload,
    batch_to_payload,
    decode_payload,
    encode_payload,
    payload_from_value,
    value_from_payload,
)
from repro.lab.jobs import BatchSimJob, SweepJob, execute_job
from repro.lab.store import ResultStore
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import SuperscalarCore
from repro.trace.synthetic import generate_trace
from repro.util.rng import derive_seed
from repro.workloads.spec_profiles import ALL_PROFILES

WORKLOAD = sorted(ALL_PROFILES)[0]


def reference_trace(length=400, seed=2006):
    return generate_trace(
        ALL_PROFILES[WORKLOAD], length, derive_seed(seed, WORKLOAD)
    )


class TestBatchSimJob:
    def test_requires_workload_and_configs(self):
        with pytest.raises(ValueError):
            BatchSimJob(configs=(CoreConfig(),))
        with pytest.raises(ValueError):
            BatchSimJob(workload=WORKLOAD)

    def test_default_label_counts_configs(self):
        job = BatchSimJob(
            workload=WORKLOAD, configs=(CoreConfig(), CoreConfig(rob_size=32))
        )
        assert job.label == f"batch:{WORKLOAD}:2cfg"

    def test_key_covers_every_config(self):
        configs = (CoreConfig(), CoreConfig(rob_size=32))
        base = BatchSimJob(workload=WORKLOAD, configs=configs)
        reordered = BatchSimJob(workload=WORKLOAD, configs=configs[::-1])
        edited = BatchSimJob(
            workload=WORKLOAD,
            configs=(configs[0], CoreConfig(rob_size=48)),
        )
        assert len({base.key(), reordered.key(), edited.key()}) == 3

    def test_execute_matches_scalar_simulation(self):
        configs = (CoreConfig(rob_size=32), CoreConfig(rob_size=128))
        job = BatchSimJob(workload=WORKLOAD, length=400, configs=configs)
        results = job.execute()
        trace = reference_trace()
        for config, result in zip(configs, results):
            assert vars(result) == vars(SuperscalarCore(config).run(trace))


class TestExpandBatched:
    def test_chunks_in_declaration_order(self):
        sweep = SweepJob(
            parameter="rob_size",
            values=(16, 32, 64, 128, 256),
            workload=WORKLOAD,
        )
        jobs = sweep.expand_batched(batch_size=2)
        sizes = [[c.rob_size for c in job.configs] for job in jobs]
        assert sizes == [[16, 32], [64, 128], [256]]

    def test_rejects_inorder_core(self):
        sweep = SweepJob(
            parameter="rob_size", values=(32,), workload=WORKLOAD, core="inorder"
        )
        with pytest.raises(ValueError):
            sweep.expand_batched()

    def test_rejects_bad_batch_size(self):
        sweep = SweepJob(
            parameter="rob_size", values=(32,), workload=WORKLOAD
        )
        with pytest.raises(ValueError):
            sweep.expand_batched(batch_size=0)

    def test_batched_points_equal_scalar_points(self):
        sweep = SweepJob(
            parameter="rob_size",
            values=(32, 64, 128),
            workload=WORKLOAD,
            length=400,
        )
        scalar = [job.execute() for job in sweep.expand()]
        batched = []
        for job in sweep.expand_batched(batch_size=2):
            batched.extend(job.execute())
        for a, b in zip(batched, scalar):
            assert vars(a) == vars(b)


class TestCodec:
    def test_batch_payload_round_trips_through_json(self):
        trace = reference_trace(length=200)
        results = [
            SuperscalarCore(CoreConfig(rob_size=r)).run(trace)
            for r in (32, 128)
        ]
        payload, _ = decode_payload(encode_payload(batch_to_payload(results)))
        decoded = batch_from_payload(payload)
        for a, b in zip(decoded, results):
            assert vars(a) == vars(b)

    def test_dispatch_by_value_type(self):
        trace = reference_trace(length=200)
        results = [SuperscalarCore(CoreConfig()).run(trace)]
        assert payload_from_value(results)["type"] == "simulation_batch"

    def test_value_from_payload_inverts_dispatch(self):
        trace = reference_trace(length=200)
        results = [SuperscalarCore(CoreConfig()).run(trace)]
        decoded = value_from_payload(payload_from_value(results))
        assert vars(decoded[0]) == vars(results[0])

    def test_wrong_type_rejected(self):
        with pytest.raises(ValueError):
            batch_from_payload({"type": "simulation_result"})


class TestBatchCaching:
    def test_batch_job_store_round_trip(self, tmp_path):
        job = BatchSimJob(
            workload=WORKLOAD,
            length=300,
            configs=(CoreConfig(rob_size=32), CoreConfig(rob_size=64)),
        )
        cold = execute_job(job, str(tmp_path), use_cache=True)
        assert not cold.cache_hit
        warm = execute_job(job, str(tmp_path), use_cache=True)
        assert warm.cache_hit
        assert ResultStore(root=tmp_path).count() == 1
        for a, b in zip(cold.value(job), warm.value(job)):
            assert vars(a) == vars(b)
