"""Unit tests for trace files: the columns round-trip, bad files raise."""

import struct

import numpy as np
import pytest

from repro.isa.opcodes import OpClass
from repro.trace.columns import OP_CLASSES
from repro.trace.io import load_trace, save_trace
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace
from repro.workloads.kernels import kernel_trace
from repro.workloads.spec_profiles import SPEC_PROFILES
from tests.trace.records import TraceRecord, records_of, same_columns, trace_of


def suite_or_kernel_trace(name):
    if name in SPEC_PROFILES:
        return generate_trace(SPEC_PROFILES[name], 3000, seed=2006)
    return kernel_trace(name)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", [*SPEC_PROFILES, "branchy_search"]
    )
    def test_columns_round_trip_exactly(self, tmp_path, name):
        trace = suite_or_kernel_trace(name)
        path = tmp_path / f"{name}.trc"
        save_trace(trace, path)
        assert same_columns(load_trace(path), trace)

    def test_path_is_written_as_given(self, tmp_path):
        path = tmp_path / "no-suffix"
        save_trace(trace_of(name="bare"), path)
        assert [p.name for p in tmp_path.iterdir()] == ["no-suffix"]
        assert load_trace(path).name == "bare"

    def test_long_dependence_distance_round_trips(self, tmp_path):
        records = [TraceRecord(OpClass.IALU)] * 3 + [
            TraceRecord(OpClass.IALU, deps=(70_000, 2))
        ]
        path = tmp_path / "far.trc"
        save_trace(trace_of(records), path)
        assert records_of(load_trace(path)) == records

    def test_synthetic_trace_round_trip(self, tmp_path):
        trace = generate_trace(WorkloadProfile(name="io-test"), 2000, seed=5)
        path = tmp_path / "trace.bin"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert len(loaded) == len(trace)
        assert records_of(loaded) == records_of(trace)

    def test_all_flag_combinations(self, tmp_path):
        records = [
            TraceRecord(OpClass.IALU, pc=4, deps=(1,)),
            TraceRecord(OpClass.BRANCH, pc=8, taken=True, target=0x40,
                        mispredict=True),
            TraceRecord(OpClass.BRANCH, pc=12, taken=False, mispredict=False),
            TraceRecord(OpClass.LOAD, pc=16, mem_addr=0x2000, dl1_miss=True,
                        dl2_miss=False),
            TraceRecord(OpClass.LOAD, pc=20, mem_addr=0x3000, dl2_miss=True,
                        il1_miss=True),
            TraceRecord(OpClass.STORE, pc=24, mem_addr=0x4000,
                        deps=(3, 1)),
            TraceRecord(OpClass.JUMP, pc=28, taken=True, target=0x1000),
            TraceRecord(OpClass.NOP, pc=32),
        ]
        path = tmp_path / "flags.bin"
        save_trace(trace_of(records, name="flags"), path)
        loaded = load_trace(path)
        assert records_of(loaded) == records

    def test_tri_state_none_preserved(self, tmp_path):
        records = [TraceRecord(OpClass.BRANCH, mispredict=None)]
        path = tmp_path / "tri.bin"
        save_trace(trace_of(records), path)
        assert records_of(load_trace(path))[0].mispredict is None

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.bin"
        save_trace(trace_of(name="empty"), path)
        loaded = load_trace(path)
        assert len(loaded) == 0
        assert loaded.name == "empty"


class TestErrors:
    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match="magic"):
            load_trace(path)

    def test_truncated_file_raises(self, tmp_path):
        trace = generate_trace(WorkloadProfile(), 100, seed=1)
        path = tmp_path / "trunc.bin"
        save_trace(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_trace(path)

    def test_version_1_file_names_its_version(self, tmp_path):
        path = tmp_path / "old.trc"
        path.write_bytes(b"RTRC" + struct.pack("<HHQ", 1, 0, 0))
        with pytest.raises(ValueError, match="version 1.*repro trace"):
            load_trace(path)

    def test_missing_member_raises(self, tmp_path):
        path = write_members(tmp_path, dep_data=None)
        with pytest.raises(ValueError, match="not a trace file"):
            load_trace(path)

    @pytest.mark.parametrize(
        "member, value",
        [
            ("columns", np.zeros(4, dtype=np.float64)),
            ("dep_data", np.ones(2, dtype=np.int64)),
            ("dep_indptr", np.zeros((2, 2), dtype=np.int64)),
        ],
    )
    def test_wrong_member_dtype_or_shape_raises(self, tmp_path, member, value):
        path = write_members(tmp_path, **{member: value})
        with pytest.raises(ValueError, match=member):
            load_trace(path)

    def test_non_monotone_indptr_raises(self, tmp_path):
        trace = sample()
        indptr = trace.dep_indptr.copy()
        lo = int(np.flatnonzero(np.diff(indptr) > 0)[0])
        indptr[lo + 1] = indptr[-1] + 1
        path = write_members(tmp_path, dep_indptr=indptr)
        with pytest.raises(ValueError, match="monotonically"):
            load_trace(path)

    def test_indptr_not_ending_at_data_length_raises(self, tmp_path):
        trace = sample()
        path = write_members(tmp_path, dep_data=trace.dep_data[:-1])
        with pytest.raises(ValueError, match="monotonically"):
            load_trace(path)

    def test_out_of_range_op_code_raises(self, tmp_path):
        columns = sample().columns.copy()
        columns["op"][3] = len(OP_CLASSES)
        path = write_members(tmp_path, columns=columns)
        with pytest.raises(ValueError, match="op-class code"):
            load_trace(path)

    @pytest.mark.parametrize(
        "field", ["mispredict", "il1_miss", "dl1_miss", "dl2_miss"]
    )
    def test_bad_tri_state_code_raises(self, tmp_path, field):
        columns = sample().columns.copy()
        columns[field][5] = 2
        path = write_members(tmp_path, columns=columns)
        with pytest.raises(ValueError, match=f"tri-state code in '{field}'"):
            load_trace(path)

    def test_column_invariant_violation_raises(self, tmp_path):
        trace = sample()
        data = trace.dep_data.copy()
        data[0] = 0
        path = write_members(tmp_path, dep_data=data)
        with pytest.raises(ValueError, match="non-positive dependence"):
            load_trace(path)

    def test_unknown_version_raises(self, tmp_path):
        path = write_members(tmp_path, version=np.array(3, dtype=np.int64))
        with pytest.raises(ValueError, match="unsupported trace version 3"):
            load_trace(path)


def sample():
    return generate_trace(WorkloadProfile(name="io-errors"), 200, seed=3)


def write_members(tmp_path, **overrides):
    """A trace archive of :func:`sample` with ``overrides`` replacing
    members (None drops one)."""
    trace = sample()
    members = {
        "columns": trace.columns,
        "dep_indptr": trace.dep_indptr,
        "dep_data": trace.dep_data,
        "name": np.array(trace.name),
        "version": np.array(2, dtype=np.int64),
    }
    members.update(overrides)
    path = tmp_path / "crafted.trc"
    with open(path, "wb") as out:
        np.savez_compressed(
            out, **{k: v for k, v in members.items() if v is not None}
        )
    return path
