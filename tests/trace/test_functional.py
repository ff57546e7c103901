"""Unit tests for the functional simulator."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.opcodes import OpClass
from repro.trace.functional import (
    DataMemory,
    ExecutionLimitExceeded,
    FunctionalSimulator,
)
from tests.trace.records import records_of


def run_source(source, memory_values=None, max_instructions=100_000):
    program = assemble(source)
    memory = DataMemory()
    if memory_values:
        memory.preload(memory_values)
    simulator = FunctionalSimulator(program, memory=memory)
    trace = simulator.run(max_instructions=max_instructions)
    return trace, simulator


class TestArithmetic:
    def test_add_chain(self):
        trace, sim = run_source(
            """
            li r1, 10
            li r2, 32
            add r3, r1, r2
            st r3, 0x1000(r0)
            halt
            """
        )
        assert sim.memory.load(0x1000) == 42

    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("add", 3, 4, 7),
            ("sub", 10, 4, 6),
            ("and", 0b1100, 0b1010, 0b1000),
            ("or", 0b1100, 0b1010, 0b1110),
            ("xor", 0b1100, 0b1010, 0b0110),
            ("mul", 6, 7, 42),
            ("div", 45, 6, 7),
            ("rem", 45, 6, 3),
            ("slt", 3, 4, 1),
            ("slt", 4, 3, 0),
        ],
    )
    def test_binary_ops(self, op, a, b, expected):
        _, sim = run_source(
            f"""
            li r1, {a}
            li r2, {b}
            {op} r3, r1, r2
            st r3, 0x1000(r0)
            halt
            """
        )
        assert sim.memory.load(0x1000) == expected

    def test_shifts(self):
        _, sim = run_source(
            """
            li r1, 5
            li r2, 2
            sll r3, r1, r2
            srl r4, r3, r2
            st r3, 0x1000(r0)
            st r4, 0x1008(r0)
            halt
            """
        )
        assert sim.memory.load(0x1000) == 20
        assert sim.memory.load(0x1008) == 5

    def test_division_by_zero_yields_zero(self):
        _, sim = run_source(
            """
            li r1, 5
            li r2, 0
            div r3, r1, r2
            st r3, 0x1000(r0)
            halt
            """
        )
        assert sim.memory.load(0x1000) == 0


class TestControlFlow:
    def test_loop_executes_n_times(self):
        trace, _ = run_source(
            """
                li r1, 0
                li r2, 5
            loop:
                addi r1, r1, 1
                bne r1, r2, loop
                halt
            """
        )
        branch_records = [r for r in records_of(trace) if r.is_branch]
        assert len(branch_records) == 5
        # taken 4 times, not-taken on exit
        assert sum(r.taken for r in branch_records) == 4

    def test_branch_targets_are_pcs(self):
        trace, _ = run_source(
            """
            top:
                addi r1, r1, 1
                beq r0, r0, top2
            top2:
                halt
            """
        )
        branch = [r for r in records_of(trace) if r.is_branch][0]
        assert branch.taken
        assert branch.target == 0x1000 + 8  # instruction index 2

    def test_jal_and_jr(self):
        trace, sim = run_source(
            """
                jal func
                st r9, 0x1000(r0)
                halt
            func:
                li r9, 7
                jr r1
            """
        )
        assert sim.memory.load(0x1000) == 7
        assert any(r.op_class is OpClass.JUMP for r in records_of(trace))

    def test_infinite_loop_raises_with_partial_trace(self):
        with pytest.raises(ExecutionLimitExceeded) as info:
            run_source("spin: j spin", max_instructions=100)
        assert len(info.value.partial_trace) == 100

    def test_fallthrough_off_the_end_raises(self):
        with pytest.raises(IndexError):
            run_source("nop")


class TestMemoryAndDeps:
    def test_load_reads_preloaded(self):
        _, sim = run_source(
            """
            ld r1, 0x2000(r0)
            st r1, 0x1000(r0)
            halt
            """,
            memory_values={0x2000: 99},
        )
        assert sim.memory.load(0x1000) == 99

    def test_register_dependence_distance(self):
        trace, _ = run_source(
            """
            li r1, 1
            li r2, 2
            add r3, r1, r2
            halt
            """
        )
        add = records_of(trace)[2]
        assert sorted(add.deps) == [1, 2]

    def test_store_load_memory_dependence(self):
        trace, _ = run_source(
            """
            li r1, 5
            st r1, 0x2000(r0)
            ld r2, 0x2000(r0)
            halt
            """
        )
        load = records_of(trace)[2]
        assert 1 in load.deps  # distance to the store

    def test_r0_reads_create_no_deps(self):
        trace, _ = run_source(
            """
            li r1, 1
            add r2, r0, r0
            halt
            """
        )
        assert records_of(trace)[1].deps == ()

    def test_dep_distances_positive(self):
        trace, _ = run_source(
            """
                li r1, 0
                li r2, 20
            loop:
                addi r1, r1, 4
                bne r1, r2, loop
                halt
            """
        )
        for record in records_of(trace):
            assert all(d >= 1 for d in record.deps)

    def test_word_alignment(self):
        memory = DataMemory()
        memory.store(0x1003, 7)
        assert memory.load(0x1000) == 7
        assert DataMemory.word_address(0x1007) == 0x1000


class TestFloatingPoint:
    def test_fp_pipeline(self):
        _, sim = run_source(
            """
            fmov f1, 3
            fmov f2, 4
            fmul f3, f1, f2
            fadd f4, f3, f1
            fst f4, 0x1000(r0)
            halt
            """
        )
        assert sim.memory.load(0x1000) == pytest.approx(15.0)

    def test_fdiv(self):
        _, sim = run_source(
            """
            fmov f1, 10
            fmov f2, 4
            fdiv f3, f1, f2
            fst f3, 0x1000(r0)
            halt
            """
        )
        assert sim.memory.load(0x1000) == pytest.approx(2.5)
