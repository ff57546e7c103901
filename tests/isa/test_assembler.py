"""Unit tests for the assembler/disassembler."""

import pytest

from repro.isa.assembler import (
    AssemblyError,
    assemble,
    disassemble,
)
from repro.isa.opcodes import Opcode
from repro.isa.registers import fp_reg, int_reg


class TestAssemble:
    def test_three_register_form(self):
        program = assemble("add r1, r2, r3")
        inst = program[0]
        assert inst.opcode is Opcode.ADD
        assert inst.dest == int_reg(1)
        assert inst.sources == (int_reg(2), int_reg(3))

    def test_immediate_form(self):
        inst = assemble("addi r1, r2, -7")[0]
        assert inst.imm == -7

    def test_hex_immediate(self):
        inst = assemble("li r1, 0x10")[0]
        assert inst.imm == 16

    def test_load_form(self):
        inst = assemble("ld r4, 8(r2)")[0]
        assert inst.opcode is Opcode.LD
        assert inst.dest == int_reg(4)
        assert inst.sources == (int_reg(2),)
        assert inst.imm == 8

    def test_store_form_sources(self):
        inst = assemble("st r4, -16(r2)")[0]
        assert inst.dest is None
        assert inst.sources == (int_reg(2), int_reg(4))
        assert inst.imm == -16

    def test_fp_registers(self):
        inst = assemble("fadd f1, f2, f3")[0]
        assert inst.dest == fp_reg(1)

    def test_branch_resolves_label(self):
        program = assemble(
            """
            loop:
                addi r1, r1, 1
                bne r1, r2, loop
            """
        )
        assert program[1].target == 0

    def test_forward_label(self):
        program = assemble(
            """
                beq r1, r2, done
                addi r1, r1, 1
            done:
                halt
            """
        )
        assert program[0].target == 2

    def test_label_on_same_line(self):
        program = assemble("start: addi r1, r1, 1")
        assert program.labels["start"] == 0

    def test_comments_ignored(self):
        program = assemble(
            """
            # full-line comment
            add r1, r2, r3  # trailing comment
            add r4, r5, r6  ; semicolon comment
            """
        )
        assert len(program) == 2

    def test_jump_and_link_writes_ra(self):
        program = assemble(
            """
                jal target
            target:
                halt
            """
        )
        assert program[0].dest == int_reg(1)

    def test_jr_form(self):
        inst = assemble("jr r1")[0]
        assert inst.sources == (int_reg(1),)

    def test_undefined_label_raises(self):
        with pytest.raises(AssemblyError):
            assemble("j nowhere")

    def test_duplicate_label_raises(self):
        with pytest.raises(AssemblyError, match="duplicate"):
            assemble("x:\nx:\nhalt")

    def test_unknown_mnemonic_raises_with_line(self):
        with pytest.raises(AssemblyError, match="line 2"):
            assemble("nop\nbogus r1, r2")

    def test_wrong_operand_count_raises(self):
        with pytest.raises(AssemblyError, match="expects 3"):
            assemble("add r1, r2")

    def test_bad_register_raises(self):
        with pytest.raises(AssemblyError):
            assemble("add r1, r2, r99")

    def test_bad_immediate_raises(self):
        with pytest.raises(AssemblyError):
            assemble("addi r1, r2, twelve")

    def test_bad_memory_operand_raises(self):
        with pytest.raises(AssemblyError, match="memory operand"):
            assemble("ld r1, r2")

    def test_empty_program(self):
        assert len(assemble("")) == 0

    def test_fmov_float_immediate(self):
        inst = assemble("fmov f1, 3")[0]
        assert inst.opcode is Opcode.FMOV
        assert inst.imm == 3


class TestDisassemble:
    @pytest.mark.parametrize(
        "source",
        [
            "add r1, r2, r3",
            "addi r1, r2, 5",
            "li r7, 42",
            "ld r4, 8(r2)",
            "st r4, -8(r2)",
            "fadd f1, f2, f3",
            "jr r1",
            "nop",
            "halt",
        ],
    )
    def test_round_trip_single(self, source):
        inst = assemble(source)[0]
        assert disassemble(inst) == source
