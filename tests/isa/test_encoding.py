"""Unit tests for binary instruction encoding."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.encoding import (
    ENCODED_SIZE,
    DecodeError,
    decode_instruction,
    encode_instruction,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import int_reg


class TestInstructionRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [
            "add r1, r2, r3",
            "addi r5, r6, -1000",
            "li r1, 123456",
            "ld r4, 8(r2)",
            "st r4, -8(r2)",
            "fadd f1, f2, f3",
            "fld f0, 0(r1)",
            "jr r1",
            "nop",
            "halt",
        ],
    )
    def test_round_trip(self, source):
        inst = assemble(source)[0]
        assert decode_instruction(encode_instruction(inst)) == inst

    def test_branch_with_target_round_trip(self):
        program = assemble("x: beq r1, r2, x")
        encoded = encode_instruction(program[0])
        decoded = decode_instruction(encoded)
        assert decoded.target == 0
        assert decoded.opcode is Opcode.BEQ

    def test_encoded_size(self):
        inst = assemble("nop")[0]
        assert len(encode_instruction(inst)) == ENCODED_SIZE

    def test_negative_immediate_preserved(self):
        inst = assemble("addi r1, r1, -2147483648")[0]
        assert decode_instruction(encode_instruction(inst)).imm == -(1 << 31)


class TestDecodeErrors:
    def test_wrong_length_raises(self):
        with pytest.raises(DecodeError):
            decode_instruction(b"\x00" * 5)

    def test_bad_opcode_ordinal_raises(self):
        data = bytes([255]) + b"\x00" * (ENCODED_SIZE - 1)
        with pytest.raises(DecodeError):
            decode_instruction(data)

    def test_bad_register_raises(self):
        data = bytes([0, 200, 0, 0]) + b"\x00" * 8
        with pytest.raises(DecodeError):
            decode_instruction(data)


class TestProgramRoundTrip:
    def test_too_many_sources_rejected(self):
        inst = Instruction(
            opcode=Opcode.ADD,
            dest=int_reg(1),
            sources=(int_reg(1), int_reg(2), int_reg(3)),
        )
        with pytest.raises(ValueError):
            encode_instruction(inst)
