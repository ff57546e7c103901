"""Property-based round-trip tests for the ISA."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.assembler import assemble, disassemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPCODE_INFO, Opcode
from repro.isa.registers import Register

INT_REGS = st.integers(min_value=0, max_value=31).map(Register)
FP_REGS = st.integers(min_value=32, max_value=63).map(Register)
IMMS = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
TARGETS = st.integers(min_value=0, max_value=1 << 20)


@st.composite
def instructions(draw):
    """Generate format-valid instructions across the whole opcode set."""
    opcode = draw(st.sampled_from(list(Opcode)))
    info = OPCODE_INFO[opcode]
    fmt = info.fmt
    reg = FP_REGS if opcode.value.startswith("f") else INT_REGS
    if fmt == "rrr":
        return Instruction(
            opcode=opcode, dest=draw(reg), sources=(draw(reg), draw(reg))
        )
    if fmt == "rri":
        return Instruction(
            opcode=opcode, dest=draw(INT_REGS), sources=(draw(INT_REGS),),
            imm=draw(IMMS),
        )
    if fmt == "ri":
        return Instruction(opcode=opcode, dest=draw(reg), imm=draw(IMMS))
    if fmt == "mem":
        if info.is_store:
            return Instruction(
                opcode=opcode, sources=(draw(INT_REGS), draw(reg)),
                imm=draw(IMMS),
            )
        return Instruction(
            opcode=opcode, dest=draw(reg), sources=(draw(INT_REGS),),
            imm=draw(IMMS),
        )
    if fmt == "brr":
        return Instruction(
            opcode=opcode, sources=(draw(INT_REGS), draw(INT_REGS)),
            target=draw(TARGETS),
        )
    if fmt == "br":
        return Instruction(
            opcode=opcode, sources=(draw(INT_REGS),), target=draw(TARGETS)
        )
    if fmt == "j":
        dest = Register(1) if opcode is Opcode.JAL else None
        return Instruction(opcode=opcode, dest=dest, target=draw(TARGETS))
    if fmt == "jr":
        return Instruction(opcode=opcode, sources=(draw(INT_REGS),))
    return Instruction(opcode=opcode)


class TestISAProperties:
    @given(inst=instructions())
    @settings(max_examples=300, deadline=None)
    def test_generated_instructions_validate(self, inst):
        inst.validate()

    @given(inst=instructions())
    @settings(max_examples=200, deadline=None)
    def test_disassemble_reassemble_non_control(self, inst):
        if inst.info.is_control:
            return  # label-less control flow can't reassemble standalone
        text = disassemble(inst)
        again = assemble(text)[0]
        assert again.opcode is inst.opcode
        assert again.dest == inst.dest
        assert again.sources == inst.sources
        assert again.imm == inst.imm

    @given(reg=st.integers(min_value=0, max_value=63).map(Register))
    @settings(max_examples=100, deadline=None)
    def test_register_parse_round_trip(self, reg):
        assert Register.parse(reg.name) == reg
