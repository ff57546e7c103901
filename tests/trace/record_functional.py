"""Record-walking reference for the functional executor.

:class:`repro.trace.functional.FunctionalSimulator` decodes each static
instruction once and appends every executed instruction to column
lists, returning a column-backed trace. This module keeps the
per-instruction interpreter it replaced, which asks each
:class:`~repro.isa.instruction.Instruction` for its metadata on every
step, reads and writes a :class:`~repro.isa.registers.RegisterFile`, and
emits one :class:`TraceRecord` per executed instruction. Differential
tests require the executor's columns to equal a pack of these records,
and the two to leave the same registers and data memory behind.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import Register, RegisterFile
from repro.trace.functional import DataMemory, ExecutionLimitExceeded
from repro.trace.stream import Trace
from tests.trace.records import TraceRecord, trace_of


class RecordFunctionalSimulator:
    """Architectural interpreter producing record-built traces."""

    def __init__(self, program: Program, memory: Optional[DataMemory] = None):
        program.validate()
        self.program = program
        self.registers = RegisterFile()
        self.memory = memory or DataMemory()
        self._last_reg_writer: Dict[int, int] = {}
        self._last_store_writer: Dict[int, int] = {}

    def _deps_for(
        self, inst: Instruction, dynamic_index: int, mem_addr: Optional[int]
    ) -> tuple:
        producers = set()
        for src in inst.sources:
            if src.index == 0:
                continue
            writer = self._last_reg_writer.get(src.index)
            if writer is not None:
                producers.add(writer)
        if inst.is_load and mem_addr is not None:
            word = DataMemory.word_address(mem_addr)
            writer = self._last_store_writer.get(word)
            if writer is not None:
                producers.add(writer)
        return tuple(
            sorted(dynamic_index - producer for producer in producers)
        )

    def _branch_taken(self, inst: Instruction) -> bool:
        read = self.registers.read
        if inst.opcode is Opcode.BEQ:
            return read(inst.sources[0]) == read(inst.sources[1])
        if inst.opcode is Opcode.BNE:
            return read(inst.sources[0]) != read(inst.sources[1])
        if inst.opcode is Opcode.BLT:
            return read(inst.sources[0]) < read(inst.sources[1])
        if inst.opcode is Opcode.BGE:
            return read(inst.sources[0]) >= read(inst.sources[1])
        if inst.opcode is Opcode.BEQZ:
            return read(inst.sources[0]) == 0
        if inst.opcode is Opcode.BNEZ:
            return read(inst.sources[0]) != 0
        raise AssertionError(f"not a branch: {inst.opcode}")

    def _alu_result(self, inst: Instruction) -> float:
        read = self.registers.read
        op = inst.opcode
        if op is Opcode.LI:
            return inst.imm
        if op is Opcode.FMOV:
            return float(inst.imm)
        a = read(inst.sources[0])
        if op in (Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLTI):
            b: float = inst.imm
        else:
            b = read(inst.sources[1])
        if op in (Opcode.ADD, Opcode.ADDI, Opcode.FADD):
            return a + b
        if op in (Opcode.SUB, Opcode.FSUB):
            return a - b
        if op in (Opcode.AND, Opcode.ANDI):
            return int(a) & int(b)
        if op in (Opcode.OR, Opcode.ORI):
            return int(a) | int(b)
        if op in (Opcode.XOR, Opcode.XORI):
            return int(a) ^ int(b)
        if op is Opcode.SLL:
            return int(a) << (int(b) & 63)
        if op is Opcode.SRL:
            return (int(a) & (1 << 64) - 1) >> (int(b) & 63)
        if op in (Opcode.SLT, Opcode.SLTI):
            return int(a < b)
        if op in (Opcode.MUL, Opcode.FMUL):
            return a * b
        if op is Opcode.DIV:
            return int(a) // int(b) if b else 0
        if op is Opcode.FDIV:
            return a / b if b else 0.0
        if op is Opcode.REM:
            return int(a) % int(b) if b else 0
        raise AssertionError(f"no ALU semantics for {op}")

    def run(self, max_instructions: int = 1_000_000) -> Trace:
        """Execute from the program start until HALT; return the trace."""
        records = []
        program = self.program
        index = 0  # static instruction index
        dynamic = 0
        while dynamic < max_instructions:
            if not 0 <= index < len(program):
                raise IndexError(
                    f"control flow escaped the program at index {index}"
                )
            inst = program[index]
            pc = program.address_of(index)
            if inst.opcode is Opcode.HALT:
                break

            mem_addr: Optional[int] = None
            if inst.info.is_load or inst.info.is_store:
                base = inst.sources[0]
                mem_addr = int(self.registers.read(base)) + inst.imm
            deps = self._deps_for(inst, dynamic, mem_addr)

            taken = False
            target_index: Optional[int] = None
            if inst.is_branch:
                taken = self._branch_taken(inst)
                if taken:
                    target_index = inst.target
            elif inst.opcode in (Opcode.J, Opcode.JAL):
                taken = True
                target_index = inst.target
                if inst.opcode is Opcode.JAL:
                    self.registers.write(
                        Register(1), program.address_of(index) + 4
                    )
                    self._last_reg_writer[1] = dynamic
            elif inst.opcode is Opcode.JR:
                taken = True
                target_address = int(self.registers.read(inst.sources[0]))
                target_index = program.index_of_address(target_address)

            if inst.info.is_load:
                value = self.memory.load(mem_addr)
                self.registers.write(inst.dest, value)
                self._last_reg_writer[inst.dest.index] = dynamic
            elif inst.info.is_store:
                value_reg = inst.sources[1]
                self.memory.store(mem_addr, self.registers.read(value_reg))
                self._last_store_writer[DataMemory.word_address(mem_addr)] = dynamic
            elif inst.dest is not None and not inst.is_control:
                self.registers.write(inst.dest, self._alu_result(inst))
                self._last_reg_writer[inst.dest.index] = dynamic

            target_pc = (
                program.address_of(target_index)
                if target_index is not None
                else None
            )
            records.append(
                TraceRecord(
                    op_class=inst.op_class,
                    pc=pc,
                    deps=deps,
                    mem_addr=mem_addr,
                    taken=taken,
                    target=target_pc,
                )
            )
            dynamic += 1
            index = target_index if target_index is not None else index + 1
        else:
            raise ExecutionLimitExceeded(
                max_instructions, trace_of(records, name=program.name)
            )
        return trace_of(records, name=program.name)
