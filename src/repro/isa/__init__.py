"""A small RISC-style ISA used to write microbenchmark kernels.

The ISA exists so that the simulator can be driven by *real* dynamic
instruction streams (produced by :mod:`repro.trace.functional`) in
addition to the statistical synthetic streams used for the SPEC-like
characterizations. It is deliberately minimal: a flat 32+32 register
file, word-granularity loads/stores, and a handful of integer, floating
point, branch and jump operations — enough to express loops, pointer
chases, reductions and branchy control flow.
"""

from repro.isa.registers import (
    FP_REGISTER_COUNT,
    INT_REGISTER_COUNT,
    REG_ZERO,
    Register,
    RegisterFile,
    fp_reg,
    int_reg,
)
from repro.isa.opcodes import Opcode, OpClass, OPCODE_INFO, OpcodeInfo
from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.isa.assembler import AssemblyError, assemble, disassemble

__all__ = [
    "FP_REGISTER_COUNT",
    "INT_REGISTER_COUNT",
    "REG_ZERO",
    "Register",
    "RegisterFile",
    "fp_reg",
    "int_reg",
    "Opcode",
    "OpClass",
    "OPCODE_INFO",
    "OpcodeInfo",
    "Instruction",
    "Program",
    "AssemblyError",
    "assemble",
    "disassemble",
]
