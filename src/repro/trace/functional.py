"""Functional execution of assembled programs into dynamic traces.

The functional simulator interprets the kernel ISA architecturally —
register file, word-granularity data memory, control flow — and writes
one row of trace columns (:mod:`repro.trace.columns`) per
executed instruction, so the trace it returns is column-backed. Each
static instruction is decoded once into a flat tuple before the run.
Dependence distances are derived by tracking, for every register, the
dynamic index of its last writer, and for every memory word, the
dynamic index of the last store (so load→store memory dependences are
visible to the timing simulator and to interval analysis).

The rows carry real PCs, memory addresses and branch outcomes, but *no*
miss annotations: functional traces are meant to be run structurally,
against the branch predictor and cache substrates.
"""

from __future__ import annotations

import operator
from typing import Dict, Optional

from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import RegisterFile
from repro.trace.stream import Trace

_WORD_BYTES = 8


class ExecutionLimitExceeded(RuntimeError):
    """Raised when a program fails to halt within the instruction budget.

    The partial trace, column-backed like a complete one, is attached as
    ``partial_trace``.
    """

    def __init__(self, limit: int, partial_trace: Trace):
        super().__init__(
            f"program did not halt within {limit} dynamic instructions"
        )
        self.limit = limit
        self.partial_trace = partial_trace


class DataMemory:
    """Sparse word-addressed data memory."""

    def __init__(self) -> None:
        self._words: Dict[int, float] = {}

    @staticmethod
    def word_address(address: int) -> int:
        return address - address % _WORD_BYTES

    def load(self, address: int) -> float:
        return self._words.get(self.word_address(address), 0)

    def store(self, address: int, value: float) -> None:
        self._words[self.word_address(address)] = value

    def preload(self, values: Dict[int, float]) -> None:
        """Initialize memory contents (address -> value)."""
        for address, value in values.items():
            self.store(address, value)


# Step kinds of a decoded instruction. A register-register op reads
# two registers, a register-immediate op one register and its
# immediate, a constant op (LI, FMOV) only its immediate. A one-register
# branch (BEQZ, BNEZ) compares with r0, which always reads 0.
(_RRR, _RRI, _CONST, _LOAD, _STORE, _BRANCH, _JUMP, _JAL, _JR, _NOP,
 _HALT, _ESCAPE) = range(12)

#: Where control flow lands past the last instruction.
_ESCAPE_STEP = (_ESCAPE, 0, 0, 0, False, 0, None, 0, None)

_INT_SIGN = 1 << 63
_INT_MASK = (1 << 64) - 1


def _and(a, b):
    return int(a) & int(b)


def _or(a, b):
    return int(a) | int(b)


def _xor(a, b):
    return int(a) ^ int(b)


def _sll(a, b):
    return int(a) << (int(b) & 63)


def _srl(a, b):
    return (int(a) & _INT_MASK) >> (int(b) & 63)


def _slt(a, b):
    return int(a < b)


def _div(a, b):
    return int(a) // int(b) if b else 0


def _fdiv(a, b):
    return a / b if b else 0.0


def _rem(a, b):
    return int(a) % int(b) if b else 0


#: Opcode -> (step kind, operation). The operation of an ALU op maps
#: its two operand values to the result, of a branch to whether it is
#: taken, and of a constant op its immediate to the value (None: the
#: immediate as it is). Adding an opcode means adding its row here.
_DECODE = {
    Opcode.ADD: (_RRR, operator.add),
    Opcode.SUB: (_RRR, operator.sub),
    Opcode.AND: (_RRR, _and),
    Opcode.OR: (_RRR, _or),
    Opcode.XOR: (_RRR, _xor),
    Opcode.SLL: (_RRR, _sll),
    Opcode.SRL: (_RRR, _srl),
    Opcode.SLT: (_RRR, _slt),
    Opcode.ADDI: (_RRI, operator.add),
    Opcode.ANDI: (_RRI, _and),
    Opcode.ORI: (_RRI, _or),
    Opcode.XORI: (_RRI, _xor),
    Opcode.SLTI: (_RRI, _slt),
    Opcode.LI: (_CONST, None),
    Opcode.MUL: (_RRR, operator.mul),
    Opcode.DIV: (_RRR, _div),
    Opcode.REM: (_RRR, _rem),
    Opcode.FADD: (_RRR, operator.add),
    Opcode.FSUB: (_RRR, operator.sub),
    Opcode.FMUL: (_RRR, operator.mul),
    Opcode.FDIV: (_RRR, _fdiv),
    Opcode.FMOV: (_CONST, float),
    Opcode.LD: (_LOAD, None),
    Opcode.ST: (_STORE, None),
    Opcode.FLD: (_LOAD, None),
    Opcode.FST: (_STORE, None),
    Opcode.BEQ: (_BRANCH, operator.eq),
    Opcode.BNE: (_BRANCH, operator.ne),
    Opcode.BLT: (_BRANCH, operator.lt),
    Opcode.BGE: (_BRANCH, operator.ge),
    Opcode.BEQZ: (_BRANCH, operator.eq),
    Opcode.BNEZ: (_BRANCH, operator.ne),
    Opcode.J: (_JUMP, None),
    Opcode.JAL: (_JAL, None),
    Opcode.JR: (_JR, None),
    Opcode.NOP: (_NOP, None),
    Opcode.HALT: (_HALT, None),
}


def _decode(program: Program, index: int) -> tuple:
    """Instruction ``index`` as ``(kind, s1, s2, dest, fp_dest, imm, fn,
    next_taken, target_pc)``.

    ``s1``/``s2`` are the source register indices (0, which no write
    reaches, where the instruction has fewer); ``dest`` is the written
    register, 0 when the write is discarded. ``imm`` is the immediate
    or displacement, and ``fn`` the kind's operation. ``next_taken`` is the
    static index a taken transfer goes to and ``target_pc`` its address
    (None without a resolved target, where a taken transfer falls
    through).
    """
    inst = program[index]
    kind, fn = _DECODE[inst.opcode]
    sources = [src.index for src in inst.sources] + [0, 0]
    dest = inst.dest.index if inst.dest is not None and kind <= _LOAD else 0
    fp_dest = inst.dest is not None and inst.dest.is_fp
    imm = inst.imm
    next_taken, target_pc = index + 1, None
    if inst.target is not None:
        next_taken, target_pc = inst.target, program.address_of(inst.target)
    return (kind, sources[0], sources[1], dest, fp_dest, imm, fn,
            next_taken, target_pc)


class FunctionalSimulator:
    """Architectural interpreter producing column-backed traces.

    The registers (:attr:`registers`) and the data memory
    (:attr:`memory`, the caller's when one is passed) are updated in
    place and hold the final state after :meth:`run`. Each run starts a
    fresh dependence history.
    """

    def __init__(self, program: Program, memory: Optional[DataMemory] = None):
        program.validate()
        self.program = program
        self.registers = RegisterFile()
        self.memory = memory or DataMemory()

    def run(self, max_instructions: int = 1_000_000) -> Trace:
        """Execute from the program start until HALT; return the trace.

        HALT itself is not recorded. Raises :class:`IndexError` when
        control flow leaves the program and
        :class:`ExecutionLimitExceeded` (with the column-backed partial
        trace) when ``max_instructions`` run without reaching HALT.
        """
        program = self.program
        steps = [_decode(program, i) for i in range(len(program))]
        steps.append(_ESCAPE_STEP)
        regs = self.registers.values
        words = self.memory._words
        writer = [-1] * len(regs)
        store_writer: Dict[int, int] = {}
        # Per executed instruction: its static index and dependence
        # count (the distances go to ``dep_data``); per memory op its
        # address, per conditional branch its outcome, per JR its target.
        lists = trail, dep_counts, dep_data, addrs, outcomes, jr_targets = (
            [], [], [], [], [], []
        )
        visit = trail.append
        count = dep_counts.append
        dep = dep_data.append
        index = 0
        for dynamic in range(max_instructions):
            kind, s1, s2, dest, fp_dest, imm, fn, next_taken, _ = steps[index]
            if kind >= _HALT:
                if kind == _HALT:
                    break
                raise IndexError(
                    f"control flow escaped the program at index {index}"
                )
            visit(index)
            p = writer[s1]
            if kind == _LOAD:
                addr = int(regs[s1]) + imm
                word = addr - addr % _WORD_BYTES
                q = store_writer.get(word, -1)
            else:
                q = writer[s2]
            # Sorted unique distances to the (at most two) producers.
            if p > q:
                dep(dynamic - p)
                if q < 0:
                    count(1)
                else:
                    dep(dynamic - q)
                    count(2)
            elif q > p:
                dep(dynamic - q)
                if p < 0:
                    count(1)
                else:
                    dep(dynamic - p)
                    count(2)
            elif p < 0:
                count(0)
            else:
                dep(dynamic - p)
                count(1)

            index += 1
            if kind == _RRR:
                value = fn(regs[s1], regs[s2])
            elif kind == _RRI:
                value = fn(regs[s1], imm)
            elif kind == _LOAD:
                addrs.append(addr)
                value = words.get(word, 0)
            elif kind == _BRANCH:
                taken = fn(regs[s1], regs[s2])
                outcomes.append(taken)
                if taken:
                    index = next_taken
                continue
            elif kind == _STORE:
                addr = int(regs[s1]) + imm
                word = addr - addr % _WORD_BYTES
                addrs.append(addr)
                words[word] = regs[s2]
                store_writer[word] = dynamic
                continue
            elif kind == _CONST:
                value = imm if fn is None else fn(imm)
            elif kind == _NOP:
                continue
            else:
                if kind == _JR:
                    target = int(regs[s1])
                    next_taken = program.index_of_address(target)
                    jr_targets.append(target)
                elif kind == _JAL:
                    regs[1] = program.address_of(index - 1) + 4
                    writer[1] = dynamic
                index = next_taken
                continue
            if dest:
                if fp_dest:
                    regs[dest] = float(value)
                else:
                    value = int(value)
                    if not -_INT_SIGN <= value < _INT_SIGN:
                        value = ((value + _INT_SIGN) & _INT_MASK) - _INT_SIGN
                    regs[dest] = value
                writer[dest] = dynamic
        else:
            raise ExecutionLimitExceeded(
                max_instructions, self._trace(steps, *lists)
            )
        return self._trace(steps, *lists)

    def _trace(self, steps, trail, dep_counts, dep_data, addrs, outcomes,
               jr_targets) -> Trace:
        """The column-backed trace of one run's lists: the static
        columns (op code, PC, taken target) gathered by ``trail``, the
        dynamic values scattered into their rows, no miss annotations."""
        import numpy as np

        from repro.trace.columns import OP_CODE, RECORD_DTYPE

        program = self.program
        static = len(program)
        kind = np.array([step[0] for step in steps[:static]], dtype=np.int8)
        op = np.array(
            [OP_CODE[inst.op_class] for inst in program], dtype=np.uint8
        )
        pc = program.base_address + program.INSTRUCTION_BYTES * np.arange(
            static, dtype=np.int64
        )
        target_pc = np.array(
            [step[8] or 0 for step in steps[:static]], dtype=np.int64
        )
        has_target = np.array(
            [step[8] is not None or step[0] == _JR for step in steps[:static]],
            dtype=bool,
        )

        at = np.array(trail, dtype=np.intp)
        n = len(at)
        kinds = kind[at]
        columns = np.zeros(n, dtype=RECORD_DTYPE)
        columns["op"] = op[at]
        columns["pc"] = pc[at]
        is_mem = (kinds == _LOAD) | (kinds == _STORE)
        columns["has_mem_addr"] = is_mem
        columns["mem_addr"][is_mem] = addrs
        taken = (kinds == _JUMP) | (kinds == _JAL) | (kinds == _JR)
        taken[kinds == _BRANCH] = outcomes
        columns["taken"] = taken
        target = target_pc[at]
        target[kinds == _JR] = jr_targets
        has = taken & has_target[at]
        columns["target"] = np.where(has, target, 0)
        columns["has_target"] = has
        for name in ("mispredict", "il1_miss", "dl1_miss", "dl2_miss"):
            columns[name] = -1
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(dep_counts, out=indptr[1:])
        return Trace(
            columns,
            indptr,
            np.array(dep_data, dtype=np.int32),
            name=program.name,
        )
