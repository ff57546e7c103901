"""Scalar reference for the columnar synthetic trace generator.

The library's generator draws each SplitMix child stream in array
chunks; this module keeps the per-record, per-draw implementation the
columnar one replaced. Differential tests require the two to emit equal
records for every profile, seed and length.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isa.opcodes import OpClass
from repro.trace.profiles import WorkloadProfile
from repro.trace.stream import Trace
from repro.util.rng import SplitMix
from tests.trace.records import TraceRecord, trace_of

_INSTRUCTION_BYTES = 4

# Number of register source operands drawn per op class: (minimum,
# chance of one extra). Loads read a base address register; stores read
# base + value; branches compare one or two values.
_DEP_SHAPE = {
    OpClass.IALU: (1, True),
    OpClass.IMUL: (2, False),
    OpClass.IDIV: (2, False),
    OpClass.FADD: (2, False),
    OpClass.FMUL: (2, False),
    OpClass.FDIV: (2, False),
    OpClass.LOAD: (1, False),
    OpClass.STORE: (2, False),
    OpClass.BRANCH: (1, True),
    OpClass.JUMP: (0, False),
    OpClass.NOP: (0, False),
}


_VALUE_PRODUCERS = (
    OpClass.IALU,
    OpClass.IMUL,
    OpClass.IDIV,
    OpClass.FADD,
    OpClass.FMUL,
    OpClass.FDIV,
    OpClass.LOAD,
)


class ScalarTraceGenerator:
    """One record at a time, one draw at a time: the generator as it
    was before the columnar rewrite, kept verbatim as the oracle that
    :class:`repro.trace.synthetic.SyntheticTraceGenerator` must match
    record for record."""

    def __init__(self, profile: WorkloadProfile, seed: int = 0):
        self.profile = profile
        self._rng = SplitMix(seed)
        self._op_rng = self._rng.split("ops")
        self._dep_rng = self._rng.split("deps")
        self._branch_rng = self._rng.split("branches")
        self._mem_rng = self._rng.split("memory")
        self._icache_rng = self._rng.split("icache")
        self._classes = list(profile.mix.keys())
        self._weights = [profile.mix[c] for c in self._classes]
        self._in_burst = False
        self._pc = 0x1000
        self._stream_addr = 0x10000
        self._emitted = 0
        self._chains: List[Optional[int]] = [None] * profile.chain_count

    def _draw_op_class(self) -> OpClass:
        return self._op_rng.weighted_choice(self._classes, self._weights)

    def _draw_one_dep(self, index: int, may_extend_chain: bool) -> int:
        """Draw one dependence distance for the instruction at ``index``."""
        profile = self.profile
        if self._dep_rng.bernoulli(profile.chain_dep_fraction):
            chain = self._dep_rng.randint(0, len(self._chains) - 1)
            tail = self._chains[chain]
            if may_extend_chain:
                self._chains[chain] = index
            if tail is not None and tail != index:
                return index - tail
        distance = 1 + self._dep_rng.geometric(profile.dependence_p)
        return min(distance, index)

    def _draw_deps(self, op_class: OpClass, index: int) -> Tuple[int, ...]:
        if index == 0:
            if op_class in _VALUE_PRODUCERS:
                # Seed a chain with this producer even without sources.
                self._chains[0] = 0
            return ()
        minimum, may_extend = _DEP_SHAPE[op_class]
        count = minimum
        if may_extend and self._dep_rng.bernoulli(self.profile.second_dep_fraction):
            count += 1
        produces = op_class in _VALUE_PRODUCERS
        deps: List[int] = []
        for position in range(count):
            # Only the first dependence of a value producer extends a
            # chain; consumers (stores, branches) read chains but do not
            # lengthen them.
            extend = produces and position == 0
            deps.append(self._draw_one_dep(index, may_extend_chain=extend))
        return tuple(deps)

    def _advance_burst_state(self) -> None:
        """Two-state Markov chain over branches.

        State dwell times are set so the stationary fraction of branches
        in the bursty state equals ``profile.burst_fraction``.
        """
        persistence = self.profile.burst_persistence
        f = self.profile.burst_fraction
        if f <= 0.0:
            self._in_burst = False
            return
        if f >= 1.0:
            self._in_burst = True
            return
        if self._in_burst:
            leave = 1.0 - persistence
            if self._branch_rng.bernoulli(leave):
                self._in_burst = False
        else:
            # Stationarity: enter_rate * (1-f) = leave_rate * f.
            leave = 1.0 - persistence
            enter = leave * f / (1.0 - f)
            if self._branch_rng.bernoulli(enter):
                self._in_burst = True

    def _draw_branch(self) -> Tuple[bool, bool, int]:
        """Return (taken, mispredict, target_pc)."""
        self._advance_burst_state()
        taken = self._branch_rng.bernoulli(self.profile.branch_taken_fraction)
        rate = self.profile.scaled_mispredict_rate(self._in_burst)
        mispredict = self._branch_rng.bernoulli(rate)
        span = max(self.profile.code_footprint_bytes // _INSTRUCTION_BYTES, 1)
        target = 0x1000 + _INSTRUCTION_BYTES * self._branch_rng.randint(0, span - 1)
        return taken, mispredict, target

    def _draw_mem_addr(self, is_store: bool) -> int:
        if self._mem_rng.bernoulli(self.profile.stride_fraction):
            self._stream_addr += self.profile.stride_bytes
            if self._stream_addr >= 0x10000 + self.profile.data_footprint_bytes:
                self._stream_addr = 0x10000
            return self._stream_addr
        word = self._mem_rng.randint(
            0, max(self.profile.data_footprint_bytes // 8 - 1, 0)
        )
        return 0x10000 + 8 * word

    def _draw_dcache_flags(self) -> Tuple[bool, bool]:
        """Return (dl1_miss_short, dl2_miss_long), mutually exclusive."""
        roll = self._mem_rng.random()
        if roll < self.profile.dl2_miss_rate:
            return False, True
        if roll < self.profile.dl2_miss_rate + self.profile.dl1_miss_rate:
            return True, False
        return False, False

    def _next_pc(self, taken_to: Optional[int]) -> int:
        pc = self._pc
        if taken_to is not None:
            self._pc = taken_to
        else:
            self._pc += _INSTRUCTION_BYTES
            if self._pc >= 0x1000 + self.profile.code_footprint_bytes:
                self._pc = 0x1000
        return pc

    def generate_record(self) -> TraceRecord:
        """Generate the next record in the stream."""
        index = self._emitted
        op_class = self._draw_op_class()
        deps = self._draw_deps(op_class, index)
        il1_miss = self._icache_rng.bernoulli(self.profile.il1_mpki / 1000.0)

        if op_class is OpClass.BRANCH:
            taken, mispredict, target = self._draw_branch()
            pc = self._next_pc(target if taken else None)
            record = TraceRecord(
                op_class=op_class,
                pc=pc,
                deps=deps,
                taken=taken,
                target=target,
                mispredict=mispredict,
                il1_miss=il1_miss,
            )
        elif op_class is OpClass.JUMP:
            span = max(self.profile.code_footprint_bytes // _INSTRUCTION_BYTES, 1)
            target = 0x1000 + _INSTRUCTION_BYTES * self._branch_rng.randint(
                0, span - 1
            )
            pc = self._next_pc(target)
            record = TraceRecord(
                op_class=op_class,
                pc=pc,
                deps=deps,
                taken=True,
                target=target,
                mispredict=False,
                il1_miss=il1_miss,
            )
        elif op_class.is_memory:
            addr = self._draw_mem_addr(op_class is OpClass.STORE)
            dl1 = dl2 = False
            if op_class is OpClass.LOAD:
                dl1, dl2 = self._draw_dcache_flags()
            pc = self._next_pc(None)
            record = TraceRecord(
                op_class=op_class,
                pc=pc,
                deps=deps,
                mem_addr=addr,
                dl1_miss=dl1,
                dl2_miss=dl2,
                il1_miss=il1_miss,
            )
        else:
            pc = self._next_pc(None)
            record = TraceRecord(
                op_class=op_class, pc=pc, deps=deps, il1_miss=il1_miss
            )
        self._emitted += 1
        return record

    def generate(self, count: int) -> Trace:
        return trace_of(
            [self.generate_record() for _ in range(count)], name=self.profile.name
        )


def scalar_generate_trace(
    profile: WorkloadProfile, count: int, seed: int = 0
) -> Trace:
    return ScalarTraceGenerator(profile, seed=seed).generate(count)
