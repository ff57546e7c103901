"""One dynamic instruction as seen by the timing simulator."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.isa.opcodes import OpClass


class TraceRecord:
    """A dynamic instruction.

    Parameters
    ----------
    op_class:
        Functional class; selects the FU pool and base latency.
    pc:
        Byte address of the instruction (used by I-cache and predictor).
    deps:
        Dynamic dependence distances: ``deps == (3, 1)`` means this
        instruction reads values produced by the instructions 3 and 1
        positions earlier in the dynamic stream. Distances are >= 1.
        Memory (store→load) dependences are included here too.
    mem_addr:
        Byte address touched by a load/store; ``None`` otherwise.
    taken / target:
        Control-flow outcome for branches and jumps.
    mispredict / il1_miss / dl1_miss / dl2_miss:
        Optional annotations. ``None`` means "not annotated" (a
        structural run must consult the predictor/cache); a bool is an
        oracle outcome the simulator honours directly.
    """

    __slots__ = (
        "op_class",
        "pc",
        "deps",
        "mem_addr",
        "taken",
        "target",
        "mispredict",
        "il1_miss",
        "dl1_miss",
        "dl2_miss",
    )

    def __init__(
        self,
        op_class: OpClass,
        pc: int = 0,
        deps: Tuple[int, ...] = (),
        mem_addr: Optional[int] = None,
        taken: bool = False,
        target: Optional[int] = None,
        mispredict: Optional[bool] = None,
        il1_miss: Optional[bool] = None,
        dl1_miss: Optional[bool] = None,
        dl2_miss: Optional[bool] = None,
    ):
        if deps and min(deps) < 1:
            raise ValueError(f"dependence distances must be >= 1, got {deps}")
        if mem_addr is None and op_class.is_memory:
            raise ValueError(f"{op_class.value} record requires mem_addr")
        self.op_class = op_class
        self.pc = pc
        self.deps = tuple(deps)
        self.mem_addr = mem_addr
        self.taken = taken
        self.target = target
        self.mispredict = mispredict
        self.il1_miss = il1_miss
        self.dl1_miss = dl1_miss
        self.dl2_miss = dl2_miss

    @property
    def is_branch(self) -> bool:
        """True for conditional branches (the misprediction carriers)."""
        return self.op_class is OpClass.BRANCH

    @property
    def is_control(self) -> bool:
        return self.op_class.is_control

    @property
    def is_load(self) -> bool:
        return self.op_class is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.op_class is OpClass.STORE

    @property
    def is_memory(self) -> bool:
        return self.op_class.is_memory

    def __repr__(self) -> str:
        parts = [f"TraceRecord({self.op_class.value}", f"pc={self.pc:#x}"]
        if self.deps:
            parts.append(f"deps={self.deps}")
        if self.mem_addr is not None:
            parts.append(f"mem={self.mem_addr:#x}")
        if self.is_control:
            parts.append(f"taken={self.taken}")
        if self.mispredict:
            parts.append("MISPRED")
        if self.il1_miss:
            parts.append("IL1$")
        if self.dl2_miss:
            parts.append("DL2$")
        elif self.dl1_miss:
            parts.append("DL1$")
        return ", ".join(parts) + ")"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return all(
            getattr(self, slot) == getattr(other, slot) for slot in self.__slots__
        )

    def __hash__(self) -> int:
        return hash((self.op_class, self.pc, self.deps, self.mem_addr))
