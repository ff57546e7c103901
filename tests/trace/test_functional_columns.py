"""The column executor against the record-walking oracle.

``FunctionalSimulator`` decodes each static instruction once and writes
trace columns; ``record_functional.RecordFunctionalSimulator`` asks each
instruction for its metadata on every step and builds one record per
executed instruction. The executor's columns, dependence CSR (dtypes
included) and name must equal a pack of the oracle's records, and both
must leave the same registers and data memory behind, values and their
Python types alike. Runs that stop early — at the instruction limit, by
leaving the program, or on an arithmetic error — must stop the same way.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.base import BranchUnit
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.tournament import TournamentPredictor
from repro.isa.assembler import assemble
from repro.isa.opcodes import OPCODE_INFO, Opcode
from repro.memory.hierarchy import CacheHierarchy, HierarchyConfig
from repro.memory.prefetch import PrefetchingHierarchyAdapter, StridePrefetcher
from repro.pipeline.annotate import StructuralAnnotator
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.trace.functional import (
    DataMemory,
    ExecutionLimitExceeded,
    FunctionalSimulator,
)
from repro.trace.stream import Trace
from repro.workloads.kernels import KERNEL_BUILDERS, kernel_trace, stride_sum

from tests.trace.record_functional import RecordFunctionalSimulator
from tests.trace.records import same_columns

pytestmark = pytest.mark.usefixtures("kernel_path")

DATA = 0x2000

#: F18's kernel, at F18's size.
F18_KERNEL = dict(elements=24_576, stride=1)


def _state(simulator):
    """Registers and memory, each value with its Python type."""
    return (
        [repr(value) for value in simulator.registers.values],
        sorted((word, repr(value)) for word, value in
               simulator.memory._words.items()),
    )


def _execute(simulator_class, program, image, limit):
    """``(how the run ended, its trace or error, final state)``."""
    memory = DataMemory()
    memory.preload(image)
    simulator = simulator_class(program, memory=memory)
    try:
        trace = simulator.run(max_instructions=limit)
        ending = ("halt", trace)
    except ExecutionLimitExceeded as exc:
        ending = ("limit", exc.partial_trace)
    except (IndexError, ValueError, ArithmeticError) as exc:
        return ("error", type(exc), str(exc)), _state(simulator)
    kind, trace = ending
    return (kind, trace), _state(simulator)


def assert_matches_oracle(program, image=None, limit=100_000):
    """The two executors end the same way, with equal columns and
    equal final state; returns how the column executor's run ended."""
    image = image or {}
    got, got_state = _execute(FunctionalSimulator, program, image, limit)
    want, want_state = _execute(RecordFunctionalSimulator, program, image,
                                limit)
    if got[0] == "error" or want[0] == "error":
        assert got == want
    else:
        assert got[0] == want[0]
        assert_same_columns(got[1], want[1])
    assert got_state == want_state
    return got


def assert_same_columns(got: Trace, want: Trace):
    assert got.name == want.name
    assert got.columns.dtype == want.columns.dtype
    assert got.dep_indptr.dtype == want.dep_indptr.dtype
    assert got.dep_data.dtype == want.dep_data.dtype
    assert same_columns(got, want)


# -- the kernels -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(KERNEL_BUILDERS))
def test_every_kernel_matches_the_oracle(name):
    kernel = KERNEL_BUILDERS[name]()
    ending = assert_matches_oracle(
        kernel.program, kernel.memory_image, limit=2_000_000
    )
    assert ending[0] == "halt" and len(ending[1])


def test_f18_stride_trace_matches_the_oracle():
    kernel = stride_sum(**F18_KERNEL)
    ending = assert_matches_oracle(
        kernel.program, kernel.memory_image, limit=2_000_000
    )
    assert len(ending[1]) == 98_307


@pytest.mark.parametrize("name", sorted(KERNEL_BUILDERS))
def test_kernel_trace_stays_columns_through_a_structural_run(name):
    trace = kernel_trace(name)
    annotator = StructuralAnnotator(
        BranchUnit(direction=TournamentPredictor(), btb=BranchTargetBuffer()),
        CacheHierarchy(HierarchyConfig()),
    )
    assert simulate(trace, CoreConfig(), annotator=annotator).instructions


def test_f17_f18_paths_build_no_record():
    """F17's and F18's traces, executed and run structurally (F18 with
    and without its prefetcher), stay columns. The record type is a test
    oracle that ``src/`` cannot import
    (``tests/test_src_imports_no_tests.py``)."""
    for trace in (kernel_trace("branchy_search"),
                  stride_sum(**F18_KERNEL).run()):
        for prefetch in (False, True):
            hierarchy = CacheHierarchy(HierarchyConfig())
            memory_system = hierarchy
            if prefetch:
                memory_system = PrefetchingHierarchyAdapter(
                    hierarchy,
                    data_prefetcher=StridePrefetcher(hierarchy.l1d, degree=4),
                )
            annotator = StructuralAnnotator(
                BranchUnit(direction=TournamentPredictor(),
                           btb=BranchTargetBuffer()),
                memory_system,
            )
            assert simulate(trace, CoreConfig(), annotator=annotator).events


# -- a program that runs every opcode --------------------------------------

EVERY_OPCODE = f"""
    li   r7, {DATA}
    li   r2, -5
    li   r3, 2
    li   r4, 0
    srl  r5, r2, r3        # SRL of a negative value
    st   r5, 32(r7)
    sll  r5, r5, r3
    div  r5, r2, r4        # by zero
    st   r5, 40(r7)
    rem  r5, r2, r4
    st   r5, 48(r7)
    div  r5, r2, r3
    rem  r5, r2, r3
    add  r0, r2, r3        # r0 as dest
    sub  r5, r0, r2        # r0 as source
    and  r5, r2, r3
    or   r5, r2, r3
    xor  r5, r2, r3
    slt  r5, r2, r3
    mul  r5, r2, r3
    addi r5, r5, 7
    andi r5, r5, 6
    ori  r5, r5, 1
    xori r5, r5, 3
    slti r5, r5, 4
    li   f2, 9             # an integer constant into an FP register
    fmov f1, 3
    fmov f2, 0
    fdiv f3, f1, f2        # by zero
    fst  f3, 56(r7)
    fdiv f3, f1, f1
    fadd f3, f3, f1
    fsub f3, f3, f1
    fmul f3, f3, f1
    fst  f3, 0(r7)         # FP -> int through memory
    ld   r5, 0(r7)
    st   r2, 8(r7)         # int -> FP through memory
    fld  f0, 8(r7)
    st   r3, 19(r7)        # a store, then a load of its word at
    ld   r5, 17(r7)        # another byte offset
    ld   r0, 16(r7)        # a load into r0
    li   r6, 3
loop:
    addi r6, r6, -1
    beq  r6, r0, out
    bne  r6, r3, next
    nop
next:
    blt  r6, r3, loop
    bge  r6, r3, loop
out:
    beqz r6, call
    bnez r6, call
call:
    jal  sub
    j    done
sub:
    ld   r4, 0(r7)
    jr   r1
done:
    halt
"""


def test_every_opcode_matches_the_oracle():
    program = assemble(EVERY_OPCODE, name="every-opcode")
    assert {inst.opcode for inst in program} == set(Opcode)
    ending = assert_matches_oracle(program, {DATA + 24: 2.5})
    assert ending[0] == "halt"
    trace = FunctionalSimulator(program).run()
    assert trace.taken.any() and not trace.taken.all()
    assert (trace.mispredict == -1).all() and (trace.dl2_miss == -1).all()


def test_final_memory_is_the_callers():
    memory = DataMemory()
    memory.preload({DATA: 7})
    simulator = FunctionalSimulator(
        assemble(f"ld r2, {DATA}(r0)\naddi r2, r2, 1\nst r2, 12(r7)\n"
                 f"li r7, {DATA}\nst r2, 12(r7)\nhalt"),
        memory=memory,
    )
    simulator.run()
    assert simulator.memory is memory
    assert memory.load(DATA) == 7 and memory.load(12) == 8
    assert memory.load(DATA + 8) == 8 and memory.load(DATA + 15) == 8
    assert simulator.registers.snapshot() == {"r2": 8, "r7": DATA}


# -- stopping early --------------------------------------------------------

LOOP = """
    li r2, 0
loop:
    addi r2, r2, 1
    st   r2, 0x2000(r0)
    ld   r3, 0x2000(r0)
    j    loop
"""


@pytest.mark.parametrize("limit", [0, 1, 2, 7, 100])
def test_partial_trace_at_the_limit(limit):
    program = assemble(LOOP)
    ending = assert_matches_oracle(program, limit=limit)
    assert ending[0] == "limit" and len(ending[1]) == limit
    with pytest.raises(ExecutionLimitExceeded) as info:
        FunctionalSimulator(program).run(max_instructions=limit)
    assert info.value.limit == limit
    assert len(info.value.partial_trace) == limit


def test_limit_reached_just_before_halt():
    """The budget is checked before HALT is fetched, as before."""
    program = assemble("nop\nnop\nhalt")
    assert assert_matches_oracle(program, limit=2)[0] == "limit"
    assert assert_matches_oracle(program, limit=3)[0] == "halt"


@pytest.mark.parametrize(
    "source",
    ["nop", "li r2, 1\nbeqz r2, end\nnop\nend: nop", "j end\nhalt\nend: nop"],
)
def test_falling_off_the_end_raises_index_error(source):
    ending = assert_matches_oracle(assemble(source))
    assert ending[:2] == ("error", IndexError)
    assert "escaped the program" in ending[2]


def test_a_bad_indirect_jump_raises_as_before():
    ending = assert_matches_oracle(assemble("li r2, 6\njr r2\nhalt"))
    assert ending[:2] == ("error", ValueError)


# -- random programs -------------------------------------------------------

#: Registers random instructions write. ``r1`` (the link), ``r6`` (the
#: loop counter) and ``r7`` (the data base) are only read.
DESTS = ["r0", "r2", "r3", "r4", "r5", "f0", "f1", "f2", "f3"]
SOURCES = DESTS + ["r1", "r6", "r7"]

#: Opcodes a random block draws; the rest are placed by the program's
#: shape (the call, the return, the end, and the loop's own branch).
STRUCTURAL = {Opcode.JAL, Opcode.JR, Opcode.HALT}
BLOCK_OPCODES = sorted(set(Opcode) - STRUCTURAL, key=lambda op: op.value)

IMMEDIATES = st.one_of(
    st.integers(-20, 20),
    st.sampled_from([-(1 << 63), (1 << 63) - 1, 1 << 40, -(1 << 40)]),
)


@st.composite
def block(draw, tag):
    """Straight-line code with forward branches that stay inside it."""
    size = draw(st.integers(1, 8))
    lines = []
    targets = set()
    reg = st.sampled_from(SOURCES)
    dest = st.sampled_from(DESTS)
    for at in range(size):
        op = draw(st.sampled_from(BLOCK_OPCODES))
        fmt = OPCODE_INFO[op].fmt
        name = op.value
        if fmt == "rrr":
            line = f"{name} {draw(dest)}, {draw(reg)}, {draw(reg)}"
        elif fmt == "rri":
            line = f"{name} {draw(dest)}, {draw(reg)}, {draw(IMMEDIATES)}"
        elif fmt == "ri":
            imm = draw(st.integers(-8, 8)) if op is Opcode.FMOV else draw(
                IMMEDIATES)
            line = f"{name} {draw(dest)}, {imm}"
        elif fmt == "mem":
            offset = draw(st.integers(0, 31))
            base, disp = draw(st.sampled_from(
                [("r0", DATA + offset), ("r7", offset)]))
            value = draw(dest if OPCODE_INFO[op].is_load else reg)
            line = f"{name} {value}, {disp}({base})"
        elif fmt in ("brr", "br", "j"):
            target = draw(st.integers(at + 1, size))
            targets.add(target)
            label = f"{tag}{target}"
            if fmt == "brr":
                line = f"{name} {draw(reg)}, {draw(reg)}, {label}"
            elif fmt == "br":
                line = f"{name} {draw(reg)}, {label}"
            else:
                line = f"{name} {label}"
        else:
            line = name
        lines.append(line)
    # Every branch target is a label in front of one of the block's
    # lines, or of the landing pad the block ends with.
    lines.append("nop")
    return [
        f"{tag}{at}: {line}" if at in targets else line
        for at, line in enumerate(lines)
    ]


@st.composite
def programs(draw):
    """``(source, memory image, instruction limit)``."""
    lines = [f"li r7, {DATA}"]
    trips = draw(st.integers(0, 4))
    if trips:
        lines += [f"li r6, {trips}", "top:"]
    lines += draw(block("a"))
    if trips:
        lines += ["addi r6, r6, -1", "bnez r6, top"]
    call = draw(st.booleans())
    if call:
        lines.append("jal sub")
    lines += draw(block("b"))
    if call or draw(st.booleans()):
        lines.append("halt")
    if call:
        lines.append("sub: nop")
        lines += draw(block("c"))
        lines.append("jr r1")
    image = draw(st.dictionaries(
        st.integers(0, 3).map(lambda word: DATA + 8 * word),
        st.one_of(st.integers(-9, 9), st.floats(-4.0, 4.0, width=16)),
        max_size=4,
    ))
    limit = draw(st.one_of(st.just(100_000), st.integers(0, 30)))
    return "\n".join(lines), image, limit


def test_random_programs_draw_every_opcode():
    assert set(BLOCK_OPCODES) | STRUCTURAL == set(Opcode)


@given(programs())
@settings(max_examples=300, deadline=None)
def test_random_programs_match_the_oracle(case):
    source, image, limit = case
    assert_matches_oracle(assemble(source, name="random"), image, limit)
