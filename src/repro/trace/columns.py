"""The trace format: the NumPy-level pieces of a trace's columns.

A :class:`~repro.trace.stream.Trace` is one structured array with a
field per instruction attribute (:data:`RECORD_DTYPE`), plus the
dynamic dependence lists flattened into a CSR-style (indptr, data)
pair. The synthetic generator and the functional executor write these
columns directly, trace files store them as they are
(:mod:`repro.trace.io`), and no per-instruction object exists outside
the tests. This module holds the dtype, the op and D-cache class codes
and the miss-event folds the models read; ``repro.trace.stream`` loads
it only where a method needs NumPy, so importing a trace loads none.

Encoding notes:

* ``op`` is the index of the instruction's :class:`OpClass` in enum
  definition order (:data:`OP_CLASSES`);
* the optional booleans (``mispredict``, ``il1_miss``, ``dl1_miss``,
  ``dl2_miss``) are tri-state ``int8``: -1 means not annotated (a
  structural run must consult the predictor or cache), 0/1 encode the
  oracle outcome;
* optional integers (``mem_addr``, ``target``) carry a companion
  presence bit so "absent" and 0 stay distinguishable;
* ``dep_indptr[i]:dep_indptr[i+1]`` slices ``dep_data`` to the
  dependence distances of row ``i`` (distances are >= 1: ``(3, 1)``
  reads values produced 3 and 1 instructions earlier, store→load
  dependences included).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from repro.isa.opcodes import OpClass

if TYPE_CHECKING:
    from repro.trace.stream import Trace

#: Op classes in enum definition order; ``op`` column values index this.
OP_CLASSES: Tuple[OpClass, ...] = tuple(OpClass)

#: OpClass -> column code.
OP_CODE: Dict[OpClass, int] = {cls: i for i, cls in enumerate(OP_CLASSES)}

BRANCH_CODE = OP_CODE[OpClass.BRANCH]
JUMP_CODE = OP_CODE[OpClass.JUMP]
LOAD_CODE = OP_CODE[OpClass.LOAD]
STORE_CODE = OP_CODE[OpClass.STORE]

#: One row per dynamic instruction.
RECORD_DTYPE = np.dtype(
    [
        ("op", np.uint8),
        ("pc", np.int64),
        ("mem_addr", np.int64),
        ("has_mem_addr", np.bool_),
        ("taken", np.bool_),
        ("target", np.int64),
        ("has_target", np.bool_),
        ("mispredict", np.int8),
        ("il1_miss", np.int8),
        ("dl1_miss", np.int8),
        ("dl2_miss", np.int8),
    ]
)

#: D-cache miss-class codes of :func:`load_classes`: not a load, L1
#: hit, short (L2-hit) miss, long (memory) miss.
DCODE_NONE, DCODE_L1_HIT, DCODE_SHORT, DCODE_LONG = 0, 1, 2, 3


def miss_event_masks(
    trace: Trace,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-record miss-event masks ``(bpred, icache, long, short)``:
    mispredicted conditional branches, I-cache misses, loads that miss
    to memory, and loads that miss L1 only. Unannotated (-1) flags read
    as no event."""
    op = trace.op
    is_load = op == LOAD_CODE
    return (
        (op == BRANCH_CODE) & (trace.mispredict == 1),
        trace.il1_miss == 1,
        is_load & (trace.dl2_miss == 1),
        is_load & (trace.dl1_miss == 1),
    )


def load_classes(trace: Trace, long_misses: bool = True) -> np.ndarray:
    """The D-cache miss-class code (``DCODE_*``) of every load,
    ``DCODE_NONE`` for every other record.

    A load flagged as missing to memory is long whatever its L1 flag;
    with ``long_misses`` off the memory flag is not read, and a load is
    short or a hit on its L1 flag alone. Unannotated (-1) flags read as
    a hit.
    """
    is_load = trace.op == LOAD_CODE
    # DCODE_L1_HIT for every load, one more for an L1 miss.
    code = is_load.astype(np.int8)
    code += is_load & (trace.dl1_miss == 1)
    if long_misses:
        code[is_load & (trace.dl2_miss == 1)] = DCODE_LONG
    return code


def oracle_miss_columns(
    trace: Trace,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The oracle miss columns the detailed core reads, one row per record.

    Returns ``(mispredicted, il1_miss, load_class)``: mispredicted
    control transfers, I-cache misses, and :func:`load_classes`.
    Unannotated (-1) flags read as no miss.
    """
    op = trace.op
    is_control = (op == BRANCH_CODE) | (op == JUMP_CODE)
    mispredicted = is_control & (trace.mispredict == 1)
    return mispredicted, trace.il1_miss == 1, load_classes(trace)
