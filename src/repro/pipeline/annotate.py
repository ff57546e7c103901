"""Miss outcomes: the per-seq columns a core reads, and where they come from.

A core needs five outcomes per dynamic instruction: whether a control
transfer mispredicted, whether its fetch missed the I-cache (the refill
stall, and whether the line came from memory), and what a load's
D-cache access adds to its execute latency (and whether it missed to
memory). :class:`MissColumns` holds them as one list per outcome; it is
the one form both cores read.

They come from one of two sources:

* :meth:`MissColumns.oracle` prices the oracle flags a synthetic trace
  carries at a config's latencies. :func:`price_loads` is the one
  pricing of a load by miss class; the ILP latency columns of
  :mod:`repro.interval.ilp` are priced by it too.
* :meth:`StructuralAnnotator.miss_columns` drives the real branch
  predictor and cache hierarchy substrates in one program-order pass
  over the trace's columns.

A core consumes the outcomes once per record, in program order,
whatever its timing (wrong-path ghosts consume none), so a stateful
annotator's outcomes depend on program order only, and one pass ahead
of the run yields exactly what the core sees.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.frontend.base import BranchUnit
from repro.memory.hierarchy import CacheHierarchy, MissClass
from repro.obs import runtime as _obs
from repro.pipeline.config import CoreConfig
from repro.trace.stream import Trace

if TYPE_CHECKING:
    import numpy as np

    from repro.perf.batchcore import TraceColumns


def price_loads(load_class: "np.ndarray", l1: int, l2: int, memory: int):
    """What each record's D-cache access adds to its execute latency.

    ``load_class`` holds a ``DCODE_*`` miss-class code per record
    (:func:`repro.trace.columns.load_classes`): a load pays ``l1`` on a
    hit, ``l2`` when it misses L1 only and ``memory`` when it misses to
    memory; every other record pays 0. Returns an int64 array.
    """
    import numpy as np

    return np.array([0, l1, l2, memory], dtype=np.int64).take(load_class)


class MissColumns:
    """Per-seq miss outcomes of one run, the columns a core reads.

    ``misp`` flags mispredicted control transfers, ``is_long`` loads
    that miss to memory, ``icache_lat`` the refill stall of each
    I-cache miss (0 on a hit) and ``icache_long`` whether that line came
    from memory; ``exec_extra`` is what a load adds to its FU latency.
    """

    __slots__ = ("misp", "is_long", "icache_lat", "icache_long", "exec_extra")

    def __init__(self, misp, is_long, icache_lat, icache_long, exec_extra):
        self.misp: List[bool] = misp
        self.is_long: List[bool] = is_long
        self.icache_lat: List[int] = icache_lat
        self.icache_long: Sequence[bool] = icache_long
        self.exec_extra: List[int] = exec_extra

    @classmethod
    def oracle(cls, cols: "TraceColumns", config: CoreConfig) -> "MissColumns":
        """The trace's oracle flags priced at ``config``'s latencies.

        An I-cache miss stalls for the L2 latency; unannotated flags
        read as hits and correct predictions.
        """
        import numpy as np

        return cls(
            misp=cols.misp,
            is_long=cols.is_long,
            icache_lat=np.where(cols.il1, config.l2_latency, 0).tolist(),
            icache_long=bytes(cols.n),
            exec_extra=price_loads(
                cols.load_class,
                config.l1_latency,
                config.l2_latency,
                config.memory_latency,
            ).tolist(),
        )


class StructuralAnnotator:
    """Derives miss outcomes from predictor and cache substrates.

    The I-cache is consulted once per fetched cache line (consecutive
    records on the same line share the fetch). Conditional branches go
    through the branch unit (direction predictor + BTB); unconditional
    jumps only check the BTB. Loads and stores access the D-side, and a
    load keeps the latency and the long-miss flag. The substrates, and
    the last fetched line, keep their state from one pass to the next.

    Every latency comes from the substrates: a cache hierarchy's comes
    from its :class:`~repro.memory.hierarchy.HierarchyConfig`, never
    from the :class:`CoreConfig` of the run.
    """

    def __init__(self, branch_unit: BranchUnit, hierarchy: CacheHierarchy):
        self.branch_unit = branch_unit
        self.hierarchy = hierarchy
        self._last_fetch_line: Optional[int] = None

    def miss_columns(self, trace: Trace) -> MissColumns:
        """Annotate every record of ``trace`` once, in program order.

        This is the order a core consumes outcomes in, so the columns
        hold exactly what a run sees, and the substrates are left in the
        state that run leaves them in. The walk visits only the records
        that consult a substrate, and the ambient metrics registry the
        substrates count into is resolved once for the pass.
        """
        import numpy as np

        from repro.trace.columns import (
            BRANCH_CODE,
            JUMP_CODE,
            LOAD_CODE,
            STORE_CODE,
        )

        n = len(trace)
        misp = [False] * n
        is_long = [False] * n
        icache_lat = [0] * n
        icache_long = [False] * n
        exec_extra = [0] * n
        if n:
            cols = trace.columns
            op = cols["op"]
            pc = cols["pc"]
            line = pc // self.hierarchy.config.line_bytes
            fetch = np.empty(n, dtype=bool)
            fetch[0] = int(line[0]) != self._last_fetch_line
            np.not_equal(line[1:], line[:-1], out=fetch[1:])
            self._last_fetch_line = int(line[-1])
            at = np.flatnonzero(
                fetch
                | (op == BRANCH_CODE)
                | (op == JUMP_CODE)
                | (op == LOAD_CODE)
                | (op == STORE_CODE)
            )
            target = cols["target"][at].astype(object)
            target[~cols["has_target"][at]] = None
            access_instruction = self.hierarchy.access_instruction
            access_data = self.hierarchy.access_data
            resolve_branch = self.branch_unit.resolve_branch
            resolve_jump = self.branch_unit.resolve_jump
            l1_hit = MissClass.L1_HIT
            long_class = MissClass.LONG
            with _obs.metrics_resolved():
                for seq, code, addr, new_line, mem_addr, taken, dest in zip(
                    at.tolist(),
                    op[at].tolist(),
                    pc[at].tolist(),
                    fetch[at].tolist(),
                    cols["mem_addr"][at].tolist(),
                    cols["taken"][at].tolist(),
                    target.tolist(),
                ):
                    if new_line:
                        outcome = access_instruction(addr)
                        if outcome.miss_class is not l1_hit:
                            if outcome.latency <= 0:
                                raise ValueError(
                                    f"I-cache miss of record {seq} stalls "
                                    f"{outcome.latency} cycles; a miss must "
                                    "stall at least one"
                                )
                            icache_lat[seq] = outcome.latency
                            icache_long[seq] = outcome.miss_class is long_class
                    if code == BRANCH_CODE:
                        misp[seq] = resolve_branch(addr, taken, dest)
                    elif code == JUMP_CODE:
                        misp[seq] = resolve_jump(addr, dest)
                    elif code == LOAD_CODE:
                        outcome = access_data(mem_addr, is_write=False, pc=addr)
                        exec_extra[seq] = outcome.latency
                        is_long[seq] = outcome.miss_class is long_class
                    elif code == STORE_CODE:
                        access_data(mem_addr, is_write=True, pc=addr)
        return MissColumns(misp, is_long, icache_lat, icache_long, exec_extra)
