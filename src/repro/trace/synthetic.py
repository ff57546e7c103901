"""Synthetic trace generation from a statistical workload profile.

This is the SPEC-trace substitute documented in DESIGN.md: interval
analysis is driven by the *statistics* of the dynamic stream, so a
generator that controls those statistics exercises the same code paths
and reproduces the same characterization shapes.

The generator is fully deterministic given (profile, seed, length).

Generation is columnar. Each of the five SplitMix child streams (ops,
deps, branches, memory, icache) is drawn as NumPy blocks
(:meth:`~repro.util.rng.SplitMix.next_u64_array`). The ops and icache
streams take exactly one draw per record, so a block of records is
decided with a few array operations. The deps, branch and memory
streams take a data-dependent number of draws per record (a Bernoulli
with p <= 0 or p >= 1 takes none, a geometric takes one per trial), so
each runs as one integer loop over Python lists precomputed from its
block: the unit floats, the ``randint`` offsets and, for the geometric,
the position of the next success. The output is a
:class:`~repro.trace.stream.Trace`'s columns
(:mod:`repro.trace.columns`), equal, field for field, to drawing one
value at a time.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isa.opcodes import OpClass
from repro.trace.profiles import WorkloadProfile
from repro.trace.stream import Trace
from repro.util.rng import SplitMix, unit_floats

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

#: Records per generation block, and the least number of draws a
#: stream window fetches when it runs dry. Bounds the Python lists held
#: at once to a few hundred kB.
_BLOCK = 8192

#: The cap of ``SplitMix.geometric``'s default, which dependence
#: distances have always used.
_GEOMETRIC_CAP = 1 << 20

#: Draws a stream loop keeps in view. One dependence reads at most its
#: chain coin, its chain pick and its first geometric trial before the
#: window is checked again; a record's deps add the second-dependence
#: coin. A branch takes the burst, taken and mispredict coins and the
#: target; a memory op the stride coin, the word and the D-cache roll.
_DEP_DRAWS = 3
_DEPS_DRAWS = 1 + _DEP_DRAWS * max(low + extra for low, extra in _DEP_SHAPE.values())
_BRANCH_DRAWS = 4
_MEMORY_DRAWS = 3

_OTHER, _BRANCH, _JUMP, _LOAD, _STORE = range(5)
_KIND = {
    OpClass.BRANCH: _BRANCH,
    OpClass.JUMP: _JUMP,
    OpClass.LOAD: _LOAD,
    OpClass.STORE: _STORE,
}


def _fixed_outcome(p: float) -> Optional[bool]:
    """The result of ``SplitMix.bernoulli(p)`` when it takes no draw
    (p <= 0 or p >= 1); None when it draws."""
    if p <= 0.0:
        return False
    if p >= 1.0:
        return True
    return None


class _Window:
    """The unread draws of one child stream, fetched a block at a time.

    After :meth:`refill`, ``u[k]`` is unread draw ``k`` as
    ``SplitMix.random`` returns it and ``mod[k]`` the same draw as a
    ``randint`` offset below ``span``. With ``p`` given, ``nxt[k]`` is
    the first ``j >= k`` with ``u[j] < p`` (the success that ends a
    geometric run), or ``len(u)`` when the window holds none. ``pos`` is
    where the owning loop stopped; a refill keeps the unread tail, so no
    draw is skipped or repeated.
    """

    def __init__(self, rng: SplitMix, span: int, p: Optional[float] = None):
        self._rng = rng
        self._span = span
        self.p = p
        self._raw = None
        self.u: List[float] = []
        self.mod: List[int] = []
        self.nxt: List[int] = []
        self.pos = 0

    def refill(self, pos: int, need: int) -> None:
        """Drop the draws before ``pos`` and fetch until at least
        ``need`` are unread; ``pos`` restarts at 0."""
        import numpy as np

        fresh = self._rng.next_u64_array(max(_BLOCK, need - len(self.u) + pos))
        if self._raw is not None:
            fresh = np.concatenate((self._raw[pos:], fresh))
        self._raw = raw = fresh
        unit = unit_floats(raw)
        self.u = unit.tolist()
        self.mod = (raw % np.uint64(self._span)).tolist()
        if self.p is not None:
            hits = np.flatnonzero(unit < self.p)
            ends = np.append(hits, len(raw))
            self.nxt = ends[np.searchsorted(hits, np.arange(len(raw)))].tolist()
        self.pos = 0

    def geometric(self, pos: int, need: int) -> int:
        """``SplitMix.geometric(p)`` from draw ``pos``: the failures
        before the first success, capped, consuming through that
        success. Leaves at least ``need`` draws unread after ``pos``."""
        failures = 0
        while True:
            end = self.nxt[pos]
            if failures + end - pos >= _GEOMETRIC_CAP:
                pos += _GEOMETRIC_CAP - failures
                failures = _GEOMETRIC_CAP
                break
            failures += end - pos
            if end < len(self.u):
                pos = end + 1
                break
            self.refill(end, need)
            pos = 0
        if pos + need > len(self.u):
            self.refill(pos, need)
            pos = 0
        self.pos = pos
        return failures


class SyntheticTraceGenerator:
    """Generates annotated dynamic traces from a :class:`WorkloadProfile`.

    The emitted records carry oracle annotations (``mispredict``,
    ``il1_miss``, ``dl1_miss``, ``dl2_miss``), so the timing simulator
    can run them without instantiating predictor or cache substrates;
    addresses and control outcomes are still synthesized so the same
    trace *can* be run structurally.

    Dependences are drawn from a two-part model. A fraction
    ``chain_dep_fraction`` threads through ``profile.chain_count``
    persistent serial chains — the loop-carried recurrences that give
    real programs their bounded ILP: each value-producing instruction
    that takes a chain dependence consumes the chain's last producer and
    becomes its new tail. The rest are local, geometrically distributed
    distances. With unit latencies the dataflow IPC of the resulting
    trace is approximately ``chain_count``, so
    ``mean_dependence_distance`` behaves as the ILP knob.

    Successive :meth:`generate` calls continue one stream: two calls of
    ``a`` and ``b`` records emit the records of one call of ``a + b``.
    """

    def __init__(self, profile: WorkloadProfile, seed: int = 0):
        self.profile = profile
        rng = SplitMix(seed)
        self._op_rng = rng.split("ops")
        dep_rng = rng.split("deps")
        branch_rng = rng.split("branches")
        mem_rng = rng.split("memory")
        self._icache_rng = rng.split("icache")
        self._classes = list(profile.mix.keys())
        weights = [profile.mix[c] for c in self._classes]
        # weighted_choice's total and running sums, summed the same way.
        self._total = float(sum(weights))
        self._cumulative: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight
            self._cumulative.append(acc)
        self._shapes = [
            _DEP_SHAPE[c] + (c in _VALUE_PRODUCERS,) for c in self._classes
        ]
        self._kinds = [_KIND.get(c, _OTHER) for c in self._classes]
        self._chains: List[Optional[int]] = [None] * profile.chain_count
        p_dep = profile.dependence_p
        self._deps = _Window(
            dep_rng, len(self._chains), p_dep if p_dep < 1.0 else None
        )
        self._branches = _Window(
            branch_rng, max(profile.code_footprint_bytes // _INSTRUCTION_BYTES, 1)
        )
        self._memory = _Window(
            mem_rng, max(profile.data_footprint_bytes // 8 - 1, 0) + 1
        )
        self._in_burst = False
        self._pc = 0x1000
        self._stream_addr = 0x10000
        self._emitted = 0

    def generate(self, count: int) -> Trace:
        """Generate a column-backed trace of ``count`` instructions."""
        import numpy as np

        from repro.trace.columns import RECORD_DTYPE

        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        columns = np.zeros(count, dtype=RECORD_DTYPE)
        # Absent annotations read as None, absent addresses as 0.
        for name in ("mispredict", "dl1_miss", "dl2_miss"):
            columns[name] = -1
        counts = []
        distances = []
        for done in range(0, count, _BLOCK):
            size = min(_BLOCK, count - done)
            block_counts, block_distances = self._block(
                columns[done:done + size]
            )
            counts.append(np.asarray(block_counts, dtype=np.int64))
            distances.append(np.asarray(block_distances, dtype=np.int32))
        indptr = np.zeros(count + 1, dtype=np.int64)
        if count:
            np.cumsum(np.concatenate(counts), out=indptr[1:])
        trace = Trace(
            columns,
            indptr,
            np.concatenate(distances) if distances else np.zeros(0, np.int32),
            name=self.profile.name,
        )
        trace.validate()
        return trace

    def _block(self, columns) -> Tuple[List[int], List[int]]:
        """Fill ``columns`` (the next records' rows) and return their
        dependences as per-record counts and flat distances."""
        import numpy as np

        from repro.trace.columns import OP_CODE

        size = len(columns)
        ops = self._op_column(size)
        kinds = np.asarray(self._kinds)[ops]
        columns["op"] = np.asarray([OP_CODE[c] for c in self._classes])[ops]
        deps = self._deps_column(ops.tolist())
        columns["il1_miss"] = self._icache_column(size)

        control = np.flatnonzero((kinds == _BRANCH) | (kinds == _JUMP))
        taken, target, mispredict = self._control_columns(
            (kinds[control] == _BRANCH).tolist()
        )
        columns["taken"][control] = taken
        columns["target"][control] = target
        columns["has_target"][control] = True
        columns["mispredict"][control] = mispredict
        memory = np.flatnonzero((kinds == _LOAD) | (kinds == _STORE))
        addr, dl1, dl2 = self._memory_columns(
            (kinds[memory] == _LOAD).tolist()
        )
        columns["mem_addr"][memory] = addr
        columns["has_mem_addr"][memory] = True
        columns["dl1_miss"][memory] = dl1
        columns["dl2_miss"][memory] = dl2
        columns["pc"] = self._pc_column(columns["taken"], columns["target"])
        self._emitted += size
        return deps

    def _op_column(self, size: int):
        """Class indices of the next ``size`` records: one
        ``weighted_choice`` each, as the first running sum above the
        scaled draw (the last class when rounding leaves none)."""
        import numpy as np

        scaled = unit_floats(self._op_rng.next_u64_array(size)) * self._total
        picks = np.searchsorted(
            np.asarray(self._cumulative), scaled, side="right"
        )
        return np.minimum(picks, len(self._classes) - 1)

    def _icache_column(self, size: int):
        """I-cache misses of the next ``size`` records: a bool array,
        or one bool for all of them when the rate takes no draw."""
        p = self.profile.il1_mpki / 1000.0
        fixed = _fixed_outcome(p)
        if fixed is not None:
            return fixed
        return unit_floats(self._icache_rng.next_u64_array(size)) < p

    def _deps_column(self, ops: List[int]) -> Tuple[List[int], List[int]]:
        """Dependences of records ``ops`` (class indices): how many each
        record has, and all their distances in record order."""
        profile = self.profile
        chains = self._chains
        shapes = self._shapes
        p_second = profile.second_dep_fraction
        second_fixed = _fixed_outcome(p_second)
        p_chain = profile.chain_dep_fraction
        chain_fixed = _fixed_outcome(p_chain)
        window = self._deps
        geometric = window.p is not None
        u, mod, nxt, pos = window.u, window.mod, window.nxt, window.pos
        size = len(u)
        counts: List[int] = []
        flat: List[int] = []
        for index, cls in enumerate(ops, self._emitted):
            minimum, may_extend, produces = shapes[cls]
            if index == 0:
                if produces:
                    # Seed a chain with this producer even without sources.
                    chains[0] = 0
                counts.append(0)
                continue
            if pos + _DEPS_DRAWS > size:
                window.refill(pos, _DEPS_DRAWS)
                u, mod, nxt, pos = window.u, window.mod, window.nxt, 0
                size = len(u)
            count = minimum
            if may_extend:
                if second_fixed is None:
                    count += u[pos] < p_second
                    pos += 1
                elif second_fixed:
                    count += 1
            counts.append(count)
            for position in range(count):
                if chain_fixed is None:
                    chained = u[pos] < p_chain
                    pos += 1
                else:
                    chained = chain_fixed
                if chained:
                    chain = mod[pos]
                    pos += 1
                    tail = chains[chain]
                    # Only the first dependence of a value producer
                    # extends a chain; consumers (stores, branches) read
                    # chains but do not lengthen them.
                    if produces and position == 0:
                        chains[chain] = index
                    if tail is not None and tail != index:
                        flat.append(index - tail)
                        continue
                distance = 1
                if geometric:
                    end = nxt[pos]
                    if end + _DEP_DRAWS < size:
                        distance += end - pos
                        pos = end + 1
                    else:
                        distance += window.geometric(pos, _DEP_DRAWS)
                        u, mod, nxt, pos = window.u, window.mod, window.nxt, window.pos
                        size = len(u)
                flat.append(distance if distance < index else index)
        window.pos = pos
        return counts, flat

    def _control_columns(
        self, is_branch: List[bool]
    ) -> Tuple[List[bool], List[int], List[bool]]:
        """The taken, target and mispredict fields of the next branches
        and jumps (``is_branch`` tells them apart), one entry each.

        Branches walk a two-state Markov chain whose dwell times put a
        fraction ``profile.burst_fraction`` of them in the bursty state
        (stationarity: ``enter * (1 - f) == leave * f``); each state has
        its own misprediction rate.
        """
        profile = self.profile
        f = profile.burst_fraction
        if f <= 0.0:
            leave_fixed, enter_fixed = True, False
            leave = enter = 0.0
        elif f >= 1.0:
            leave_fixed, enter_fixed = False, True
            leave = enter = 0.0
        else:
            leave = 1.0 - profile.burst_persistence
            enter = leave * f / (1.0 - f)
            leave_fixed = _fixed_outcome(leave)
            enter_fixed = _fixed_outcome(enter)
        p_taken = profile.branch_taken_fraction
        taken_fixed = _fixed_outcome(p_taken)
        rate_in = profile.scaled_mispredict_rate(True)
        rate_in_fixed = _fixed_outcome(rate_in)
        rate_out = profile.scaled_mispredict_rate(False)
        rate_out_fixed = _fixed_outcome(rate_out)
        in_burst = self._in_burst
        window = self._branches
        u, mod, pos = window.u, window.mod, window.pos
        size = len(u)
        taken: List[bool] = []
        target: List[int] = []
        mispredict: List[bool] = []
        for branch in is_branch:
            if pos + _BRANCH_DRAWS > size:
                window.refill(pos, _BRANCH_DRAWS)
                u, mod, pos = window.u, window.mod, 0
                size = len(u)
            if branch:
                if in_burst:
                    if leave_fixed is None:
                        flip = u[pos] < leave
                        pos += 1
                    else:
                        flip = leave_fixed
                    if flip:
                        in_burst = False
                else:
                    if enter_fixed is None:
                        flip = u[pos] < enter
                        pos += 1
                    else:
                        flip = enter_fixed
                    if flip:
                        in_burst = True
                if taken_fixed is None:
                    taken.append(u[pos] < p_taken)
                    pos += 1
                else:
                    taken.append(taken_fixed)
                if in_burst:
                    fixed, rate = rate_in_fixed, rate_in
                else:
                    fixed, rate = rate_out_fixed, rate_out
                if fixed is None:
                    mispredict.append(u[pos] < rate)
                    pos += 1
                else:
                    mispredict.append(fixed)
            else:
                taken.append(True)
                mispredict.append(False)
            target.append(0x1000 + _INSTRUCTION_BYTES * mod[pos])
            pos += 1
        window.pos = pos
        self._in_burst = in_burst
        return taken, target, mispredict

    def _memory_columns(
        self, is_load: List[bool]
    ) -> Tuple[List[int], List[bool], List[bool]]:
        """The address, dl1 and dl2 fields of the next loads and stores
        (``is_load`` tells them apart), one entry each. Short (dl1) and
        long (dl2) misses are mutually exclusive; stores carry neither."""
        profile = self.profile
        p_stride = profile.stride_fraction
        stride_fixed = _fixed_outcome(p_stride)
        stride_bytes = profile.stride_bytes
        limit = 0x10000 + profile.data_footprint_bytes
        long_rate = profile.dl2_miss_rate
        any_rate = profile.dl2_miss_rate + profile.dl1_miss_rate
        stream_addr = self._stream_addr
        window = self._memory
        u, mod, pos = window.u, window.mod, window.pos
        size = len(u)
        addr: List[int] = []
        dl1: List[bool] = []
        dl2: List[bool] = []
        for load in is_load:
            if pos + _MEMORY_DRAWS > size:
                window.refill(pos, _MEMORY_DRAWS)
                u, mod, pos = window.u, window.mod, 0
                size = len(u)
            if stride_fixed is None:
                strided = u[pos] < p_stride
                pos += 1
            else:
                strided = stride_fixed
            if strided:
                stream_addr += stride_bytes
                if stream_addr >= limit:
                    stream_addr = 0x10000
                addr.append(stream_addr)
            else:
                addr.append(0x10000 + 8 * mod[pos])
                pos += 1
            if load:
                roll = u[pos]
                pos += 1
                dl1.append(long_rate <= roll < any_rate)
                dl2.append(roll < long_rate)
            else:
                dl1.append(False)
                dl2.append(False)
        window.pos = pos
        self._stream_addr = stream_addr
        return addr, dl1, dl2

    def _pc_column(self, taken, target):
        """Sequential PCs that wrap at the code footprint, redirected
        by taken branches and jumps (``taken``/``target`` columns).

        Every PC is ``0x1000 + 4 * slot`` with ``slot`` below
        ``slots = ceil(footprint / 4)``: stepping past the last slot
        wraps to slot 0, and every target is a slot. So record ``i``
        sits ``i - anchor`` slots (mod ``slots``) after its anchor: the
        record after the last redirect before it, which starts at the
        redirect's target, or the block's first record, which starts at
        the carried-over PC.
        """
        import numpy as np

        slots = -(-self.profile.code_footprint_bytes // _INSTRUCTION_BYTES)
        steps = np.arange(len(taken) + 1)
        redirects = np.flatnonzero(taken)
        # How many redirects precede each record (and the next block).
        before = np.searchsorted(redirects, steps)
        anchor = np.zeros(len(steps), dtype=np.int64)
        anchor_slot = np.full(len(steps), self._pc - 0x1000, dtype=np.int64)
        anchor_slot //= _INSTRUCTION_BYTES
        redirected = before > 0
        last = redirects[before[redirected] - 1]
        anchor[redirected] = last + 1
        anchor_slot[redirected] = (target[last] - 0x1000) // _INSTRUCTION_BYTES
        pcs = 0x1000 + _INSTRUCTION_BYTES * (
            (anchor_slot + steps - anchor) % slots
        )
        self._pc = int(pcs[-1])
        return pcs[:-1]


def generate_trace(profile: WorkloadProfile, count: int, seed: int = 0) -> Trace:
    """Convenience wrapper: one-shot trace generation."""
    return SyntheticTraceGenerator(profile, seed=seed).generate(count)
