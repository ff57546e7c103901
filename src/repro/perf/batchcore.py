"""Batched structure-of-arrays detailed core.

:class:`~repro.pipeline.core.SuperscalarCore` walks one Python object
per dynamic instruction and pays heap/tuple/attribute overhead for
every scheduling decision. This module is the columnar rewrite of that
hot loop, built on the :class:`~repro.perf.packed.PackedTrace`
machinery, in three layers:

* **Structure-of-arrays pipeline state** — completion, base-ready,
  pending-producer, and dispatch columns live in flat arrays indexed by
  dynamic sequence number; the scalar core's per-event heaps are
  replaced by cycle-bucketed scans (a dict of per-cycle buckets plus a
  small heap of *distinct* pending cycles), and the ROB degenerates to
  a pair of integers because on the correct path dispatched
  instructions are consecutive.
* **Lockstep multi-config batching** — :func:`run_batch` simulates N
  sweep points over one set of shared trace columns. Everything that
  depends only on the trace (the packed columns, the filtered CSR
  producer lists, the miss-class codes) is computed once; per-config
  derived columns (load latencies, I-cache refill latencies, FU tables)
  are deduplicated across configs by **divergence group** — configs
  whose cache or FU parameters agree share the same column objects, so
  a ROB/width/frontend sweep derives its columns exactly once.
* **Bit-exactness by construction** — the kernel replays the scalar
  core's scheduling decisions in the same order (oldest-first issue,
  in-order commit, identical time-advance candidates), so the
  :class:`~repro.pipeline.result.SimulationResult` it produces is
  field-for-field equal to the scalar core's, events and timelines
  included. The scalar core remains the oracle: configurations the
  kernel does not model (wrong-path ghost dispatch, the random-issue
  ablation) and runs under the ambient sanitizer, whose checks live in
  the scalar loop, fall back to it per config.

The kernel has no tracer or metrics hooks, and needs none: every run,
whichever core it took, is reported from its finished result by
:func:`repro.pipeline.core._run_cores`, the entry behind
:func:`run_batch` and :func:`repro.pipeline.core.simulate`.
"""

from __future__ import annotations

import weakref
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import sanitizer as _sanitizer
from repro.perf.packed import (
    DCODE_LONG,
    LOAD_CODE,
    OP_CLASSES,
    PackedTrace,
    oracle_miss_columns,
)
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import SuperscalarCore, _run_cores
from repro.pipeline.events import (
    BranchMispredictEvent,
    ICacheMissEvent,
    LongDMissEvent,
    MissEvent,
)
from repro.pipeline.result import SimulationResult, cycle_column
from repro.trace.stream import Trace


def batch_supported(config: CoreConfig) -> bool:
    """True when the SoA kernel models ``config`` exactly.

    Wrong-path ghost dispatch and the random-issue ablation stay on the
    scalar oracle: ghosts break the consecutive-seq ROB encoding, and
    the random policy's SplitMix shuffle is defined over the scalar
    core's ready-pool ordering.
    """
    return config.issue_policy == "oldest" and not config.dispatch_wrong_path


class TraceColumns:
    """Config-independent columns of one trace, shared across a batch.

    Built from the trace's :class:`PackedTrace` form by the
    :class:`BatchedSuperscalarCore` that runs it, which keeps only its
    last trace's columns: op codes, the oracle miss flags, the D-cache
    miss-class code per record, and the dependence CSR rewritten from
    *distances* to absolute *producer indices* (negative producers —
    before the trace start — already filtered out).
    """

    __slots__ = (
        "n",
        "op",
        "op_np",
        "misp",
        "il1",
        "is_load",
        "is_long",
        "dcode",
        "prod_indptr",
        "prod_data",
        "prod_lists",
        "__weakref__",
    )

    def __init__(
        self,
        n: int,
        op: List[int],
        op_np: np.ndarray,
        misp: List[bool],
        il1: np.ndarray,
        is_load: np.ndarray,
        is_long: List[bool],
        dcode: np.ndarray,
        prod_indptr: List[int],
        prod_data: List[int],
    ):
        self.n = n
        self.op = op
        self.op_np = op_np
        self.misp = misp
        self.il1 = il1
        self.is_load = is_load
        self.is_long = is_long
        self.dcode = dcode
        self.prod_indptr = prod_indptr
        self.prod_data = prod_data
        # Per-seq producer tuples, materialized once per trace and
        # shared by every config in a batch — the kernel's dispatch walk
        # then skips CSR slicing entirely (tuples iterate faster than
        # list slices and are safely shareable).
        self.prod_lists: List[Tuple[int, ...]] = [
            tuple(prod_data[prod_indptr[i]:prod_indptr[i + 1]])
            for i in range(n)
        ]

    @classmethod
    def from_packed(cls, packed: PackedTrace) -> "TraceColumns":
        n = len(packed)
        op = packed.op
        is_load = op == LOAD_CODE
        misp, il1, dcode = oracle_miss_columns(packed)
        is_long = is_load & (dcode == DCODE_LONG)
        indptr, data = packed.producer_csr()
        return cls(
            n=n,
            op=op.tolist(),
            op_np=op,
            misp=misp.tolist(),
            il1=il1,
            is_load=is_load,
            is_long=is_long.tolist(),
            dcode=dcode,
            prod_indptr=indptr,
            prod_data=data,
        )


class _CacheColumns:
    """Per-seq latency columns derived from one cache-latency group."""

    __slots__ = ("exec_extra", "icache_lat")

    def __init__(self, cols: TraceColumns, config: CoreConfig):
        # Indexed by the DCODE_* miss-class code.
        dtable = np.array(
            [0, config.l1_latency, config.l2_latency, config.memory_latency],
            dtype=np.int64,
        )
        # Loads pay their miss class on top of the FU latency; stores
        # and non-memory ops pay nothing (matches OracleAnnotator).
        self.exec_extra: List[int] = np.where(
            cols.is_load, dtable[cols.dcode], 0
        ).tolist()
        self.icache_lat: List[int] = np.where(
            cols.il1, config.l2_latency, 0
        ).tolist()


class _FUTables:
    """Flat per-op-code FU parameter tables for one fu-spec group."""

    __slots__ = ("latency", "interval", "count")

    def __init__(self, config: CoreConfig):
        self.latency = [config.fu_specs[c].latency for c in OP_CLASSES]
        self.interval = [config.fu_specs[c].issue_interval for c in OP_CLASSES]
        self.count = [config.fu_specs[c].count for c in OP_CLASSES]


def _combined_latency(
    cols: TraceColumns, cache_cols: "_CacheColumns", fu: "_FUTables"
) -> List[int]:
    """Per-seq total execute latency: FU latency + D-cache extra."""
    return (
        np.asarray(fu.latency, dtype=np.int64)[cols.op_np]
        + np.asarray(cache_cols.exec_extra, dtype=np.int64)
    ).tolist()


def _cache_group_key(config: CoreConfig) -> Tuple[int, int, int]:
    return (config.l1_latency, config.l2_latency, config.memory_latency)


def _fu_group_key(config: CoreConfig) -> Tuple:
    return tuple(
        (c.value, s.count, s.latency, s.issue_interval)
        for c, s in sorted(config.fu_specs.items(), key=lambda kv: kv[0].value)
    )


class BatchPlan:
    """Divergence bookkeeping for one batch of configs.

    Derived columns are deduplicated by group key; two configs in the
    same cache group share the *same* column lists.
    """

    def __init__(self, cols: TraceColumns, configs: Sequence[CoreConfig]):
        self.cols = cols
        self.configs = list(configs)
        self._cache_groups: Dict[Tuple, _CacheColumns] = {}
        self._fu_groups: Dict[Tuple, _FUTables] = {}
        self._lat_groups: Dict[Tuple, List[int]] = {}
        self.cache_group_of: List[Tuple] = []
        self.fu_group_of: List[Tuple] = []
        for config in self.configs:
            ckey = _cache_group_key(config)
            if ckey not in self._cache_groups:
                self._cache_groups[ckey] = _CacheColumns(cols, config)
            self.cache_group_of.append(ckey)
            fkey = _fu_group_key(config)
            if fkey not in self._fu_groups:
                self._fu_groups[fkey] = _FUTables(config)
            self.fu_group_of.append(fkey)
            pair = (ckey, fkey)
            if pair not in self._lat_groups:
                self._lat_groups[pair] = _combined_latency(
                    cols, self._cache_groups[ckey], self._fu_groups[fkey]
                )

    def cache_columns(self, index: int) -> _CacheColumns:
        return self._cache_groups[self.cache_group_of[index]]

    def fu_tables(self, index: int) -> _FUTables:
        return self._fu_groups[self.fu_group_of[index]]

    def lat_column(self, index: int) -> List[int]:
        return self._lat_groups[
            (self.cache_group_of[index], self.fu_group_of[index])
        ]


class KernelOutput:
    """Raw kernel products before assembly into a SimulationResult."""

    __slots__ = (
        "events",
        "dispatch_cycle",
        "issue_cycle",
        "complete_cycle",
        "commit_cycle",
        "fu_issued",
        "rob_peak",
        "last_commit_cycle",
    )

    def __init__(self, **fields):
        for name, value in fields.items():
            setattr(self, name, value)


def _simulate_columns(
    cols: TraceColumns,
    cache_cols: _CacheColumns,
    fu: _FUTables,
    config: CoreConfig,
    lat_total: Optional[List[int]] = None,
) -> KernelOutput:
    """The SoA kernel: one config over one column set, scalar-exact.

    Mirrors ``SuperscalarCore.run`` phase for phase (completions,
    commit, dispatch, wakeup, issue, time advance) with identical
    ordering rules, so every produced field is equal to the scalar
    core's. See that module's docstring for the machine model.

    Instead of materializing completion events, commit reads the
    completion column directly (an instruction with ``comp[seq] <=
    cycle`` has, by phase order, already been processed by the scalar
    core's completion drain at this point), so the completion queue
    degenerates to a lazily stale-dropped heap of cycles that exists
    only to feed the time-advance candidate set.
    """
    n = cols.n
    op = cols.op
    misp = cols.misp
    is_long = cols.is_long
    icache_lat = cache_cols.icache_lat
    prod_lists = cols.prod_lists
    if lat_total is None:
        lat_total = _combined_latency(cols, cache_cols, fu)
    fu_interval = fu.interval

    dispatch_width = config.dispatch_width
    issue_width = config.issue_width
    commit_width = config.commit_width
    rob_size = config.rob_size
    frontend_depth = config.frontend_depth
    record_timeline = config.record_timeline

    fu_free: List[List[int]] = [[0] * c for c in fu.count]
    fu_scan = [range(c) for c in fu.count]
    # A single-cycle-interval FU group with at least issue_width units
    # can never be the binding constraint: at most issue_width - 1
    # same-cycle reservations exist when a unit is sought, and every
    # earlier reservation (made at c' < cycle, free at c' + 1) has
    # already expired — the scan always succeeds. Those codes skip the
    # reservation bookkeeping entirely. ``op_bind`` is the complement
    # of that property mapped per seq, so the issue loop pays one
    # truthy column read instead of two table lookups.
    fu_bind = [
        0 if (fu_interval[i] == 1 and c >= issue_width) else 1
        for i, c in enumerate(fu.count)
    ]
    op_bind = np.asarray(fu_bind, dtype=np.uint8)[cols.op_np].tolist()

    comp = [-1] * n  # completion cycle; -1 = not issued yet
    base_ready = [0] * n
    pending = [0] * n
    waiters: List[Optional[List[int]]] = [None] * n
    icache_done = bytearray(n)
    dispatch_of = [0] * n
    issue_of = [0] * n
    commit_cycle = [0] * n if record_timeline else None

    # Cycle-bucketed ready queue: the bucket dict maps a cycle to the
    # seqs that become ready then; the key heap holds each *distinct*
    # pending cycle once, so time advance peeks in O(1) and a bucket
    # drain replaces per-event heap traffic with one heapify.
    # The overwhelmingly common ready cycle is `cycle + 1` (dispatch
    # with satisfied deps, single-cycle producers), so that one bucket
    # lives outside the dict as (nr_cycle, nr_list) and is drained at
    # the top of each iteration — the steady-state path then touches no
    # dict and no key heap at all. Completions need no queue either:
    # commit reads `comp` directly and time advance only ever waits on
    # the head's completion.
    ready_buckets: Dict[int, List[int]] = {}
    ready_keys: List[int] = []
    ready_now: List[int] = []  # min-heap of ready, un-issued seqs
    nr_list: List[int] = []  # the cycle+1 ready bucket, drained next iter
    deferred: List[int] = []
    heappush_ = heappush  # locals: the loop below runs per cycle
    heappop_ = heappop
    heapify_ = heapify

    events: List[MissEvent] = []
    rob_head = 0  # oldest in-flight seq; occupancy = next_dispatch - rob_head
    rob_peak = 0
    next_dispatch = 0
    frontend_ready = frontend_depth
    cycle = frontend_ready
    stall_branch = -1  # seq of the blocking mispredict, -1 = none
    window_occ = 0
    last_commit_cycle = 0

    while rob_head < n:
        nxt = cycle + 1

        # --- drain the next-cycle ready bucket ---------------------------
        # Entries were filed at some earlier cycle c with key c+1 <= the
        # current cycle, so they are always due here; moving them into
        # the issue pool at the iteration top (the scalar core does it
        # in its wakeup phase) is equivalent because nothing in between
        # reads the pool.
        if nr_list:
            if ready_now:
                for seq in nr_list:
                    heappush_(ready_now, seq)
                nr_list = []
            else:
                ready_now = nr_list
                heapify_(ready_now)
                nr_list = []

        # --- commit (in-order commit count == rob_head) -------------------
        # Guard on the head's completion first: cycles that commit
        # nothing (head in flight, or window empty with comp == -1)
        # skip the limit math and the scan entirely.
        done = comp[rob_head]
        if 0 <= done <= cycle:
            limit = rob_head + commit_width
            if limit > next_dispatch:
                limit = next_dispatch
            head = rob_head + 1
            while head < limit:
                done = comp[head]
                if done < 0 or done > cycle:
                    break
                head += 1
            if record_timeline:
                for seq in range(rob_head, head):
                    commit_cycle[seq] = cycle
            rob_head = head
            last_commit_cycle = cycle

        # --- dispatch ----------------------------------------------------
        if stall_branch < 0 and frontend_ready <= cycle:
            burst = rob_size - (next_dispatch - rob_head)
            if burst > dispatch_width:
                burst = dispatch_width
            remaining = n - next_dispatch
            if burst > remaining:
                burst = remaining
            dispatch_end = next_dispatch + burst
            for seq in range(next_dispatch, dispatch_end):
                lat = icache_lat[seq]
                if lat and not icache_done[seq]:
                    icache_done[seq] = 1
                    frontend_ready = cycle + lat
                    events.append(
                        ICacheMissEvent(
                            seq=seq, cycle=cycle, latency=lat, long_miss=False
                        )
                    )
                    next_dispatch = seq
                    break
                dispatch_of[seq] = cycle
                unresolved = 0
                ready_at = nxt
                for producer in prod_lists[seq]:
                    done = comp[producer]
                    if done < 0:
                        w = waiters[producer]
                        if w is None:
                            waiters[producer] = [seq]
                        else:
                            w.append(seq)
                        unresolved += 1
                    elif done > ready_at:
                        ready_at = done
                if unresolved:
                    # Only instructions with in-flight producers are
                    # ever read back through base_ready/pending (the
                    # consumer wakeup path); resolved ones go straight
                    # to a ready bucket.
                    base_ready[seq] = ready_at
                    pending[seq] = unresolved
                else:
                    if ready_at == nxt:
                        nr_list.append(seq)
                    else:
                        bucket = ready_buckets.get(ready_at)
                        if bucket is None:
                            ready_buckets[ready_at] = [seq]
                            heappush_(ready_keys, ready_at)
                        else:
                            bucket.append(seq)
                if misp[seq]:
                    stall_branch = seq
                    window_occ = seq - rob_head
                    next_dispatch = seq + 1
                    break
            else:
                next_dispatch = dispatch_end
            occupancy = next_dispatch - rob_head
            if occupancy > rob_peak:
                rob_peak = occupancy

        # --- wakeup ------------------------------------------------------
        while ready_keys and ready_keys[0] <= cycle:
            bucket = ready_buckets.pop(heappop_(ready_keys))
            if ready_now:
                for seq in bucket:
                    heappush_(ready_now, seq)
            else:
                ready_now = bucket
                heapify_(ready_now)

        # --- issue (oldest-first) ----------------------------------------
        issued = 0
        while ready_now and issued < issue_width:
            seq = heappop_(ready_now)
            if op_bind[seq]:
                code = op[seq]
                free = fu_free[code]
                # First-free beats argmin: a reservation that already
                # expired stays satisfiable forever, so replacing *any*
                # expired slot leaves the multiset of future
                # reservations — the only thing later issue decisions
                # can observe — identical to the scalar core's
                # pick-the-minimum.
                for unit in fu_scan[code]:
                    if free[unit] <= cycle:
                        free[unit] = cycle + fu_interval[code]
                        break
                else:
                    deferred.append(seq)
                    continue
            issued += 1
            issue_of[seq] = cycle
            done = cycle + lat_total[seq]
            comp[seq] = done
            w = waiters[seq]
            if w is not None:
                waiters[seq] = None
                for consumer in w:
                    if done > base_ready[consumer]:
                        base_ready[consumer] = done
                    pending[consumer] -= 1
                    if not pending[consumer]:
                        ready_at = base_ready[consumer]
                        if ready_at == nxt:
                            nr_list.append(consumer)
                        else:
                            bucket = ready_buckets.get(ready_at)
                            if bucket is None:
                                ready_buckets[ready_at] = [consumer]
                                heappush_(ready_keys, ready_at)
                            else:
                                bucket.append(consumer)
            if is_long[seq]:
                events.append(
                    LongDMissEvent(
                        seq=seq, cycle=dispatch_of[seq], complete_cycle=done
                    )
                )
            if stall_branch == seq:
                events.append(
                    BranchMispredictEvent(
                        seq=seq,
                        cycle=dispatch_of[seq],
                        resolve_cycle=done,
                        refill_cycles=frontend_depth,
                        window_occupancy=window_occ,
                    )
                )
                frontend_ready = done + frontend_depth
                stall_branch = -1
        if deferred:
            for seq in deferred:
                heappush_(ready_now, seq)
            del deferred[:]

        # --- advance time ------------------------------------------------
        # After the wakeup drain every candidate is >= cycle + 1, so
        # pending ready work makes cycle + 1 the minimum outright — the
        # common case exits here. The scalar core also wakes at
        # completions of non-head instructions, but those cycles are
        # provably inert (consumer wakeups were scheduled into the
        # ready queues at producer issue; FU retries ride the
        # ready_now -> cycle+1 candidate; commit only ever waits on the
        # head), so the completion candidate collapses to the head's
        # completion cycle and every *acting* cycle — hence every
        # result field — is unchanged.
        if ready_now or nr_list:
            cycle = nxt
            continue
        best = ready_keys[0] if ready_keys else -1
        if rob_head < next_dispatch:
            done = comp[rob_head]
            if done >= 0:
                candidate = done if done > nxt else nxt
                if best < 0 or candidate < best:
                    best = candidate
        if (
            next_dispatch < n
            and stall_branch < 0
            and next_dispatch - rob_head < rob_size
        ):
            candidate = frontend_ready if frontend_ready > nxt else nxt
            if best < 0 or candidate < best:
                best = candidate
        if best < 0:
            if rob_head < n:
                raise RuntimeError(
                    f"simulator deadlock at cycle {cycle}: "
                    f"{rob_head}/{n} committed"
                )
            break
        cycle = nxt if nxt > best else best

    # Every dispatched instruction issues exactly once, so the per-FU
    # issue counts are just the op-code histogram of the trace — no
    # per-issue counter needed in the loop.
    fu_issued = np.bincount(
        cols.op_np, minlength=len(fu.count)
    ).tolist()
    # The timeline columns are the kernel's own state lists;
    # _assemble_result types them.
    return KernelOutput(
        events=events,
        dispatch_cycle=dispatch_of if record_timeline else None,
        issue_cycle=issue_of if record_timeline else None,
        complete_cycle=comp if record_timeline else None,
        commit_cycle=commit_cycle,
        fu_issued=fu_issued,
        rob_peak=rob_peak,
        last_commit_cycle=last_commit_cycle,
    )


def _assemble_result(
    output: KernelOutput, config: CoreConfig, n: int
) -> SimulationResult:
    fu_counts = {
        op_class.value: output.fu_issued[code]
        for code, op_class in enumerate(OP_CLASSES)
        if op_class in config.fu_specs
    }
    return SimulationResult(
        instructions=n,
        cycles=output.last_commit_cycle + 1,
        events=output.events,
        dispatch_cycle=cycle_column(output.dispatch_cycle),
        issue_cycle=cycle_column(output.issue_cycle),
        complete_cycle=cycle_column(output.complete_cycle),
        commit_cycle=cycle_column(output.commit_cycle),
        fu_issue_counts=fu_counts,
        rob_peak_occupancy=output.rob_peak,
        squashed_ghosts=0,
    )


class BatchedSuperscalarCore:
    """Lockstep executor for N configurations over one trace.

    Construct with the sweep's configurations, then :meth:`run` a trace
    to get one :class:`SimulationResult` per configuration, in config
    order. Trace columns are shared across all points, derived columns
    across each divergence group; configurations the kernel cannot
    model exactly (see :func:`batch_supported`), and every config under
    an ambient sanitizer, silently use the scalar oracle so a mixed
    sweep still returns uniformly exact results.
    """

    def __init__(self, configs: Sequence[CoreConfig]):
        self.configs = list(configs)
        # The last trace's plan (and so its columns), keyed on that
        # trace, held weakly, and its mutation version: a core reused
        # over one trace stays warm, and a discarded core frees them.
        self._last: Optional[Tuple[weakref.ref, int, BatchPlan]] = None

    def _plan_for(self, trace: Trace) -> BatchPlan:
        last = self._last
        if last is not None:
            ref, version, plan = last
            if ref() is trace and version == trace.version:
                return plan
        plan = BatchPlan(TraceColumns.from_packed(trace.pack()), self.configs)
        self._last = (weakref.ref(trace), trace.version, plan)
        return plan

    def run(self, trace: Trace) -> List[SimulationResult]:
        configs = self.configs
        if not configs:
            return []
        n = len(trace)
        if n == 0:
            return [
                SimulationResult(instructions=0, cycles=0) for _ in configs
            ]
        oracle_all = _sanitizer.current() is not None
        plan: Optional[BatchPlan] = None
        results: List[Optional[SimulationResult]] = [None] * len(configs)
        for index, config in enumerate(configs):
            if oracle_all or not batch_supported(config):
                results[index] = SuperscalarCore(config).run(trace)
                continue
            if plan is None:
                plan = self._plan_for(trace)
            output = _simulate_columns(
                plan.cols,
                plan.cache_columns(index),
                plan.fu_tables(index),
                config,
                lat_total=plan.lat_column(index),
            )
            results[index] = _assemble_result(output, config, n)
        return results  # type: ignore[return-value]


def run_batch(
    trace: Trace, configs: Sequence[CoreConfig]
) -> List[SimulationResult]:
    """Simulate ``trace`` under every config in one batched call."""
    return _run_cores(trace, configs)


__all__ = [
    "BatchPlan",
    "BatchedSuperscalarCore",
    "TraceColumns",
    "batch_supported",
    "run_batch",
]
