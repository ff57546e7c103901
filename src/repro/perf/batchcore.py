"""Batched structure-of-arrays detailed core.

This is the one out-of-order core: it runs the machine model described
in :mod:`repro.pipeline.core` over a trace's columns
(:mod:`repro.trace.columns`) instead of one Python object
per dynamic instruction, in three layers:

* **Structure-of-arrays pipeline state** — completion, base-ready,
  pending-producer, and dispatch columns live in flat arrays indexed by
  dynamic sequence number; the scalar core's per-event heaps are
  replaced by cycle-bucketed scans (a dict of per-cycle buckets plus a
  small heap of *distinct* pending cycles), and the ROB degenerates to
  a pair of integers because on the correct path dispatched
  instructions are consecutive.
* **Lockstep multi-config batching** — :func:`run_batch` simulates N
  sweep points over one set of shared trace columns. Everything that
  depends only on the trace (its columns, the filtered CSR
  producer lists, the miss-class codes) is computed once; per-config
  derived columns (load latencies, I-cache refill latencies, FU tables)
  are deduplicated across configs by **divergence group** — configs
  whose cache or FU parameters agree share the same column objects, so
  a ROB/width/frontend sweep derives its columns exactly once. One loop
  (:func:`_run_cores`) runs the configs and holds that memo; the kernel
  (:func:`_simulate_columns`) returns each
  :class:`~repro.pipeline.result.SimulationResult` itself.
* **Bit-exactness by construction** — the kernel replays the
  scheduling decisions of a structure-per-object core (a ROB deque,
  unit heaps, per-event queues) in the same order (oldest-first or
  seeded random issue, in-order commit, identical time-advance
  candidates), so the :class:`~repro.pipeline.result.SimulationResult`
  it produces is field-for-field equal to that core's, events and
  timelines included. That core is kept as the test oracle
  (``tests/pipeline/scalar_core.py``).

Every out-of-order configuration runs here: wrong-path ghost dispatch
and random issue are kernel modes. The kernel reads its miss outcomes
as one :class:`~repro.pipeline.annotate.MissColumns` set per config:
the trace's oracle flags priced at the config's latencies
(:meth:`~repro.pipeline.annotate.MissColumns.oracle`, shared per cache
group), or a structural annotator's one program-order pass over the
trace (:meth:`~repro.pipeline.annotate.StructuralAnnotator.miss_columns`),
run first, once per config, because a core consumes outcomes exactly
so. Under the ambient sanitizer the kernel makes the oracle's
cycle-level checks (window occupancy at each dispatch, commit order at
each commit) and seals each run; with it off, they cost a ``None`` test
in each cycle that commits or dispatches. The in-order core
(:mod:`repro.pipeline.inorder`) reads the same :class:`TraceColumns`,
miss columns and FU tables.

The kernel has no tracer or metrics hooks, and needs none: every run
is reported from its finished result
(:func:`repro.pipeline.result.observe_run`) by :func:`_run_cores`, the
loop behind :func:`run_batch` and :func:`repro.pipeline.core.simulate`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import sanitizer as _sanitizer
from repro.pipeline.annotate import MissColumns, StructuralAnnotator
from repro.pipeline.config import CoreConfig
from repro.pipeline.events import (
    BranchMispredictEvent,
    ICacheMissEvent,
    LongDMissEvent,
    MissEvent,
)
from repro.pipeline.result import SimulationResult, cycle_column, observe_run
from repro.trace.columns import DCODE_LONG, OP_CLASSES, oracle_miss_columns
from repro.trace.stream import Trace
from repro.util.rng import SplitMix, derive_seed


class TraceColumns:
    """Config-independent columns of one trace, shared across a batch.

    Built from the trace's columns once per :func:`_run_cores` call,
    and shared by its configs, or once per in-order run: op codes, the
    oracle miss flags, each load's D-cache miss-class code, and the
    dependence CSR rewritten from *distances* to absolute *producer
    indices* (negative producers — before the trace start — already
    filtered out).
    """

    __slots__ = (
        "n",
        "op",
        "op_np",
        "misp",
        "il1",
        "is_long",
        "load_class",
        "prod_indptr",
        "prod_data",
        "_prod_lists",
        "__weakref__",
    )

    def __init__(
        self,
        n: int,
        op: List[int],
        op_np: np.ndarray,
        misp: List[bool],
        il1: np.ndarray,
        is_long: List[bool],
        load_class: np.ndarray,
        prod_indptr: List[int],
        prod_data: List[int],
    ):
        self.n = n
        self.op = op
        self.op_np = op_np
        self.misp = misp
        self.il1 = il1
        self.is_long = is_long
        self.load_class = load_class
        self.prod_indptr = prod_indptr
        self.prod_data = prod_data
        self._prod_lists: Optional[List[Tuple[int, ...]]] = None

    @property
    def prod_lists(self) -> List[Tuple[int, ...]]:
        """Per-seq producer tuples, materialized on first use and shared
        by every config in a batch — the kernel's dispatch walk then
        skips CSR slicing entirely (tuples iterate faster than list
        slices and are safely shareable). The in-order core walks the
        CSR once and never builds them."""
        if self._prod_lists is None:
            indptr = self.prod_indptr
            data = self.prod_data
            self._prod_lists = [
                tuple(data[indptr[i]:indptr[i + 1]]) for i in range(self.n)
            ]
        return self._prod_lists

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceColumns":
        n = len(trace)
        op = trace.op
        misp, il1, load_class = oracle_miss_columns(trace)
        indptr, data = trace.producer_csr()
        return cls(
            n=n,
            op=op.tolist(),
            op_np=op,
            misp=misp.tolist(),
            il1=il1,
            is_long=(load_class == DCODE_LONG).tolist(),
            load_class=load_class,
            prod_indptr=indptr,
            prod_data=data,
        )


class _FUTables:
    """Flat per-op-code FU parameter tables for one fu-spec group."""

    __slots__ = ("latency", "interval", "count")

    def __init__(self, config: CoreConfig):
        self.latency = [config.fu_specs[c].latency for c in OP_CLASSES]
        self.interval = [config.fu_specs[c].issue_interval for c in OP_CLASSES]
        self.count = [config.fu_specs[c].count for c in OP_CLASSES]

    def binding(self, issue_width: int) -> List[int]:
        """Per op code, 0 when the class can never be the binding
        constraint, else 1.

        A single-cycle-interval class with at least ``issue_width``
        units always has a unit free: at most ``issue_width - 1``
        same-cycle reservations exist when a unit is sought, and every
        earlier reservation (made at c' < cycle, free at c' + 1) has
        already expired. Those codes skip the reservation bookkeeping.
        """
        return [
            0 if (interval == 1 and count >= issue_width) else 1
            for interval, count in zip(self.interval, self.count)
        ]


def _combined_latency(
    cols: TraceColumns, miss: MissColumns, fu: "_FUTables"
) -> List[int]:
    """Per-seq total execute latency: FU latency + D-cache extra."""
    return (
        np.asarray(fu.latency, dtype=np.int64)[cols.op_np]
        + np.asarray(miss.exec_extra, dtype=np.int64)
    ).tolist()


#: ``squash_at`` while no wrong-path squash is pending.
_NO_SQUASH = 1 << 62


def _simulate_columns(
    cols: TraceColumns,
    miss: MissColumns,
    fu: _FUTables,
    config: CoreConfig,
    lat_total: Optional[List[int]] = None,
    san: Optional[_sanitizer.Sanitizer] = None,
) -> SimulationResult:
    """The SoA kernel: one config over one column set, scalar-exact.

    Mirrors the scalar oracle's ``run`` phase for phase (completions,
    squash, commit, dispatch, wakeup, issue, time advance) with
    identical ordering rules, so every produced field is equal to the
    scalar core's. See :mod:`repro.pipeline.core` for the machine
    model. A sanitizer ``san`` gets the oracle's cycle-level checks, in
    its order: each commit and the committing instruction's stage
    order, then the window after each real and each ghost dispatch.
    The stage check reads the dispatch, issue and completion columns
    the loop keeps whether or not the timeline is recorded.

    Instead of materializing completion events, commit reads the
    completion column directly (an instruction with ``comp[seq] <=
    cycle`` has, by phase order, already been processed by the scalar
    core's completion drain at this point), so the completion queue
    degenerates to a lazily stale-dropped heap of cycles that exists
    only to feed the time-advance candidate set.

    Wrong-path ghosts are keyed ``n + g`` for the run's ``g``-th ghost,
    which takes record ``g % n``'s op class: every real seq in flight
    during a stall is older than the stalled branch, so the keys order
    exactly as the scalar core's tickets do. Ghosts sit behind the
    branch and are squashed at its completion cycle, before it can
    commit, so they never reach the ROB head. A ghost is squashed once
    the cycle reaches ``squash_at`` or a later stall has begun (its key
    is below ``ghost_floor``); squashed keys drop out wherever they are
    met. Their window slots matter only to ghost dispatch, which ends
    when the branch issues, so they are released at the next stall.
    """
    n = cols.n
    op = cols.op
    misp = miss.misp
    is_long = miss.is_long
    icache_lat = miss.icache_lat
    icache_long = miss.icache_long
    prod_lists = cols.prod_lists
    if lat_total is None:
        lat_total = _combined_latency(cols, miss, fu)
    fu_interval = fu.interval

    dispatch_width = config.dispatch_width
    issue_width = config.issue_width
    commit_width = config.commit_width
    rob_size = config.rob_size
    frontend_depth = config.frontend_depth
    record_timeline = config.record_timeline
    wrong_path = config.dispatch_wrong_path
    # Random issue shuffles the ready pool in heap-array order, as the
    # scalar core does; see the wakeup phase.
    ordered = config.issue_policy == "oldest"
    shuffle = None
    if not ordered:
        shuffle = SplitMix(derive_seed(config.seed, "issue")).shuffle

    fu_free: List[List[int]] = [[0] * c for c in fu.count]
    fu_scan = [range(c) for c in fu.count]
    # Codes that can never bind skip the reservation scan
    # (_FUTables.binding); ``op_bind`` maps that flag per seq, so the
    # issue loop pays one truthy column read instead of two table
    # lookups.
    fu_bind = fu.binding(issue_width)
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
    due: List[int] = []  # random issue: the seqs waking this cycle
    deferred: List[int] = []
    heappush_ = heappush  # locals: the loop below runs per cycle
    heappop_ = heappop
    heapify_ = heapify
    take = heappop if ordered else list.pop

    events: List[MissEvent] = []
    rob_head = 0  # oldest in-flight seq
    # Real occupancy is next_dispatch - rob_head; live ghosts add to it.
    rob_peak = 0
    next_dispatch = 0
    frontend_ready = frontend_depth
    cycle = frontend_ready
    stall_branch = -1  # seq of the blocking mispredict, -1 = none
    window_occ = 0
    last_commit_cycle = 0

    ghost_count = 0  # ghosts dispatched so far; every one is squashed
    ghost_floor = n  # key of the live stall's first ghost
    rob_ghosts = 0  # the live stall's ghosts in the window
    ghost_room = 0  # dispatch slots the stall's own cycle left for ghosts
    squash_at = _NO_SQUASH  # the live stall's squash cycle, once known
    ghost_issued = [0] * len(fu.count)

    while rob_head < n:
        nxt = cycle + 1

        # --- drain the next-cycle ready bucket ---------------------------
        # Entries were filed at some earlier cycle c with key c+1 <= the
        # current cycle, so they are always due here; moving them into
        # the issue pool at the iteration top (the scalar core does it
        # in its wakeup phase) is equivalent because nothing in between
        # reads the pool. Random issue keeps them for its wakeup phase,
        # where their push order is observable.
        if nr_list:
            if not ordered:
                due = nr_list
                nr_list = []
            elif ready_now:
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
            if san is not None:
                for seq in range(rob_head, head):
                    san.check_commit(cycle, seq=seq)
                    san.check_stages(
                        seq, dispatch_of[seq], issue_of[seq], comp[seq], cycle
                    )
            rob_head = head
            last_commit_cycle = cycle

        # --- dispatch ----------------------------------------------------
        if stall_branch < 0 and frontend_ready <= cycle:
            first = next_dispatch
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
                            seq=seq,
                            cycle=cycle,
                            latency=lat,
                            long_miss=bool(icache_long[seq]),
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
                    ghost_floor = n + ghost_count
                    rob_ghosts = 0
                    squash_at = _NO_SQUASH
                    ghost_room = dispatch_width - (seq + 1 - next_dispatch)
                    next_dispatch = seq + 1
                    break
            else:
                next_dispatch = dispatch_end
            occupancy = next_dispatch - rob_head
            if occupancy > rob_peak:
                rob_peak = occupancy
            if san is not None:
                # The window after each of this cycle's dispatches.
                for held in range(first - rob_head + 1, occupancy + 1):
                    san.check_occupancy(cycle, held, rob_size)

        # --- wrong-path ghost dispatch -----------------------------------
        # The stall's own cycle fills the slots its real dispatch left;
        # later cycles get the full width. Ghosts wake next cycle.
        if wrong_path and stall_branch >= 0:
            room = rob_size - (next_dispatch - rob_head) - rob_ghosts
            if room > ghost_room:
                room = ghost_room
            ghost_room = dispatch_width
            if room > 0:
                key = n + ghost_count
                nr_list.extend(range(key, key + room))
                ghost_count += room
                occupancy = next_dispatch - rob_head + rob_ghosts
                if san is not None:
                    for held in range(occupancy + 1, occupancy + room + 1):
                        san.check_occupancy(cycle, held, rob_size)
                rob_ghosts += room
                occupancy += room
                if occupancy > rob_peak:
                    rob_peak = occupancy

        # --- wakeup ------------------------------------------------------
        if ordered:
            while ready_keys and ready_keys[0] <= cycle:
                bucket = ready_buckets.pop(heappop_(ready_keys))
                if ready_now:
                    for seq in bucket:
                        heappush_(ready_now, seq)
                else:
                    ready_now = bucket
                    heapify_(ready_now)
        else:
            # The scalar core pushes this cycle's wakeups one by one in
            # ticket order onto the heap its deferrals left, then
            # shuffles the live entries in heap-array order: rebuild
            # that exact array (no heapify), then reverse the shuffled
            # pool so the issue loop pops it front to back.
            while ready_keys and ready_keys[0] <= cycle:
                due += ready_buckets.pop(heappop_(ready_keys))
            if due:
                due.sort()
                for seq in due:
                    if seq < n or (
                        seq >= ghost_floor and cycle < squash_at
                    ):
                        heappush_(ready_now, seq)
                due = []
            if ready_now:
                if wrong_path:
                    ready_now = [
                        s
                        for s in ready_now
                        if s < n or (s >= ghost_floor and cycle < squash_at)
                    ]
                shuffle(ready_now)
                ready_now.reverse()

        # --- issue ---------------------------------------------------------
        issued = 0
        while ready_now and issued < issue_width:
            seq = take(ready_now)
            if seq >= n:
                # A wrong-path ghost: a squashed one drops out; a live
                # one takes an issue slot and a unit of its op class.
                if seq < ghost_floor or cycle >= squash_at:
                    continue
                code = op[(seq - n) % n]
                if fu_bind[code]:
                    free = fu_free[code]
                    for unit in fu_scan[code]:
                        if free[unit] <= cycle:
                            free[unit] = cycle + fu_interval[code]
                            break
                    else:
                        deferred.append(seq)
                        continue
                issued += 1
                ghost_issued[code] += 1
                continue
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
                        wrong_path_instructions=(
                            n + ghost_count - ghost_floor
                        ),
                    )
                )
                frontend_ready = done + frontend_depth
                stall_branch = -1
                squash_at = done
        if not ordered:
            # The scalar core defers in pool order: the unit-bound
            # entries, then every entry left once the width filled.
            untried = ready_now
            ready_now = []
            for seq in deferred:
                heappush_(ready_now, seq)
            for seq in reversed(untried):
                heappush_(ready_now, seq)
            del deferred[:]
        elif deferred:
            for seq in deferred:
                heappush_(ready_now, seq)
            del deferred[:]

        # --- advance time ------------------------------------------------
        # After the wakeup drain every candidate is >= cycle + 1, so
        # pending ready work makes cycle + 1 the minimum outright — the
        # common case exits here, as does a stall that can still
        # dispatch ghosts. The scalar core also wakes at completions of
        # non-head instructions and at squashes, but those cycles are
        # provably inert (consumer wakeups were scheduled into the
        # ready queues at producer issue; FU retries ride the
        # ready_now -> cycle+1 candidate; commit only ever waits on the
        # head; a ghost's squash is checked wherever the ghost is read),
        # so the completion candidate collapses to the head's
        # completion cycle and every *acting* cycle — hence every
        # result field — is unchanged.
        if ready_now or nr_list:
            cycle = nxt
            continue
        if (
            wrong_path
            and stall_branch >= 0
            and next_dispatch - rob_head + rob_ghosts < rob_size
        ):
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
    # issue counts are the op-code histogram of the trace plus the
    # ghosts that issued before their squash.
    fu_issued = (
        np.bincount(cols.op_np, minlength=len(fu.count))
        + np.asarray(ghost_issued, dtype=np.int64)
    ).tolist()
    # Drop the scratch columns before the timelines are typed, so the
    # typed copies do not raise the run's peak memory.
    del base_ready, pending, waiters, op_bind
    return SimulationResult(
        instructions=n,
        cycles=last_commit_cycle + 1,
        events=events,
        dispatch_cycle=cycle_column(dispatch_of if record_timeline else None),
        issue_cycle=cycle_column(issue_of if record_timeline else None),
        complete_cycle=cycle_column(comp if record_timeline else None),
        commit_cycle=cycle_column(commit_cycle),
        fu_issue_counts={
            op_class.value: fu_issued[code]
            for code, op_class in enumerate(OP_CLASSES)
            if op_class in config.fu_specs
        },
        rob_peak_occupancy=rob_peak,
        squashed_ghosts=ghost_count,
    )


def _run_cores(
    trace: Trace,
    configs: Sequence[CoreConfig],
    annotator: Optional[StructuralAnnotator] = None,
) -> List[SimulationResult]:
    """Run ``trace`` on the kernel under each config, in config order.

    The one out-of-order loop: :func:`run_batch` and
    :func:`repro.pipeline.core.simulate` are thin names over it. The
    trace's columns are built once; the derived columns are built on
    first use and shared by every config of their divergence group —
    oracle miss columns by cache latencies, FU tables by FU specs,
    latency columns by both. With an ``annotator``, each config first
    annotates the whole trace in program order
    (:meth:`StructuralAnnotator.miss_columns`), so a stateful annotator
    reaches each config in the state the previous config's run left it
    in. Under the ambient sanitizer each config is a sanitized run
    (``begin_run``, the kernel's checks, ``seal_run``). Each result is
    then reported to the ambient tracer and metrics
    (:func:`observe_run`), once per config; an empty trace runs and
    reports nothing.
    """
    if not configs or len(trace) == 0:
        return [SimulationResult(instructions=0, cycles=0) for _ in configs]
    cols = TraceColumns.from_trace(trace)
    san = _sanitizer.current()
    miss_groups: Dict[Tuple, MissColumns] = {}
    fu_groups: Dict[Tuple, _FUTables] = {}
    lat_groups: Dict[Tuple, List[int]] = {}
    results: List[SimulationResult] = []
    for config in configs:
        fu_key = tuple(config.fu_specs[c] for c in OP_CLASSES)
        fu = fu_groups.get(fu_key)
        if fu is None:
            fu = fu_groups[fu_key] = _FUTables(config)
        if annotator is None:
            cache_key = (
                config.l1_latency,
                config.l2_latency,
                config.memory_latency,
            )
            miss = miss_groups.get(cache_key)
            if miss is None:
                miss = miss_groups[cache_key] = MissColumns.oracle(cols, config)
            lat_total = lat_groups.get((cache_key, fu_key))
            if lat_total is None:
                lat_total = _combined_latency(cols, miss, fu)
                lat_groups[(cache_key, fu_key)] = lat_total
        else:
            miss = annotator.miss_columns(trace)
            lat_total = _combined_latency(cols, miss, fu)
        if san is not None:
            san.begin_run()
        result = _simulate_columns(cols, miss, fu, config, lat_total, san)
        if san is not None:
            san.seal_run(result, config)
        observe_run(result)
        results.append(result)
    return results


def run_batch(
    trace: Trace, configs: Sequence[CoreConfig]
) -> List[SimulationResult]:
    """Simulate ``trace`` under every config in one batched call."""
    return _run_cores(trace, configs)


__all__ = [
    "TraceColumns",
    "run_batch",
]
