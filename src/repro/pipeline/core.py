"""The out-of-order superscalar timing simulator.

The model is dependence-driven and cycle-accurate at the granularity
interval analysis needs:

* **Dispatch** — up to ``dispatch_width`` instructions per cycle enter
  the unified window/ROB, gated by ROB space, the frontend-ready cycle
  (redirects and I-cache misses push it out), and — after a mispredicted
  control instruction — the resolve-and-refill sequence.
* **Issue** — an instruction issues once all producers have known
  completion times that have passed, subject to ``issue_width`` and
  functional-unit availability; selection is oldest-first.
* **Execute** — latency comes from the op class's FU spec; loads add
  the data-cache latency of their miss class (hit / short / long).
* **Commit** — in order, up to ``commit_width`` per cycle.

Branch mispredictions stop dispatch at the branch; when the branch
executes, the frontend refills for ``frontend_depth`` cycles and the
event log records the resolution time and the window occupancy — the
exact quantities the paper's penalty decomposition is built from. The
optional wrong-path mode instead keeps dispatching ghost instructions
that occupy window and issue slots until the flush.

The main loop skips idle cycles (e.g. during a long memory stall), so
simulated time is O(events), not O(cycles).

:class:`SuperscalarCore` is the reference model. :func:`simulate` runs
its field-exact structure-of-arrays twin (:mod:`repro.perf.batchcore`)
whenever the twin models the run, and this core otherwise. Neither
core reports to the tracer or the metrics while it runs: the finished
result does (:func:`repro.pipeline.result.observe_run`).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import sanitizer as _sanitizer
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import MissClass
from repro.pipeline.annotate import Annotation, Annotator, OracleAnnotator
from repro.pipeline.config import CoreConfig
from repro.pipeline.events import (
    BranchMispredictEvent,
    ICacheMissEvent,
    LongDMissEvent,
)
from repro.pipeline.functional_units import FunctionalUnits
from repro.pipeline.result import SimulationResult, cycle_column, observe_run
from repro.pipeline.rob import ReorderBuffer
from repro.trace.stream import Trace
from repro.util.rng import SplitMix, derive_seed

_GHOST = -1  # seq marker for wrong-path ghost instructions

_oracle_annotations = None


def _oracle_annotations_fn():
    """Lazy cached import of the columnar oracle annotator.

    repro.perf sits above the pipeline layer, so the import cannot be
    top-level; caching the resolved function keeps the per-run cost to
    one global read instead of import machinery on every ``run``.
    """
    global _oracle_annotations
    if _oracle_annotations is None:
        from repro.perf.annotate_fast import oracle_annotations

        _oracle_annotations = oracle_annotations
    return _oracle_annotations


class SuperscalarCore:
    """One simulated core; construct per run."""

    def __init__(self, config: Optional[CoreConfig] = None):
        self.config = config if config is not None else CoreConfig()

    def run(
        self, trace: Trace, annotator: Optional[Annotator] = None
    ) -> SimulationResult:
        """Simulate the trace to completion and return the result."""
        config = self.config
        records = trace.records
        n = len(records)
        oracle_fast = annotator is None
        if oracle_fast:
            annotator = OracleAnnotator(config)
        if n == 0:
            return SimulationResult(instructions=0, cycles=0)

        san = _sanitizer.current()
        if san is not None:
            san.begin_run()
        fus = FunctionalUnits(config.fu_specs)
        rob = ReorderBuffer(config.rob_size, sanitizer=san)
        issue_rng = (
            SplitMix(derive_seed(config.seed, "issue"))
            if config.issue_policy == "random"
            else None
        )

        # Per real instruction (indexed by seq).
        comp: List[Optional[int]] = [None] * n  # known completion cycle
        base_ready: List[int] = [0] * n
        pending: List[int] = [0] * n
        dependents: Dict[int, List[int]] = {}
        if oracle_fast:
            # Oracle annotations are a pure column function of the trace:
            # precompute them all through the packed arrays instead of
            # building one Annotation object per dispatched record.
            annotations: List[Optional[Annotation]] = _oracle_annotations_fn()(
                trace, config
            )
        else:
            annotations = [None] * n
        icache_consumed: List[bool] = [False] * n

        record_timeline = config.record_timeline
        dispatch_cycle = [0] * n if record_timeline else None
        issue_cycle = [0] * n if record_timeline else None
        complete_cycle = [0] * n if record_timeline else None
        commit_cycle = [0] * n if record_timeline else None
        dispatch_of: List[int] = [0] * n  # always needed for events

        # Scheduling structures.
        ready_events: List[Tuple[int, int, int]] = []  # (cycle, ticket, seq)
        ready_now: List[Tuple[int, int]] = []  # (ticket, seq)
        completions: List[Tuple[int, int, int]] = []  # (cycle, ticket, seq)
        squash_at: List[Tuple[int, int]] = []  # (cycle, branch_ticket)
        squashed_tickets: Set[int] = set()
        ghost_class: Dict[int, OpClass] = {}

        events = []
        next_dispatch = 0  # next real seq to dispatch
        next_ticket = 0
        ticket_of: List[int] = [0] * n
        ticket_seq: Dict[int, int] = {}  # ticket -> real seq (ghosts absent)
        window_occ_at: Dict[int, int] = {}
        frontend_ready = config.frontend_depth  # initial fill
        stall_branch: Optional[int] = None  # seq of blocking mispredict
        ghost_cursor = 0
        committed = 0
        cycle = frontend_ready
        last_commit_cycle = 0
        squashed_ghost_count = 0
        ghosts_since_stall = 0  # wrong-path dispatches under the live stall

        def annotation_for(seq: int) -> Annotation:
            ann = annotations[seq]
            if ann is None:
                ann = annotator.annotate(records[seq])
                annotations[seq] = ann
            return ann

        def make_ready(seq: int, ready_at: int) -> None:
            heapq.heappush(ready_events, (ready_at, ticket_of[seq], seq))

        def resolve_dependents(producer: int, done: int) -> None:
            for consumer in dependents.pop(producer, ()):  # dispatched waiters
                base_ready[consumer] = max(base_ready[consumer], done)
                pending[consumer] -= 1
                if pending[consumer] == 0:
                    make_ready(consumer, base_ready[consumer])

        def issue_one(ticket: int, seq: int) -> None:
            nonlocal stall_branch, frontend_ready
            record = records[seq] if seq != _GHOST else None
            op_class = record.op_class if record else ghost_class[ticket]
            done = fus.issue(op_class, cycle)
            if record is not None:
                ann = annotations[seq]
                if record.is_load and ann.dcache_class is not None:
                    done += ann.dcache_latency
                comp[seq] = done
                if record_timeline:
                    issue_cycle[seq] = cycle
                    complete_cycle[seq] = done
                resolve_dependents(seq, done)
                if record.is_load and ann.dcache_class is MissClass.LONG:
                    events.append(
                        LongDMissEvent(
                            seq=seq, cycle=dispatch_of[seq], complete_cycle=done
                        )
                    )
                if stall_branch == seq:
                    # The mispredicted control instruction resolves at
                    # ``done``: log the event, start the refill.
                    events.append(
                        BranchMispredictEvent(
                            seq=seq,
                            cycle=dispatch_of[seq],
                            resolve_cycle=done,
                            refill_cycles=config.frontend_depth,
                            window_occupancy=window_occ_at[seq],
                            wrong_path_instructions=ghosts_since_stall,
                        )
                    )
                    frontend_ready = done + config.frontend_depth
                    stall_branch = None
                    if config.dispatch_wrong_path:
                        heapq.heappush(squash_at, (done, ticket))
            heapq.heappush(completions, (done, ticket, seq))

        while committed < n:
            # --- completions ---------------------------------------------
            while completions and completions[0][0] <= cycle:
                _, ticket, seq = heapq.heappop(completions)
                if ticket not in squashed_tickets:
                    rob.complete(ticket)

            # --- wrong-path squash ---------------------------------------
            while squash_at and squash_at[0][0] <= cycle:
                _, branch_ticket = heapq.heappop(squash_at)
                for victim in rob.squash_younger_than(branch_ticket):
                    squashed_tickets.add(victim)
                    squashed_ghost_count += 1

            # --- commit ---------------------------------------------------
            commits = 0
            while commits < config.commit_width and rob.head_completed():
                head_ticket = rob.commit_head()
                commits += 1
                if head_ticket in squashed_tickets:
                    continue
                # Map ticket back: ghosts never reach here (squashed).
                seq = ticket_seq.get(head_ticket, _GHOST)
                if seq == _GHOST:
                    continue
                committed += 1
                last_commit_cycle = cycle
                if san is not None:
                    san.check_commit(cycle, seq=seq)
                if record_timeline:
                    commit_cycle[seq] = cycle

            # --- dispatch -------------------------------------------------
            dispatched = 0
            while (
                dispatched < config.dispatch_width
                and not rob.is_full
                and next_dispatch < n
                and frontend_ready <= cycle
                and stall_branch is None
            ):
                seq = next_dispatch
                ann = annotation_for(seq)
                if ann.icache_latency is not None and not icache_consumed[seq]:
                    icache_consumed[seq] = True
                    frontend_ready = cycle + ann.icache_latency
                    events.append(
                        ICacheMissEvent(
                            seq=seq,
                            cycle=cycle,
                            latency=ann.icache_latency,
                            long_miss=ann.icache_long,
                        )
                    )
                    break
                record = records[seq]
                occupancy_before = len(rob)
                ticket = next_ticket
                next_ticket += 1
                ticket_of[seq] = ticket
                ticket_seq[ticket] = seq
                rob.dispatch(ticket)
                if san is not None:
                    san.check_occupancy(cycle, len(rob), config.rob_size)
                dispatch_of[seq] = cycle
                if record_timeline:
                    dispatch_cycle[seq] = cycle
                # Dependence resolution.
                unresolved = 0
                ready_at = cycle + 1
                for dist in record.deps:
                    producer = seq - dist
                    if producer < 0:
                        continue
                    producer_done = comp[producer]
                    if producer_done is None:
                        dependents.setdefault(producer, []).append(seq)
                        unresolved += 1
                    else:
                        ready_at = max(ready_at, producer_done)
                base_ready[seq] = ready_at
                pending[seq] = unresolved
                if unresolved == 0:
                    make_ready(seq, ready_at)
                next_dispatch += 1
                dispatched += 1
                if record.is_control and ann.mispredicted:
                    stall_branch = seq
                    window_occ_at[seq] = occupancy_before
                    ghosts_since_stall = 0
                    break

            # --- wrong-path ghost dispatch --------------------------------
            if (
                config.dispatch_wrong_path
                and stall_branch is not None
                and n > 0
            ):
                while dispatched < config.dispatch_width and not rob.is_full:
                    source = records[ghost_cursor % n]
                    ghost_cursor += 1
                    ticket = next_ticket
                    next_ticket += 1
                    ghost_class[ticket] = source.op_class
                    rob.dispatch(ticket)
                    if san is not None:
                        san.check_occupancy(cycle, len(rob), config.rob_size)
                    heapq.heappush(ready_events, (cycle + 1, ticket, _GHOST))
                    dispatched += 1
                    ghosts_since_stall += 1

            # --- wakeup ----------------------------------------------------
            while ready_events and ready_events[0][0] <= cycle:
                _, ticket, seq = heapq.heappop(ready_events)
                if ticket in squashed_tickets:
                    continue
                heapq.heappush(ready_now, (ticket, seq))

            # --- issue -----------------------------------------------------
            issued = 0
            deferred: List[Tuple[int, int]] = []
            if issue_rng is not None and ready_now:
                # Random-ready ablation: shuffle the whole ready pool
                # instead of selecting oldest-first.
                pool = [
                    item for item in ready_now if item[0] not in squashed_tickets
                ]
                ready_now.clear()
                issue_rng.shuffle(pool)
                for ticket, seq in pool:
                    op_class = (
                        records[seq].op_class
                        if seq != _GHOST
                        else ghost_class[ticket]
                    )
                    if issued < config.issue_width and fus.can_issue(
                        op_class, cycle
                    ):
                        issue_one(ticket, seq)
                        issued += 1
                    else:
                        deferred.append((ticket, seq))
            else:
                while ready_now and issued < config.issue_width:
                    ticket, seq = heapq.heappop(ready_now)
                    if ticket in squashed_tickets:
                        continue
                    op_class = (
                        records[seq].op_class
                        if seq != _GHOST
                        else ghost_class[ticket]
                    )
                    if fus.can_issue(op_class, cycle):
                        issue_one(ticket, seq)
                        issued += 1
                    else:
                        deferred.append((ticket, seq))
            for item in deferred:
                heapq.heappush(ready_now, item)

            # --- advance time ----------------------------------------------
            next_cycles = []
            if completions:
                next_cycles.append(completions[0][0])
            if ready_events:
                next_cycles.append(ready_events[0][0])
            if squash_at:
                next_cycles.append(squash_at[0][0])
            if ready_now:
                next_cycles.append(cycle + 1)
            if rob.head_completed():
                next_cycles.append(cycle + 1)
            can_dispatch_more = (
                next_dispatch < n and stall_branch is None and not rob.is_full
            )
            if can_dispatch_more:
                next_cycles.append(max(cycle + 1, frontend_ready))
            if (
                config.dispatch_wrong_path
                and stall_branch is not None
                and not rob.is_full
            ):
                next_cycles.append(cycle + 1)
            if not next_cycles:
                if committed < n:
                    raise RuntimeError(
                        f"simulator deadlock at cycle {cycle}: "
                        f"{committed}/{n} committed"
                    )
                break
            cycle = max(cycle + 1, min(next_cycles))

        total_cycles = last_commit_cycle + 1
        result = SimulationResult(
            instructions=n,
            cycles=total_cycles,
            events=events,
            dispatch_cycle=cycle_column(dispatch_cycle),
            issue_cycle=cycle_column(issue_cycle),
            complete_cycle=cycle_column(complete_cycle),
            commit_cycle=cycle_column(commit_cycle),
            fu_issue_counts=fus.issue_counts(),
            rob_peak_occupancy=rob.peak_occupancy,
            squashed_ghosts=squashed_ghost_count,
        )
        if san is not None:
            san.seal_run(result, config)
        return result


def _run_cores(
    trace: Trace,
    configs: Sequence[CoreConfig],
    annotator: Optional[Annotator] = None,
    core: type = SuperscalarCore,
) -> List[SimulationResult]:
    """Run ``trace`` under each config; the one detailed-core entry.

    :func:`simulate`, :func:`repro.perf.batchcore.run_batch` and
    :func:`repro.pipeline.inorder.simulate_inorder` are thin names over
    this function, so none of them calls another. Out-of-order runs
    without an explicit annotator go through
    :class:`~repro.perf.batchcore.BatchedSuperscalarCore`, which runs
    the SoA kernel and keeps this scalar core for what the kernel does
    not model (wrong-path dispatch, random issue, sanitized runs).
    ``core`` runs everything else. Each result is then reported to the
    ambient tracer and metrics (:func:`observe_run`), once per config.
    """
    if core is SuperscalarCore and annotator is None:
        from repro.perf.batchcore import BatchedSuperscalarCore

        results = BatchedSuperscalarCore(configs).run(trace)
    else:
        results = [
            core(config).run(trace, annotator=annotator) for config in configs
        ]
    for result in results:
        observe_run(result, out_of_order=core is SuperscalarCore)
    return results


def simulate(
    trace: Trace,
    config: Optional[CoreConfig] = None,
    annotator: Optional[Annotator] = None,
) -> SimulationResult:
    """Run ``trace`` under ``config`` (the baseline when None).

    Runs on the SoA kernel when it models the config exactly and no
    annotator is given, else on :class:`SuperscalarCore`; the result is
    the same either way (see :func:`_run_cores`).
    """
    config = config if config is not None else CoreConfig()
    return _run_cores(trace, [config], annotator)[0]
