"""repro.resilience — fault injection, crash-safe runs, store integrity.

The resilience subsystem makes the lab's degradation paths testable and
its long runs survivable:

- :mod:`repro.resilience.atomic` — crash-safe file primitives
  (tmp+fsync+``os.replace`` whole-file writes, fsync-per-record JSONL
  appends) every run-state file goes through (enforced by lint rule
  RES001);
- :mod:`repro.resilience.faults` — a deterministic, seeded
  fault-injection plan (``REPRO_FAULTS=...``, inherited by pool
  workers) with named sites that can raise, corrupt bytes, delay, or
  kill a worker at the N-th hit;
- :mod:`repro.resilience.journal` — the write-ahead run journal behind
  ``repro lab run --resume``;
- :mod:`repro.resilience.supervisor` — the one worker supervisor the
  lab pool and the serve shards run on: worker heartbeats, claims and
  start stamps, eager forking under a fork lock, the liveness rule,
  hang detection, restart and teardown;
- :mod:`repro.resilience.fsck` — store integrity scanning, the
  quarantine, and ``repro lab fsck [--repair]``.

Layering note: this package's ``__init__`` only pulls in the modules
*below* ``repro.lab`` in the dependency stack, because the lab itself
imports them. :mod:`repro.resilience.fsck` sits *above* the lab (it
scans the store) and must be imported explicitly —
``from repro.resilience.fsck import fsck_store``.
"""

from repro.resilience.atomic import (
    AppendOnlyWriter,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    read_jsonl,
)
from repro.resilience.faults import (
    FaultPlan,
    FaultRule,
    FaultSpecError,
    InjectedFault,
    fault_point,
    parse_spec,
)
from repro.resilience.journal import JournalState, RunJournal, load_journal
from repro.resilience.supervisor import (
    HeartbeatDir,
    WatchdogPolicy,
    worker_checkpoint,
)

__all__ = [
    "AppendOnlyWriter",
    "FaultPlan",
    "FaultRule",
    "FaultSpecError",
    "HeartbeatDir",
    "InjectedFault",
    "JournalState",
    "RunJournal",
    "WatchdogPolicy",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "fault_point",
    "load_journal",
    "parse_spec",
    "read_jsonl",
    "worker_checkpoint",
]
