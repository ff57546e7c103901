"""Store integrity: scan, report, quarantine, repair.

``repro lab fsck`` walks everything under the cache root that a run
depends on and classifies each file:

- **result objects** (``objects/*/*.bin``) — check magic and length,
  verify the body SHA-256, decode, check the code salt and the content
  address against the filename (:func:`repro.lab.store.verify_object_bytes`);
  schema-2 JSON objects (``objects/*/*.json``) are listed as stale
  without being read;
- **run manifests** (``runs/*.json``) — must parse as JSON;
- **run journals** (``runs/*.journal.jsonl``) — must parse line-wise
  (a torn final line is the legal crash signature, not corruption);
- **stray temp files** (``.tmp-*``) — leftovers of interrupted atomic
  writes.

``--repair`` moves every damaged object into ``<root>/quarantine/``
(never deletes evidence) and removes stray temp files. The store is
content-addressed, so repair never needs to *reconstruct* anything:
once a corrupt object is out of the way, the next run that needs that
key simply recomputes and re-stores it. Stale-salt objects (written by
an older code version) are reported informationally — their keys are
unreachable from current code, so they are a ``repro lab gc`` matter,
not corruption.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.lab.store import (
    CODE_SALT,
    LEGACY_OBJECT_SUFFIX,
    ResultStore,
    quarantine_file,
    verify_object_bytes,
)
from repro.resilience.atomic import read_jsonl, stray_tmp_files
from repro.resilience.journal import JOURNAL_SUFFIX

#: Issue kinds that --repair resolves by quarantining the file.
QUARANTINE_KINDS = (
    "unreadable",
    "checksum-mismatch",
    "key-mismatch",
    "unreadable-manifest",
    "unreadable-journal",
)


@dataclass(frozen=True)
class FsckIssue:
    """One damaged (or suspicious) file and what was done about it."""

    path: str
    kind: str
    detail: str
    repaired: str = ""  # "" | "quarantined" | "removed"

    def render(self) -> str:
        suffix = f" [{self.repaired}]" if self.repaired else ""
        return f"{self.kind}: {self.path}: {self.detail}{suffix}"

    def as_payload(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "kind": self.kind,
            "detail": self.detail,
            "repaired": self.repaired,
        }


@dataclass
class FsckReport:
    """Outcome of one integrity scan."""

    root: str = ""
    repair: bool = False
    objects_scanned: int = 0
    manifests_scanned: int = 0
    journals_scanned: int = 0
    issues: List[FsckIssue] = field(default_factory=list)
    #: stale-salt objects: informational, not corruption.
    stale: List[str] = field(default_factory=list)

    @property
    def repaired(self) -> int:
        return sum(1 for issue in self.issues if issue.repaired)

    @property
    def unrepaired(self) -> int:
        return sum(1 for issue in self.issues if not issue.repaired)

    @property
    def ok(self) -> bool:
        """Clean now: every found issue was repaired (or none existed)."""
        return self.unrepaired == 0

    def summary(self) -> str:
        status = "clean" if not self.issues else (
            f"{len(self.issues)} issue(s), {self.repaired} repaired"
        )
        return (
            f"fsck {self.root}: {status}; "
            f"{self.objects_scanned} object(s), "
            f"{self.manifests_scanned} manifest(s), "
            f"{self.journals_scanned} journal(s) scanned"
            + (f"; {len(self.stale)} stale-salt object(s)" if self.stale else "")
        )

    def render(self) -> str:
        lines = [self.summary()]
        lines.extend(f"  {issue.render()}" for issue in self.issues)
        return "\n".join(lines)

    def as_payload(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "repair": self.repair,
            "ok": self.ok,
            "scanned": {
                "objects": self.objects_scanned,
                "manifests": self.manifests_scanned,
                "journals": self.journals_scanned,
            },
            "issues": [issue.as_payload() for issue in self.issues],
            "stale_salt": list(self.stale),
        }


def _resolve(
    report: FsckReport,
    store: ResultStore,
    path: Path,
    kind: str,
    detail: str,
    repair: bool,
) -> None:
    repaired = ""
    if repair and kind in QUARANTINE_KINDS:
        quarantine_file(store.root, path, reason=f"fsck: {kind}: {detail}")
        repaired = "quarantined"
    report.issues.append(
        FsckIssue(
            path=str(path), kind=kind, detail=detail, repaired=repaired
        )
    )


def _scan_objects(report: FsckReport, store: ResultStore, repair: bool) -> None:
    for path in list(store.iter_objects()):
        report.objects_scanned += 1
        if path.suffix == LEGACY_OBJECT_SUFFIX:
            report.stale.append(str(path))
            continue
        try:
            raw = path.read_bytes()
        except OSError as exc:
            _resolve(report, store, path, "unreadable", str(exc), repair)
            continue
        status, _ = verify_object_bytes(raw, expected_key=path.stem)
        if status == "ok":
            continue
        if status == "stale-salt":
            report.stale.append(str(path))
            continue
        detail = {
            "unreadable": "not a valid store object",
            "checksum-mismatch": "body does not match its sha256",
            "key-mismatch": "stored key does not match the filename",
        }.get(status, status)
        _resolve(report, store, path, status, detail, repair)


def _scan_runs(report: FsckReport, store: ResultStore, repair: bool) -> None:
    if not store.runs_dir.is_dir():
        return
    for path in sorted(store.runs_dir.glob("*.json")):
        report.manifests_scanned += 1
        try:
            json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            _resolve(
                report, store, path, "unreadable-manifest", str(exc), repair
            )
    for path in sorted(store.runs_dir.glob(f"*{JOURNAL_SUFFIX}")):
        report.journals_scanned += 1
        try:
            read_jsonl(path)
        except (OSError, json.JSONDecodeError) as exc:
            _resolve(
                report, store, path, "unreadable-journal", str(exc), repair
            )


def _scan_tmp(report: FsckReport, repair: bool) -> None:
    root = Path(report.root)
    for path in stray_tmp_files(root):
        if "quarantine" in path.parts:
            continue
        repaired = ""
        if repair:
            try:
                path.unlink()
                repaired = "removed"
            except OSError:
                pass
        report.issues.append(
            FsckIssue(
                path=str(path),
                kind="stray-tmp",
                detail="leftover temp file from an interrupted atomic write",
                repaired=repaired,
            )
        )


def fsck_store(
    store: Optional[ResultStore] = None,
    repair: bool = False,
) -> FsckReport:
    """Scan one cache root; quarantine/clean when ``repair`` is set."""
    if store is None:
        store = ResultStore()
    report = FsckReport(root=str(store.root), repair=repair)
    _scan_objects(report, store, repair)
    _scan_runs(report, store, repair)
    _scan_tmp(report, repair)
    _count_metrics(report)
    return report


def _count_metrics(report: FsckReport) -> None:
    from repro.obs import runtime as _obs

    metrics = _obs.current_metrics()
    if metrics is None:
        return
    corrupt = sum(
        1 for issue in report.issues
        if issue.kind in ("checksum-mismatch", "unreadable", "key-mismatch")
    )
    if corrupt:
        metrics.counter("resilience.store_corruptions_total").inc(corrupt)
    quarantined = sum(
        1 for issue in report.issues if issue.repaired == "quarantined"
    )
    if quarantined:
        metrics.counter("resilience.quarantined_objects_total").inc(quarantined)


__all__ = [
    "CODE_SALT",
    "FsckIssue",
    "FsckReport",
    "QUARANTINE_KINDS",
    "fsck_store",
]
