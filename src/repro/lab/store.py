"""Persistent content-addressed result store.

Every simulation and experiment result the lab produces is addressed by
a SHA-256 digest of *what produced it*: the canonical form of the
:class:`~repro.pipeline.config.CoreConfig`, the workload identity
(name, length, seed), the job kind, and a code-version salt. Two
configurations that differ in any field hash differently; the same
configuration built with its fields in a different order hashes
identically (the canonical form sorts everything). Bumping
:data:`SCHEMA_VERSION` — or releasing a new ``repro`` version —
invalidates every stored object at once, which is the only safe answer
to "the simulator's semantics changed".

Layout on disk (default root ``.repro-cache/``, overridable with the
``REPRO_CACHE_DIR`` environment variable)::

    .repro-cache/
      objects/<digest[:2]>/<digest>.bin    # one result per object
      runs/<run_id>.json                   # manifests (telemetry.py)

An object is binary, one for every payload kind::

    magic "RLAB", u16 format version, u64 body length   (little-endian)
    sha256 of the body (32 bytes)
    body: one zlib stream (level 1) of lab.codec.encode_payload bytes,
          whose JSON header carries key, salt, stored_at and meta
          beside the payload, followed by the delta-coded int32 cycle
          columns of simulation results

Objects are written atomically (temp file + fsync + ``os.replace`` via
:mod:`repro.resilience.atomic`) so concurrent worker processes never
observe torn writes; last writer wins, which is harmless because the
content is a pure function of the key.

Integrity: every read runs :func:`verify_object_bytes` — magic and
length, then the sha256 over the stored body bytes, then salt and key.
An object that fails — torn by a crash the atomic write could not cover
(bad disk, external truncation) or damaged by an injected
``store.read``/``store.write`` fault — is moved to
``<root>/quarantine/`` and reported as a miss, so the caller simply
recomputes; ``repro lab fsck`` scans the whole store offline (see
:mod:`repro.resilience.fsck`). JSON objects of schema 2
(``objects/*/*.json``) are never read; fsck lists them as stale and
``repro lab gc`` removes them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import time
import zlib
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro import __version__
from repro.lab.codec import decode_payload, encode_payload
from repro.pipeline.config import CoreConfig
from repro.resilience import faults
from repro.resilience.atomic import AppendOnlyWriter, atomic_write_bytes

#: Bump when simulator or payload semantics change in a way that makes
#: previously stored results stale. Combined with the package version
#: into :data:`CODE_SALT`, which is folded into every job key.
#: (2: objects embed a payload sha256, verified on every read.
#: 3: binary objects with compressed, delta-coded cycle columns.)
SCHEMA_VERSION = 3

CODE_SALT = f"repro-{__version__}/lab-schema-{SCHEMA_VERSION}"

#: Object file prefix: magic, format version, body length, body sha256.
_PREFIX = struct.Struct("<4sHQ32s")
_MAGIC = b"RLAB"
_FORMAT_VERSION = 1
_OBJECT_SUFFIX = ".bin"
#: Schema-2 JSON objects: listed, counted and collectable, never read.
LEGACY_OBJECT_SUFFIX = ".json"

_ENV_ROOT = "REPRO_CACHE_DIR"
_ENV_DISABLE = "REPRO_NO_CACHE"


def default_store_root() -> Path:
    """Store root honouring ``REPRO_CACHE_DIR`` (default .repro-cache)."""
    return Path(os.environ.get(_ENV_ROOT, ".repro-cache"))


def caching_disabled() -> bool:
    """True when ``REPRO_NO_CACHE`` requests a store-free run."""
    return os.environ.get(_ENV_DISABLE, "") not in ("", "0")


def canonical_config(config: CoreConfig) -> Dict[str, Any]:
    """Order-independent, JSON-ready form of a configuration.

    Fields are emitted in sorted name order and ``fu_specs`` is
    flattened to ``{op-class value: [count, latency, issue_interval]}``
    in sorted op-class order, so dict insertion order can never leak
    into the digest.
    """
    out: Dict[str, Any] = {}
    for f in sorted(dataclasses.fields(config), key=lambda f: f.name):
        value = getattr(config, f.name)
        if f.name == "fu_specs":
            value = {
                op.value: [spec.count, spec.latency, spec.issue_interval]
                for op, spec in sorted(
                    value.items(), key=lambda kv: kv[0].value
                )
            }
        out[f.name] = value
    return out


def _column_digest(value: Any) -> str:
    if isinstance(value, array):
        return f"{value.typecode}:{hashlib.sha256(value).hexdigest()}"
    raise TypeError(f"cannot digest {type(value).__name__}")


def payload_digest(payload: Any) -> str:
    """SHA-256 of a payload's canonical JSON encoding.

    The one hashing primitive every content address in the repo is
    built from, so every key comes out of the same canonical form. A
    typed cycle column enters as the sha256 of its bytes.
    """
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_column_digest
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_digest = payload_digest


def config_digest(config: CoreConfig) -> str:
    """Stable SHA-256 digest of a configuration's canonical form."""
    return _digest(canonical_config(config))


def job_key(
    kind: str,
    workload: str,
    length: int,
    seed: int,
    config: CoreConfig,
    salt: str = CODE_SALT,
    extra: Optional[Dict[str, Any]] = None,
) -> str:
    """Content address of one unit of work.

    ``kind`` separates job families ("sim", "sim-inorder",
    "experiment", ...); ``extra`` carries any job-specific parameters
    that must participate in the address.
    """
    return _digest(
        {
            "kind": kind,
            "workload": workload,
            "length": length,
            "seed": seed,
            "config": canonical_config(config),
            "salt": salt,
            "extra": extra or {},
        }
    )


def encode_object(
    key: str, payload: Dict[str, Any], meta: Optional[Dict[str, Any]] = None
) -> bytes:
    """The stored bytes of one object (layout in the module docstring)."""
    envelope = {
        "key": key,
        "salt": CODE_SALT,
        "stored_at": time.time(),
        "meta": meta or {},
    }
    body = zlib.compress(encode_payload(payload, envelope), 1)
    digest = hashlib.sha256(body).digest()
    return _PREFIX.pack(_MAGIC, _FORMAT_VERSION, len(body), digest) + body


def verify_object_bytes(
    raw: bytes, expected_key: Optional[str] = None
) -> Tuple[str, Optional[Dict[str, Any]]]:
    """Classify one serialized store object.

    Returns ``(status, obj)`` with status one of ``"ok"``,
    ``"unreadable"`` (bad magic, wrong length, or a body that does not
    decode), ``"stale-salt"`` (written by another code version or
    object format — unreachable, not corrupt), ``"checksum-mismatch"``
    (the body does not hash to its recorded sha256), or
    ``"key-mismatch"`` (content address does not match
    ``expected_key``). ``obj`` holds ``key``, ``salt``, ``stored_at``,
    ``meta`` and the decoded ``payload``. Shared by
    :meth:`ResultStore.get` and ``repro lab fsck`` so online and
    offline verification can never disagree.
    """
    if len(raw) < _PREFIX.size:
        return "unreadable", None
    magic, version, length, recorded = _PREFIX.unpack_from(raw)
    if magic != _MAGIC:
        return "unreadable", None
    if version != _FORMAT_VERSION:
        return "stale-salt", None
    if len(raw) != _PREFIX.size + length:
        return "unreadable", None
    body = memoryview(raw)[_PREFIX.size:]
    if hashlib.sha256(body).digest() != recorded:
        return "checksum-mismatch", None
    try:
        payload, obj = decode_payload(zlib.decompress(body))
    except (zlib.error, ValueError, TypeError, KeyError):
        return "unreadable", None
    obj["payload"] = payload
    if obj.get("salt") != CODE_SALT:
        return "stale-salt", obj
    if expected_key is not None and obj.get("key") != expected_key:
        return "key-mismatch", obj
    return "ok", obj


def quarantine_file(
    root: Union[str, os.PathLike], path: Union[str, os.PathLike], reason: str
) -> Optional[Path]:
    """Move a damaged file into ``<root>/quarantine/`` (keep evidence).

    The move is logged (path, reason, timestamp) to
    ``quarantine/quarantine.jsonl`` and counted through the obs metrics
    registry. Returns the new path, or None when the move failed (e.g.
    the file vanished — another process already quarantined it).
    """
    source = Path(path)
    quarantine_dir = Path(root) / "quarantine"
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    target = quarantine_dir / source.name
    suffix = 0
    while target.exists():
        suffix += 1
        target = quarantine_dir / f"{source.name}.{suffix}"
    try:
        os.replace(source, target)
    except OSError:
        return None
    AppendOnlyWriter(quarantine_dir / "quarantine.jsonl").append(
        {
            "path": str(source),
            "quarantined_as": str(target),
            "reason": reason,
            "at": time.time(),
        }
    )
    _count_metric("resilience.quarantined_objects_total")
    return target


def _count_metric(name: str) -> None:
    from repro.obs import runtime as _obs

    metrics = _obs.current_metrics()
    if metrics is not None:
        metrics.counter(name).inc()


def _stat_size(path: Path) -> Optional[int]:
    """File size, or None when the file vanished mid-scan (another
    process quarantined or gc'd it between glob and stat)."""
    try:
        return path.stat().st_size
    except OSError:
        return None


def _stat_mtime(path: Path) -> Optional[float]:
    """File mtime, or None when the file vanished mid-scan."""
    try:
        return path.stat().st_mtime
    except OSError:
        return None


@dataclass
class StoreStats:
    """Hit/miss/eviction accounting for one :class:`ResultStore`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    #: Reads that failed integrity verification (object quarantined).
    corrupt: int = 0
    #: Reads lost to injected/real I/O failures (counted as misses too).
    read_errors: int = 0
    #: Objects moved to ``quarantine/`` by this store instance.
    quarantined: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class ResultStore:
    """Content-addressed binary object store under ``root``.

    ``max_entries`` (optional) turns :meth:`put` into an evicting
    write: once the object count exceeds the bound, the oldest objects
    (by modification time) are removed and counted in
    :attr:`stats.evictions <StoreStats.evictions>`.
    """

    root: Path = field(default_factory=default_store_root)
    max_entries: Optional[int] = None
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _object_path(self, key: str) -> Path:
        return self.objects_dir / key[:2] / f"{key}{_OBJECT_SUFFIX}"

    def contains(self, key: str) -> bool:
        return self._object_path(key).is_file()

    def quarantine(self, path: Path, reason: str) -> Optional[Path]:
        """Move one damaged object aside; see :func:`quarantine_file`."""
        target = quarantine_file(self.root, path, reason)
        if target is not None:
            self.stats.quarantined += 1
        return target

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Verified payload stored under ``key``, or None (a miss).

        Every read is integrity-checked (body sha256 + code salt +
        content address). A corrupt object is quarantined and
        reported as a miss so the caller recomputes; an unreadable file
        or an injected ``store.read`` fault is just a miss.
        """
        path = self._object_path(key)
        try:
            raw = path.read_bytes()
            raw = faults.fault_point("store.read", raw)
        except OSError:
            self.stats.misses += 1
            return None
        except faults.InjectedFault:
            self.stats.misses += 1
            self.stats.read_errors += 1
            return None
        status, obj = verify_object_bytes(raw, expected_key=key)
        if status == "ok":
            self.stats.hits += 1
            return obj.get("payload")
        self.stats.misses += 1
        if status != "stale-salt":
            self.stats.corrupt += 1
            _count_metric("resilience.store_corruptions_total")
            self.quarantine(path, reason=f"get({key[:12]}...): {status}")
        return None

    def put(
        self,
        key: str,
        payload: Dict[str, Any],
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Atomically store ``payload`` under ``key`` (checksummed)."""
        path = self._object_path(key)
        blob = faults.fault_point("store.write", encode_object(key, payload, meta))
        atomic_write_bytes(path, blob)
        self.stats.puts += 1
        if self.max_entries is not None:
            self.stats.evictions += self.gc(max_entries=self.max_entries)
        return path

    def iter_objects(self) -> Iterator[Path]:
        """Every object file, legacy schema-2 JSON objects included."""
        if not self.objects_dir.is_dir():
            return
        yield from sorted(
            path
            for suffix in (_OBJECT_SUFFIX, LEGACY_OBJECT_SUFFIX)
            for path in self.objects_dir.glob(f"*/*{suffix}")
        )

    def count(self) -> int:
        return sum(1 for _ in self.iter_objects())

    def size_bytes(self) -> int:
        """Total object bytes, tolerating concurrent readers/writers.

        Another process may quarantine (or gc) an object between the
        directory scan and the ``stat`` — a torn scan must degrade to
        "that object no longer counts", never to an exception.
        """
        total = 0
        for path in self.iter_objects():
            size = _stat_size(path)
            if size is not None:
                total += size
        return total

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_s: Optional[float] = None,
        clear: bool = False,
    ) -> int:
        """Remove objects; returns the number removed.

        ``clear`` drops everything; ``max_age_s`` drops objects older
        than that many seconds; ``max_entries`` keeps only the newest N
        by modification time.
        """
        # mtimes are snapshotted once up front; an object quarantined or
        # removed by a concurrent process mid-scan simply drops out of
        # the candidate set instead of raising from a late ``stat``.
        stamped = [
            (p, mtime)
            for p in self.iter_objects()
            for mtime in (_stat_mtime(p),)
            if mtime is not None
        ]
        doomed: List[Path] = []
        if clear:
            doomed = [p for p, _ in stamped]
        else:
            if max_age_s is not None:
                cutoff = time.time() - max_age_s
                doomed.extend(p for p, mtime in stamped if mtime < cutoff)
            if max_entries is not None and len(stamped) > max_entries:
                survivors = [
                    (p, mtime) for p, mtime in stamped if p not in set(doomed)
                ]
                survivors.sort(key=lambda pair: pair[1])
                doomed.extend(
                    p for p, _ in survivors[: len(survivors) - max_entries]
                )
        removed = 0
        for path in doomed:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def manifests(self) -> List[Path]:
        """Run manifests, newest first (merged manifests excluded)."""
        if not self.runs_dir.is_dir():
            return []
        stamped = [
            (p, mtime)
            for p in self.runs_dir.glob("*.json")
            if not p.name.endswith(".merged.json")
            for mtime in (_stat_mtime(p),)
            if mtime is not None
        ]
        stamped.sort(key=lambda pair: pair[1], reverse=True)
        return [p for p, _ in stamped]

    def quarantined_files(self) -> List[Path]:
        """Quarantined objects on disk (the log itself excluded)."""
        if not self.quarantine_dir.is_dir():
            return []
        return sorted(
            p for p in self.quarantine_dir.iterdir()
            if p.is_file() and p.name != "quarantine.jsonl"
        )

    def describe(self) -> Dict[str, Any]:
        """Status summary for ``repro lab status``."""
        return {
            "root": str(self.root),
            "objects": self.count(),
            "size_bytes": self.size_bytes(),
            "manifests": len(self.manifests()),
            "quarantined": len(self.quarantined_files()),
            "salt": CODE_SALT,
            "stats": self.stats.as_dict(),
        }
