"""The serve result cache: a tier-0 LRU in front of the result store.

Lookup order is tier 0 (in-process :class:`repro.util.lru.LRUCache`,
byte-bounded), then the lab's content-addressed
:class:`~repro.lab.store.ResultStore`, where every read is
integrity-verified (body sha256 + code salt + content address) and
corrupt objects are quarantined, exactly as for batch runs. A store hit
is promoted into tier 0 so the next identical request never leaves the
process.

The cache never writes the store. A cold result is persisted once, by
the pool worker that computed it (:func:`repro.lab.jobs.execute_job`);
the service then only admits it to tier 0 (:meth:`TieredCache.admit`).

Everything here is synchronous on purpose: the service calls the store
probe through ``asyncio.to_thread`` so the event loop never blocks on
disk (SRV001 polices that discipline).
"""

from __future__ import annotations

import json
from array import array
from typing import Any, Dict, Optional, Tuple

from repro.lab.store import ResultStore
from repro.obs import context as obs_context
from repro.util.lru import LRUCache

#: Tier-0 defaults: enough for a sweep's working set, bounded in bytes
#: so a handful of huge timeline payloads cannot pin the heap.
DEFAULT_TIER0_ITEMS = 512
DEFAULT_TIER0_BYTES = 64 * 1024 * 1024

TIER0_NAME = "tier0"
STORE_NAME = "store"

#: Tier labels in lookup order, as used in metrics
#: (``serve.cache_hits_<name>_total``) and response ``meta.source``.
TIER_NAMES = (TIER0_NAME, STORE_NAME)


def json_sizeof(value: Any) -> int:
    """Measure a payload: typed columns by their bytes, the rest as JSON.

    ``sys.getsizeof`` is shallow (a dict of big columns measures tiny).
    A simulation payload's cycle columns are ``array`` objects, counted
    as ``len × itemsize`` (what they hold in memory); everything else is
    counted by its compact JSON length, with each column standing in as
    ``null``. Both are deterministic across runs.
    """
    column_bytes = 0

    def column(obj: Any) -> None:
        nonlocal column_bytes
        if not isinstance(obj, array):
            raise TypeError(f"cannot size {type(obj).__name__}")
        column_bytes += len(obj) * obj.itemsize
        return None

    text = json.dumps(value, separators=(",", ":"), default=column)
    return len(text) + column_bytes


class TieredCache:
    """Tier-0 LRU in front of one :class:`ResultStore`."""

    def __init__(
        self, store: ResultStore, tier0: Optional[LRUCache] = None
    ) -> None:
        # `tier0 or ...` would discard a caller-supplied cache: LRUCache
        # defines __len__, so an empty one is falsy.
        if tier0 is None:
            tier0 = LRUCache(
                DEFAULT_TIER0_ITEMS,
                max_bytes=DEFAULT_TIER0_BYTES,
                sizeof=json_sizeof,
            )
        self.tier0 = tier0
        self.store = store
        #: Brownout hook: when set, only payloads at most this many
        #: serialized bytes are admitted into tier 0 (lookups are
        #: unaffected). ``None`` = no cap.
        self.tier0_admit_bytes: Optional[int] = None

    def admit(self, key: str, payload: Dict[str, Any]) -> None:
        """Put ``payload`` in tier 0 unless the brownout cap refuses it."""
        cap = self.tier0_admit_bytes
        if cap is None or json_sizeof(payload) <= cap:
            self.tier0[key] = payload

    def lookup(self, key: str) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        """``(payload, tier_name)`` on a hit; ``(None, None)`` on a miss.

        When the calling request carries an ambient span collector
        (:func:`repro.obs.context.current_collector` — contextvars
        survive the service's ``asyncio.to_thread`` hop into here), the
        tier-0 probe and the store read are recorded as
        ``cache_tier0`` / ``cache_backend`` latency-stack spans. With
        tracing off the collector is ``None`` and this is the single
        extra attribute read the overhead benchmark budgets for.
        """
        collector = obs_context.current_collector()
        if collector is None:
            payload = self.tier0.get(key)
            if payload is not None:
                return payload, TIER0_NAME
            payload = self.store.get(key)
        else:
            ctx = obs_context.current_context()
            trace_id = ctx.trace_id if ctx else ""
            parent_id = ctx.span_id if ctx else None
            t0 = collector.now()
            payload = self.tier0.get(key)
            collector.add_complete(
                "cache_tier0",
                trace_id=trace_id,
                parent_id=parent_id,
                start_ns=t0,
                hit=payload is not None,
                key=key[:12],
            )
            if payload is not None:
                return payload, TIER0_NAME
            t0 = collector.now()
            payload = self.store.get(key)
            collector.add_complete(
                "cache_backend",
                trace_id=trace_id,
                parent_id=parent_id,
                start_ns=t0,
                tier=STORE_NAME,
                hit=payload is not None,
                key=key[:12],
            )
        if payload is None:
            return None, None
        self.admit(key, payload)
        return payload, STORE_NAME

    def stats(self) -> Dict[str, Any]:
        return {
            TIER0_NAME: self.tier0.stats(),
            STORE_NAME: self.store.stats.as_dict(),
        }


__all__ = [
    "DEFAULT_TIER0_BYTES",
    "DEFAULT_TIER0_ITEMS",
    "STORE_NAME",
    "TIER0_NAME",
    "TIER_NAMES",
    "TieredCache",
    "json_sizeof",
]
