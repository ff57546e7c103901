"""repro.serve — the sharded async experiment service.

The batch lab answers "run these experiments"; serve answers "keep
answering simulate/sweep queries, fast, forever". It is a thin asyncio
front door over the primitives every prior layer already provides:

- :mod:`repro.serve.protocol` — JSON-lines request/response frames,
  validation, and the job-spec mapping (requests are content-addressed
  through the same :func:`repro.lab.store.job_key` as batch runs);
- :mod:`repro.serve.cache` — tier-0 in-process LRU (byte-bounded) in
  front of the verified lab store;
- :mod:`repro.serve.shards` — hash-prefix worker shards with
  write-ahead journals, heartbeats, and crash-restart replay;
- :mod:`repro.serve.service` — request coalescing (singleflight per
  content address), the tier walk, shard dispatch, metrics, and the
  TCP server;
- :mod:`repro.serve.client` — the synchronous client helper the tests,
  CI driver, and ``repro serve status`` use.

Start one with ``python -m repro serve run``; see ``docs/serve.md``.
"""

from repro.serve.cache import TieredCache
from repro.serve.client import ServeClient, ServeClientError, read_endpoint
from repro.serve.protocol import ProtocolError, ShardCrashError
from repro.serve.service import (
    BackgroundServer,
    ExperimentService,
    ServeServer,
    endpoint_path,
)
from repro.serve.shards import Shard, ShardSet, shard_index

__all__ = [
    "BackgroundServer",
    "ExperimentService",
    "ProtocolError",
    "ServeClient",
    "ServeClientError",
    "ServeServer",
    "Shard",
    "ShardCrashError",
    "ShardSet",
    "TieredCache",
    "endpoint_path",
    "read_endpoint",
    "shard_index",
]
