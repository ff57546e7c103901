"""Cached workload generation and simulation for the harness.

Experiments share traces and baseline simulations. Two layers of
caching keep the table/figure suite fast:

- **in-process** — bounded :class:`~repro.util.lru.LRUCache` maps for
  traces and simulation results (the old unbounded dicts grew without
  limit across long sweeps);
- **persistent** — the :mod:`repro.lab.store` content-addressed store
  under ``.repro-cache/``, so repeated pytest/benchmark invocations
  reuse simulations across processes. Set ``REPRO_NO_CACHE=1`` to
  disable it, ``REPRO_CACHE_DIR`` to relocate it. A lab job overrides
  both for its duration (:func:`job_store`): its simulations go to the
  job's own store, or to none.

Every miss runs on the structure-of-arrays detailed core
(:func:`repro.perf.batchcore.run_batch`), the one out-of-order core,
wrong-path dispatch and random issue included. Traced, metered and
sanitized runs take it too: spans and ``core.*`` metrics are read from
the finished results, and the sanitizer's checks run in its loop.
:func:`simulate_workload` is the one-config case of
:func:`simulate_workload_batch`, so there is one lookup-and-persist
path. A sweep passes all its configs for a workload in one call, so
the trace's columns are built once for them.

Simulation keys come from the lab's canonical config digest
(:func:`repro.lab.store.config_digest`), so a key can never collide
between differing configurations nor depend on field order. Traces are
only cached in memory: they regenerate deterministically and would
double the store's footprint for no reuse win.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.lab.codec import result_from_payload, result_to_payload
from repro.lab.store import (
    ResultStore,
    caching_disabled,
    config_digest,
    default_store_root,
    job_key,
)
from repro.pipeline.config import CoreConfig
# Not called here since harness misses run on the batched core; kept as
# a module attribute because bench/figure_round.py wraps
# ``runner.simulate`` for its detailed-core span.
from repro.pipeline.core import simulate  # noqa: F401
from repro.pipeline.result import SimulationResult
from repro.trace.stream import Trace
from repro.trace.synthetic import generate_trace
from repro.util.lru import LRUCache
from repro.util.rng import derive_seed
from repro.workloads.spec_profiles import ALL_PROFILES

DEFAULT_LENGTH = 60_000
DEFAULT_SEED = 2006

#: In-memory cache bounds.
TRACE_CACHE_CAPACITY = 64
SIM_CACHE_CAPACITY = 256

_trace_cache: LRUCache = LRUCache(TRACE_CACHE_CAPACITY)
_sim_cache: LRUCache = LRUCache(SIM_CACHE_CAPACITY)
_store: Optional[ResultStore] = None

#: The store root a lab job's simulations use (:func:`job_store`), or
#: None for no store; :data:`_FROM_ENVIRONMENT` outside a job.
_FROM_ENVIRONMENT = object()
_job_root: object = _FROM_ENVIRONMENT


def baseline_config() -> CoreConfig:
    """The paper-baseline machine (DESIGN.md Table T1)."""
    return CoreConfig()


def _config_key(config: CoreConfig) -> str:
    """Stable cache key for a configuration (the lab's canonical digest)."""
    return config_digest(config)


@contextmanager
def job_store(root: Optional[Union[str, Path]]) -> Iterator[None]:
    """Within the block, simulations read and write the store at
    ``root`` (no store when None), whatever the environment says.

    :func:`repro.lab.jobs.execute_job` holds this for a job's duration,
    so a lab run's simulations go to the run's store and a ``--no-cache``
    run reads and writes none.
    """
    global _job_root
    previous = _job_root
    _job_root = None if root is None else Path(root)
    try:
        yield
    finally:
        _job_root = previous


def _persistent_store() -> Optional[ResultStore]:
    """The process-wide result store, or None when caching is off.

    Inside :func:`job_store` it is the job's store. Outside, it is
    re-resolved when ``REPRO_CACHE_DIR`` changes so tests can redirect
    the store without reloading the module.
    """
    global _store
    if _job_root is _FROM_ENVIRONMENT:
        root = None if caching_disabled() else default_store_root()
    else:
        root = _job_root
    if root is None:
        return None
    if _store is None or _store.root != root:
        _store = ResultStore(root=root)
    return _store


def build_workload_trace(
    name: str, length: int = DEFAULT_LENGTH, seed: int = DEFAULT_SEED
) -> Trace:
    """Deterministic synthetic trace for one suite workload, generated
    on every call (lab simulation jobs use this, so workers hold no
    traces between jobs)."""
    try:
        profile = ALL_PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}") from None
    return generate_trace(profile, length, seed=derive_seed(seed, name))


def workload_trace(
    name: str, length: int = DEFAULT_LENGTH, seed: int = DEFAULT_SEED
) -> Trace:
    """:func:`build_workload_trace`, cached in the in-process LRU."""
    key = (name, length, seed)
    trace = _trace_cache.get(key)
    if trace is None:
        trace = build_workload_trace(name, length, seed)
        _trace_cache[key] = trace
    return trace


def simulate_workload(
    name: str,
    config: Optional[CoreConfig] = None,
    length: int = DEFAULT_LENGTH,
    seed: int = DEFAULT_SEED,
) -> SimulationResult:
    """Simulate one suite workload under ``config`` (cached); see
    :func:`simulate_workload_batch`."""
    return simulate_workload_batch(name, [config], length, seed)[0]


def simulate_workload_batch(
    name: str,
    configs: "Sequence[Optional[CoreConfig]]",
    length: int = DEFAULT_LENGTH,
    seed: int = DEFAULT_SEED,
) -> "List[SimulationResult]":
    """Simulate one workload under each of ``configs``, in order (cached).

    A ``None`` config means the baseline. Lookup order per config:
    in-process LRU, then the persistent store; the configs found in
    neither run together in one :func:`repro.perf.batchcore.run_batch`
    call over the shared trace, and populate both layers.
    """
    configs = [
        baseline_config() if config is None else config for config in configs
    ]
    results: List[Optional[SimulationResult]] = [None] * len(configs)
    store = _persistent_store()
    missing: List[int] = []
    for index, config in enumerate(configs):
        key = (name, length, seed, _config_key(config))
        cached = _sim_cache.get(key)
        if cached is not None:
            results[index] = cached
            continue
        if store is not None:
            payload = store.get(job_key("sim-ooo", name, length, seed, config))
            if payload is not None:
                result = result_from_payload(payload)
                _sim_cache[key] = result
                results[index] = result
                continue
        missing.append(index)

    if missing:
        from repro.perf.batchcore import run_batch

        trace = workload_trace(name, length, seed)
        fresh = run_batch(trace, [configs[i] for i in missing])
        for index, result in zip(missing, fresh):
            config = configs[index]
            results[index] = result
            _sim_cache[(name, length, seed, _config_key(config))] = result
            if store is not None:
                store.put(
                    job_key("sim-ooo", name, length, seed, config),
                    result_to_payload(result),
                    meta={"workload": name, "length": length, "seed": seed},
                )
    unfilled = [i for i, result in enumerate(results) if result is None]
    if unfilled:
        raise RuntimeError(
            f"{name}: no result for config index(es) {unfilled}"
        )
    return results  # type: ignore[return-value]


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/eviction counters for both in-memory caches."""
    return {
        "trace": {
            "size": len(_trace_cache),
            "capacity": _trace_cache.capacity,
            "hits": _trace_cache.hits,
            "misses": _trace_cache.misses,
            "evictions": _trace_cache.evictions,
        },
        "sim": {
            "size": len(_sim_cache),
            "capacity": _sim_cache.capacity,
            "hits": _sim_cache.hits,
            "misses": _sim_cache.misses,
            "evictions": _sim_cache.evictions,
        },
    }


def clear_caches() -> None:
    """Drop the in-memory caches (tests use this).

    The persistent store is left alone; use ``repro lab gc`` or
    :meth:`repro.lab.store.ResultStore.gc` to clear it.
    """
    _trace_cache.clear()
    _sim_cache.clear()
