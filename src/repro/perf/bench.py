"""The ``repro bench`` throughput harness and its regression baseline.

Measures instruction throughput (instr/sec) of the simulator's main
paths — the batched detailed core, interval simulation,
scalar predictor replay, trace statistics, cold trace
generation, the interval model's prediction and a cold
generate-then-estimate pipeline — and writes the results to
``BENCH_simulator.json``.

Raw instr/sec numbers are machine-bound, so the harness also measures a
fixed pure-Python + NumPy **calibration workload** and records every
benchmark as ``normalized = instr_per_sec / machine_score``. Normalized
values are comparable across machines of different speeds (to first
order) and are what the ``--compare`` regression gate judges: a
benchmark regresses when its normalized throughput falls more than
``REGRESSION_THRESHOLD`` below the committed baseline.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.frontend.bimodal import BimodalPredictor
from repro.frontend.gshare import GSharePredictor
from repro.frontend.local import LocalPredictor
from repro.interval.model import IntervalModel
from repro.perf.batchcore import run_batch
from repro.pipeline.config import CoreConfig
from repro.resilience.atomic import atomic_write_json
from repro.trace.columns import BRANCH_CODE
from repro.trace.profiles import WorkloadProfile
from repro.trace.stream import Trace
from repro.trace.synthetic import generate_trace
from repro.util.timing import Stopwatch

BENCH_SCHEMA_VERSION = 1

#: --compare fails when a benchmark's normalized throughput drops more
#: than this fraction below the baseline.
REGRESSION_THRESHOLD = 0.15

#: Fixed generation parameters so every run benches the same trace.
BENCH_SEED = 2006
FULL_LENGTH = 60_000
QUICK_LENGTH = 12_000

_PREDICTOR_SCALARS = {
    "bimodal": BimodalPredictor,
    "gshare": GSharePredictor,
    "local": LocalPredictor,
}


def _bench_profile() -> WorkloadProfile:
    return WorkloadProfile(
        name="bench",
        mispredict_rate=0.06,
        il1_mpki=2.0,
        dl1_miss_rate=0.05,
        dl2_miss_rate=0.01,
    )


#: Each timing sample spans at least this long; sub-millisecond kernels
#: are looped until they do, so best-of-N is judged on stable samples.
_MIN_SAMPLE_SECONDS = 0.05


#: Sampling stops early once the two best samples agree this closely;
#: otherwise it continues up to ``_MAX_REPEATS``. Bounds the
#: measurement noise the regression gate has to absorb.
_CONVERGENCE = 0.05
_MAX_REPEATS = 6

#: Round-robin passes over the whole suite; each benchmark keeps its
#: best cycle, so a slow host phase must span every cycle to bias it.
_CYCLES = 2


def _time_best(fn: Callable[[], Any], repeats: int) -> float:
    """Converged best-sample wall seconds for one call of ``fn``.

    Two defenses against a noisy host, both needed in practice:

    * fast functions are auto-calibrated — a sample loops ``fn`` enough
      times to span :data:`_MIN_SAMPLE_SECONDS` and the per-call time
      is the sample mean, so sub-millisecond kernels don't measure
      scheduler noise;
    * sampling continues past ``repeats`` (up to :data:`_MAX_REPEATS`)
      until the two best samples agree within :data:`_CONVERGENCE`, so
      one lucky sample never defines the result.
    """
    iterations = 1
    while True:
        watch = Stopwatch()
        for _ in range(iterations):
            fn()
        elapsed = watch.elapsed
        if elapsed >= _MIN_SAMPLE_SECONDS or iterations >= 4096:
            break
        shortfall = _MIN_SAMPLE_SECONDS / max(elapsed, 1e-9)
        iterations = min(4096, max(iterations * 2, int(iterations * shortfall) + 1))
    samples = [elapsed / iterations]
    while len(samples) < _MAX_REPEATS:
        first, second = sorted(samples)[:2] if len(samples) > 1 else (None, None)
        if (
            len(samples) >= repeats
            and first is not None
            and second <= first * (1 + _CONVERGENCE)
        ):
            break
        watch = Stopwatch()
        for _ in range(iterations):
            fn()
        samples.append(watch.elapsed / iterations)
    return min(samples)


def machine_score(repeats: int = 2) -> float:
    """Throughput of a fixed CPU-bound calibration workload.

    Half pure-Python bytecode, half NumPy, mirroring the mix of work in
    the real benchmarks; the unit is arbitrary (iterations/sec) — only
    ratios against it are ever used. Machine speed drifts on a scale of
    minutes (shared hosts, frequency scaling), so the harness measures
    this *adjacent to every benchmark* and normalizes each one by its
    own local score rather than by a single per-run calibration.
    """
    size = 200_000

    def workload() -> None:
        total = 0
        for i in range(size):
            total += i & 7
        a = np.arange(size, dtype=np.int64)
        for _ in range(8):
            a = (a * 3 + 1) & 0xFFFF
        if total < 0:  # keep both halves observable
            raise AssertionError

    return size / _time_best(workload, repeats)


def run_benchmarks(
    quick: bool = False, repeats: Optional[int] = None
) -> Dict[str, Any]:
    """Run the suite; returns one mode's run payload.

    Quick and full runs measure different trace lengths, and per-item
    throughput is *not* length-independent (fixed NumPy dispatch
    overhead amortizes differently), so the two modes are kept as
    separate baseline sections and only ever compared like-with-like.
    """
    length = QUICK_LENGTH if quick else FULL_LENGTH
    if repeats is None:
        repeats = 2
    profile = _bench_profile()
    config = CoreConfig(record_timeline=False)
    trace = generate_trace(profile, length, BENCH_SEED)
    branch_count = trace.statistics().branch_count
    n = len(trace)

    specs: List[Tuple[str, Callable[[], Any], int]] = []

    def spec(name: str, fn: Callable[[], Any], items: int) -> None:
        specs.append((name, fn, items))

    # Lockstep batched detailed core: 8 ROB sweep points per call, so
    # per-point throughput counts n instructions per config. Each call
    # builds its trace columns and per-group derived columns, as every
    # sweep does.
    batch_configs = [
        config.with_overrides(rob_size=r)
        for r in (32, 48, 64, 96, 128, 160, 192, 256)
    ]
    spec(
        "detailed_core_batched",
        lambda: run_batch(trace, batch_configs),
        n * len(batch_configs),
    )

    # Interval simulation.
    model = IntervalModel(config)
    spec("fast_sim_scalar", lambda: model.estimate(trace), n)

    # Predictor replay (throughput counted in branches).
    def scalar_replay(name: str) -> Callable[[], None]:
        def run() -> None:
            predictor = _PREDICTOR_SCALARS[name]()
            # The per-branch predictor walk F17's structural runs make,
            # over the branch rows extracted per pass as they do.
            cols = trace.columns
            at = np.flatnonzero(cols["op"] == BRANCH_CODE)
            for pc, taken in zip(
                cols["pc"][at].tolist(), cols["taken"][at].tolist()
            ):
                predictor.predict_and_update(pc, taken)

        return run

    for name in ("bimodal", "gshare", "local"):
        spec(f"replay_{name}_scalar", scalar_replay(name), branch_count)

    # A fresh trace over the same columns each call, so its memo is cold.
    spec(
        "statistics_scalar",
        lambda: Trace(
            trace.columns, trace.dep_indptr, trace.dep_data
        ).statistics(),
        n,
    )

    # The two layers the figure workloads spend most in after the core:
    # cold generation of the columns, and the interval model's
    # prediction with its ILP fit.
    spec(
        "trace_generate",
        lambda: generate_trace(profile, length, BENCH_SEED),
        n,
    )
    spec("interval_predict", lambda: IntervalModel(config).predict(trace), n)

    # End to end: cold columnar generation, then F16's interval estimate.
    spec(
        "end_to_end_scalar",
        lambda: IntervalModel(config).estimate(
            generate_trace(profile, length, BENCH_SEED)
        ),
        n,
    )

    # Shared hosts drift through slow phases lasting seconds, long
    # enough to swallow a benchmark's whole sample budget. Two defenses:
    # each measurement is normalized by a calibration taken right next
    # to it (cancels drift slower than one measurement), and the whole
    # suite runs in round-robin cycles minutes apart, keeping each
    # benchmark's best cycle (a slow phase would have to cover every
    # cycle to bias the result).
    benchmarks: Dict[str, Dict[str, float]] = {}
    scores: List[float] = []
    for _cycle in range(_CYCLES):
        for name, fn, items in specs:
            local_score = machine_score()
            scores.append(local_score)
            seconds = _time_best(fn, repeats)
            rate = items / seconds if seconds > 0 else float("inf")
            entry = {
                "items_per_sec": rate,
                "seconds": seconds,
                "items": items,
                "normalized": rate / local_score,
            }
            best = benchmarks.get(name)
            if best is None or entry["normalized"] > best["normalized"]:
                benchmarks[name] = entry

    scores.sort()
    score = scores[len(scores) // 2]  # median of the local calibrations

    return {
        "schema": BENCH_SCHEMA_VERSION,
        "mode": "quick" if quick else "full",
        "length": length,
        "seed": BENCH_SEED,
        "repeats": repeats,
        "machine_score": score,
        "benchmarks": benchmarks,
    }


def compare(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = REGRESSION_THRESHOLD,
) -> List[str]:
    """Regression messages; empty means the gate passes.

    ``current`` is one run payload; ``baseline`` is the committed
    document, whose matching mode section is judged (quick runs never
    compare against full-length numbers — amortization differs). Judged
    on machine-normalized throughput for benchmarks present in both
    payloads (new benchmarks pass trivially, removed ones are reported
    so a baseline refresh is deliberate).

    The default 15% threshold is meant for a dedicated perf machine.
    Shared/hosted runners drift 20-30% between machine-state epochs in
    ways the interleaved calibration cannot cancel; gate those with an
    explicit wider ``--threshold`` (CI uses 0.5) so only real
    regressions fail.
    """
    problems: List[str] = []
    mode = current.get("mode", "full")
    base_run = baseline.get("runs", {}).get(mode)
    if base_run is None:
        return [
            f"baseline has no '{mode}' section; refresh it with "
            f"'repro bench{' --quick' if mode == 'quick' else ''} --out'"
        ]
    base_benchmarks = base_run.get("benchmarks", {})
    cur_benchmarks = current.get("benchmarks", {})
    for name in sorted(base_benchmarks):
        if name not in cur_benchmarks:
            problems.append(f"{name}: present in baseline but not measured")
            continue
        base = base_benchmarks[name].get("normalized")
        cur = cur_benchmarks[name].get("normalized")
        if not base or cur is None:
            continue
        drop = 1.0 - cur / base
        if drop > threshold:
            problems.append(
                f"{name}: normalized throughput {cur:.3f} is "
                f"{100 * drop:.1f}% below baseline {base:.3f} "
                f"(threshold {100 * threshold:.0f}%)"
            )
    return problems


def load_baseline(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_payload(payload: Dict[str, Any], path: str) -> None:
    """Merge one run payload into the baseline document at ``path``.

    The document keeps one section per mode (``runs.full`` /
    ``runs.quick``); writing a quick run refreshes only the quick
    section. The write itself is atomic and deterministically
    formatted.
    """
    document: Dict[str, Any] = {
        "schema": BENCH_SCHEMA_VERSION,
        "seed": payload["seed"],
        "runs": {},
    }
    try:
        existing = load_baseline(path)
        if existing.get("schema") == BENCH_SCHEMA_VERSION:
            document["runs"] = dict(existing.get("runs", {}))
    except (OSError, ValueError):
        pass
    run = {key: payload[key] for key in payload if key not in ("schema", "seed")}
    document["runs"][payload.get("mode", "full")] = run
    atomic_write_json(path, document, indent=2, sort_keys=True)


def render(payload: Dict[str, Any]) -> str:
    """Human-readable summary for the CLI."""
    lines = [
        f"bench[{payload.get('mode', 'full')}]: length={payload['length']} "
        f"repeats={payload['repeats']} "
        f"machine_score={payload['machine_score']:.0f}",
        f"{'benchmark':<32} {'items/sec':>14} {'normalized':>12}",
    ]
    for name in sorted(payload["benchmarks"]):
        entry = payload["benchmarks"][name]
        lines.append(
            f"{name:<32} {entry['items_per_sec']:>14.0f} "
            f"{entry['normalized']:>12.3f}"
        )
    return "\n".join(lines)
