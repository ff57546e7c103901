#!/usr/bin/env python3
"""End-to-end benchmark: paper regeneration and serve traffic.

Run from the repository root::

    python3 bench/run.py --workload figures-cold --seed 2006 --seconds 20 --trace 0
    python3 bench/run.py --seed 2006 --out bench-out.json        # every workload
    python3 bench/run.py --trace 1                               # per-layer run

Each workload runs the program from the outside: figure workloads
spawn fresh processes that call ``repro.harness.experiments
.run_experiment``; ``serve-mixed`` starts ``repro serve run`` and talks
to it through ``ServeClient``. Every output is checked (see
``figure_round.py`` and ``serve_load.py``). The metrics print by name
with their unit, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}`` — the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. Times are in reference
seconds (``calib.py``); the raw values print alongside and are kept in
``--out`` files.
Exit status: 0 when every output is correct, 1 when one is not, 2 when
the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional

import calib
from spans import (Span, chrome_events, fold_self_ns, spans_from_json,
                   write_chrome_trace)
from stats import percentile, samples_beyond, tail_percentile
from stream import build_episodes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "benchmarks" / "results"
SCRATCH = ROOT / ".bench_run"
TRACE_FILE = SCRATCH / "bench-trace.json"

#: Each figure list runs in the order of the experiment registry. A
#: seeded order would make the peak resident set depend on the seed: on
#: ``sweeps-cold`` it ranged from 229 to 293 MB over ten orders, as the
#: structural experiments allocate on top of whatever the earlier ones
#: left cached. The seed drives the serve stream only.
#:
#: The suite at the baseline machine: trace generation, the detailed
#: core, ``IntervalModel.predict`` (T3) and the ILP fit (F12). No
#: configuration sweep.
COLD_FIGURES = ("t1", "t2", "f1", "f2", "f3", "f4", "f5", "f10", "t3",
                "f11", "f12", "f15")
#: Machine-parameter sweeps, the structural branch predictors and cache
#: hierarchy (F17, F18), and the in-order core (F20).
COLD_SWEEPS = ("f7", "f9", "f13", "f14", "f17", "f18", "f19", "f20")
#: The experiments that take every simulation they use from the result
#: store, once it is filled; the others either simulate nothing or
#: simulate without the store.
STORE_READERS = ("t2", "f1", "f2", "f3", "f4", "f5", "f7", "f9", "f10",
                 "t3", "f11", "f13", "f14", "f19")
FIGURE_LISTS = {
    "figures-cold": COLD_FIGURES,
    "sweeps-cold": COLD_SWEEPS,
    "figures-warm": STORE_READERS,
}
WORKLOADS = tuple(FIGURE_LISTS) + ("serve-mixed",)

#: A round process still running after this long is killed.
ROUND_TIMEOUT_S = 150

#: Extra set-up-only process starts per run, so ``setup_s`` is a median.
FIGURE_SETUP_PROBES = 4
SERVE_SETUP_PROBES = 3
#: Timed serve episodes per second of ``--seconds``. One more episode
#: plays first and is checked but not timed: it carries one-time costs
#: (each shard worker's first job imports the simulator), and with it
#: timed the p99 spread over twelve runs was 0.149, without it 0.095.
EPISODES_PER_SECOND = 2
#: The serve tail: the highest percentile with ten samples beyond it
#: at the default ``--seconds``. It is a per-layer metric, not gated:
#: its median moved by 22% between two ten-run sets of the same code.
TAIL_PCT = 99.0

STACK_COMPONENTS = ("queue_wait", "coalesce_wait", "cache_tier0",
                    "cache_backend", "pool_execute", "store_put",
                    "serialize")

MB = 1024.0 * 1024.0


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tree_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / MB


def source_digest() -> str:
    """Digest of the program's sources and the warm list: a filled
    store is reusable exactly while they are unchanged."""
    digest = hashlib.sha256(",".join(STORE_READERS).encode())
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Run:
    """One workload invocation: its options and its scratch directory."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = SCRATCH / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.log = self.dir / "log.txt"
        self._serial = 0

    def new_dir(self, prefix: str, template: Optional[Path] = None) -> Path:
        self._serial += 1
        path = self.dir / f"{prefix}-{self._serial}"
        if template is None:
            path.mkdir()
        else:
            shutil.copytree(template, path,
                            ignore=shutil.ignore_patterns("FILLED"))
        return path

    def env(self, store: Path) -> Dict[str, str]:
        """The program's environment: this checkout's sources, one
        store, and no inherited ``REPRO_*`` switches."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        env["REPRO_CACHE_DIR"] = str(store)
        return env


# -- figure workloads -------------------------------------------------


def run_round(run: Run, store: Path, ids: List[str], probe: bool = False,
              trace: bool = False) -> Dict[str, Any]:
    """One ``figure_round.py`` process; returns its report plus the
    monotonic time it was spawned at."""
    report_path = run.new_dir("report") / "report.json"
    command = [sys.executable, str(BENCH / "figure_round.py"),
               "--ids", ",".join(ids), "--golden", str(GOLDEN),
               "--report", str(report_path)]
    if probe:
        command.append("--probe")
    if trace:
        command.append("--trace")
    with open(run.log, "ab") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(command, env=run.env(store), stdout=log,
                                stderr=subprocess.STDOUT)
    try:
        proc.wait(timeout=ROUND_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"round process exited {proc.returncode}; "
                           f"see {run.log}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["spawned"] = spawned
    return report


def warm_template(run: Run) -> Path:
    """A store filled by the ``figures-warm`` list, built once per
    source tree.

    Filling costs about as much as both cold workloads, so the filled
    store is kept under the scratch directory, keyed by
    :func:`source_digest`, and each warm round works on a copy.
    """
    digest = source_digest()
    final = SCRATCH / f"warm-store-{digest[:16]}"
    if (final / "FILLED").is_file():
        return final
    fill = SCRATCH / f"warm-fill-{os.getpid()}"
    shutil.rmtree(fill, ignore_errors=True)
    fill.mkdir(parents=True)
    command = [sys.executable, str(BENCH / "figure_round.py"),
               "--golden", str(GOLDEN)]
    procs = []
    with open(run.log, "ab") as log:
        # The two halves fill in parallel, one per core.
        for index, cold in enumerate((COLD_FIGURES, COLD_SWEEPS)):
            ids = [e for e in cold if e in STORE_READERS]
            report = run.dir / f"fill-{index}.json"
            procs.append((report, subprocess.Popen(
                command + ["--ids", ",".join(ids), "--report", str(report)],
                env=run.env(fill), stdout=log, stderr=subprocess.STDOUT)))
    for report, proc in procs:
        proc.wait()
    for report, proc in procs:
        errors = [e for e in json.loads(report.read_text())["experiments"]
                  if e["error"]] if proc.returncode == 0 else ["exit"]
        if errors:
            shutil.rmtree(fill, ignore_errors=True)
            raise RuntimeError(f"filling the warm store failed: {errors}")
    (fill / "FILLED").write_text(digest, encoding="utf-8")
    for stale in SCRATCH.glob("warm-store-*"):
        if stale != final:
            shutil.rmtree(stale, ignore_errors=True)
    try:
        os.rename(fill, final)
    except OSError:  # a concurrent run filled it first
        shutil.rmtree(fill, ignore_errors=True)
    return final


def figure_workload(run: Run) -> Dict[str, Any]:
    ids = list(FIGURE_LISTS[run.workload])
    template = warm_template(run) if run.workload == "figures-warm" else None

    def fresh_round(trace: bool = False) -> Dict[str, Any]:
        store = run.new_dir("store", template)
        report = run_round(run, store, ids, trace=trace)
        report["store_mb"] = tree_mb(store)
        shutil.rmtree(store)
        return report

    # Every process spawned from here on inherits the one core, which
    # the calibrator times alongside it. The experiments are
    # single-threaded, so a round is single-core by construction.
    cpu = calib.work_cpu()
    os.sched_setaffinity(0, {cpu})
    with calib.Calibrator(run.dir, [cpu]) as calibrator:
        starts = [run_round(run, template or run.new_dir("probe"), ids,
                            probe=True)
                  for _ in range(0 if run.trace else FIGURE_SETUP_PROBES)]
        rounds: List[Dict[str, Any]] = []
        started = time.monotonic()
        while True:
            rounds.append(fresh_round())
            typical = statistics.median(r["loop"][1] - r["loop"][0]
                                        for r in rounds)
            if run.trace or time.monotonic() - started + typical > run.seconds:
                break
        traced = fresh_round(trace=True) if run.trace else None
    samples = calibrator.samples()

    def reference(start: float, end: float) -> float:
        return calib.reference_seconds(start, end, samples)

    starts += rounds
    setups = [reference(r["spawned"], r["ready"]) for r in starts]
    walls = [reference(*r["loop"]) for r in rounds]
    experiments = [e for report in rounds for e in report["experiments"]]
    result: Dict[str, Any] = {
        "attempted": len(experiments),
        "failures": [f"{e['id']}: {e['error']}"
                     for e in experiments if e["error"]],
        "calib_ms": statistics.median(ms for _, ms in samples),
        "raw": {"wall_s": [r["loop"][1] - r["loop"][0] for r in rounds],
                "setup_s": [r["ready"] - r["spawned"] for r in starts]},
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            # An operation is one regeneration of the list.
            "p50_ms": percentile(walls, 50) * 1000.0,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
            "store_mb": statistics.median(r["store_mb"] for r in rounds),
        },
        "samples": {"setup_s": len(setups), "wall_s": len(walls),
                    "p50_ms": len(walls)},
    }
    if traced is not None:
        if any(e["error"] for e in traced["experiments"]):
            result["failures"].append("traced round: an output differs")
        overhead = reference(*traced["loop"]) / walls[0] - 1.0
        result.update(figure_layers(traced, overhead))
        result["layers"]["bench.calib_ms"] = result["calib_ms"]
    return result


def figure_layers(report: Dict[str, Any], overhead: float) -> Dict[str, Any]:
    """Per-layer metrics of one traced figure round."""
    spans = spans_from_json(report["spans"])
    self_ns = fold_self_ns(spans)
    calls = Counter(span.name for span in spans)
    counts = report["counts"]
    wall_ns = next(s.duration_ns for s in spans if s.name == "harness.round")
    other_ns = sum(ns for name, ns in self_ns.items()
                   if name.startswith("harness."))
    layer_ns = sum(ns for name, ns in self_ns.items()
                   if not name.startswith("harness."))

    def seconds(layer: str) -> float:
        return self_ns.get(layer, 0) / 1e9

    def rate(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    cache = report["cache_stats"]
    metrics = {
        "trace.generate_s": seconds("trace.generate"),
        "trace.generate_calls": calls["trace.generate"],
        "trace.insn_per_s": rate(counts["trace.instructions"],
                                 seconds("trace.generate")),
        "pipeline.simulate_s": seconds("pipeline.simulate"),
        "pipeline.simulate_calls": calls["pipeline.simulate"],
        "pipeline.insn_per_s": rate(counts["pipeline.instructions"],
                                    seconds("pipeline.simulate")),
        "pipeline.simulate_inorder_s": seconds("pipeline.simulate_inorder"),
        "pipeline.sim_cycles": counts["pipeline.sim_cycles"],
        "pipeline.sim_events": counts["pipeline.sim_events"],
        "perf.run_batch_s": seconds("perf.run_batch"),
        "perf.run_batch_points": counts["perf.run_batch_points"],
        "interval.predict_s": seconds("interval.predict"),
        "interval.predict_calls": calls["interval.predict"],
        "interval.analysis_s": seconds("interval.analysis"),
        "interval.contributors_s": seconds("interval.contributors"),
        "lab.store_get_s": seconds("lab.store_get"),
        "lab.store_gets": counts["lab.store_gets"],
        "lab.store_hit_ratio": rate(counts["lab.store_hits"],
                                    counts["lab.store_gets"]),
        "lab.store_put_s": seconds("lab.store_put"),
        "lab.store_puts": counts["lab.store_puts"],
        "lab.codec_encode_s": seconds("lab.codec_encode"),
        "lab.codec_decode_s": seconds("lab.codec_decode"),
        "harness.other_s": other_ns / 1e9,
        "harness.sim_cache_hit_ratio": rate(
            cache["sim"]["hits"], cache["sim"]["hits"] + cache["sim"]["misses"]),
        "harness.trace_cache_hit_ratio": rate(
            cache["trace"]["hits"],
            cache["trace"]["hits"] + cache["trace"]["misses"]),
        "bench.trace_overhead_pct": 100.0 * overhead,
    }
    for span in spans:
        if span.name.startswith("harness.") and span.op_id == span.name[8:]:
            metrics[f"harness.{span.op_id}_s"] = span.duration_ns / 1e9
    fold_error = abs(layer_ns + other_ns - wall_ns) / wall_ns
    failures = []
    if fold_error > 0.01:
        failures.append(f"layer self times miss the traced wall by "
                        f"{100 * fold_error:.2f}%")
    return {"layers": metrics, "layer_failures": failures,
            "chrome": chrome_events(spans, pid=1, tid=1,
                                    base_ns=spans[0].start_ns)}


# -- serve workload ---------------------------------------------------


def serve_round(run: Run, episodes, traced: bool) -> Dict[str, Any]:
    from serve_load import ServerProcess, check, drive

    store = run.new_dir("serve")
    server = ServerProcess(store, run.env(store), run.log, traced=traced)
    try:
        server.start()
        played = drive(server, episodes)
        with server.client(timeout_s=30) as client:
            status = client.status()["result"]
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    failed, messages = check(played.outcomes, run.seed)
    return {"start": (server.spawned, server.ready), "played": played,
            "status": status, "peak_rss_mb": rss,
            "store_mb": tree_mb(store), "failed": failed,
            "messages": messages}


def serve_workload(run: Run) -> Dict[str, Any]:
    from serve_load import ServerProcess

    episodes = build_episodes(run.seed, 1 + EPISODES_PER_SECOND * run.seconds)
    starts = []
    # The service uses every core, so every core is timed.
    cpus = sorted(os.sched_getaffinity(0))
    with calib.Calibrator(run.dir, cpus) as calibrator:
        for _ in range(0 if run.trace else SERVE_SETUP_PROBES):
            store = run.new_dir("probe")
            server = ServerProcess(store, run.env(store), run.log)
            try:
                server.start()
            finally:
                server.stop()
            starts.append((server.spawned, server.ready))
        measured = serve_round(run, episodes, traced=False)
        traced = serve_round(run, episodes, traced=True) if run.trace else None
    samples = calibrator.samples()

    def reference(start: float, end: float) -> float:
        return calib.reference_seconds(start, end, samples)

    # Episode 0 warms the service up and is not timed.
    def latencies(round_: Dict[str, Any], scaled: bool) -> List[float]:
        return [1000.0 * (reference(o.start_ns / 1e9, o.end_ns / 1e9)
                          if scaled else o.latency_s)
                for o in round_["played"].outcomes if o.episode > 0]

    def wall(round_: Dict[str, Any], scaled: bool) -> float:
        return sum(reference(begin, end) if scaled else end - begin
                   for begin, end in round_["played"].windows[1:])

    starts.append(measured["start"])
    scaled, raw = latencies(measured, True), latencies(measured, False)
    result: Dict[str, Any] = {
        "attempted": len(measured["played"].outcomes),
        "failures": measured["messages"],
        "failed": measured["failed"],
        "calib_ms": statistics.median(ms for _, ms in samples),
        "raw": {"wall_s": [wall(measured, False)],
                "setup_s": [ready - spawned for spawned, ready in starts],
                "p50_ms": [percentile(raw, 50)],
                "tail_ms": [percentile(raw, TAIL_PCT)]},
        "metrics": {
            "setup_s": statistics.median(reference(*s) for s in starts),
            "wall_s": wall(measured, True),
            "p50_ms": percentile(scaled, 50),
            "peak_rss_mb": measured["peak_rss_mb"],
            "store_mb": measured["store_mb"],
        },
        "samples": {"setup_s": len(starts), "wall_s": 1,
                    "p50_ms": len(raw)},
        "tail_ms": percentile(scaled, TAIL_PCT),
        "rps": len(raw) / wall(measured, False),
    }
    if traced is not None:
        result["failed"] += traced["failed"]
        result["failures"] += traced["messages"]
        overhead = wall(traced, True) / result["metrics"]["wall_s"] - 1
        result.update(serve_layers(traced, overhead, result["tail_ms"]))
        result["layers"]["bench.calib_ms"] = result["calib_ms"]
    return result


def serve_layers(traced: Dict[str, Any], overhead: float,
                 tail_ms: float) -> Dict[str, Any]:
    """Per-layer metrics of one traced serve round; ``tail_ms`` is the
    untraced round's."""
    counters = traced["status"]["metrics"]["counters"]
    outcomes = traced["played"].outcomes
    simulate = [o for o in outcomes if o.episode > 0
                and o.request.kind != "sweep" and o.response.get("ok")]

    def p(source: str, pct: float) -> float:
        values = [1000.0 * o.latency_s for o in simulate if o.source == source]
        return percentile(values, pct) if values else 0.0

    stacks = [o.response["meta"]["latency_stack_ns"] for o in outcomes
              if o.response.get("ok")
              and "latency_stack_ns" in o.response.get("meta", {})]
    hits = sum(v for k, v in counters.items()
               if k.startswith("serve.cache_hits_"))
    lookups = hits + counters.get("serve.cache_misses_total", 0)
    requests = counters.get("serve.requests_total", 0)
    metrics = {
        "serve.requests": requests,
        "serve.p99_ms": tail_ms,
        "serve.tier0_p50_ms": p("tier0", 50),
        "serve.pool_p50_ms": p("pool", 50),
        "serve.pool_p90_ms": p("pool", 90),
        "serve.coalesced_ratio": (counters.get("serve.coalesced_total", 0)
                                  / requests if requests else 0.0),
        "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "serve.pool_executions": counters.get("serve.pool_executions_total", 0),
        "serve.sheds": counters.get("serve.overload_sheds_total", 0),
        "bench.trace_overhead_pct": 100.0 * overhead,
    }
    for component in STACK_COMPONENTS:
        metrics[f"serve.stack_{component}_ms"] = (
            sum(stack.get(component, 0) for stack in stacks)
            / len(stacks) / 1e6 if stacks else 0.0)
    base = min(o.start_ns for o in outcomes)
    chrome = []
    for conn in sorted({o.conn for o in outcomes}):
        spans = [Span(f"serve.{o.request.kind}", o.start_ns, o.end_ns,
                      op_id=f"e{o.episode}-c{o.conn}",
                      args={"source": o.source,
                            "ok": bool(o.response.get("ok"))})
                 for o in outcomes if o.conn == conn]
        chrome += chrome_events(spans, pid=2, tid=conn + 1, base_ns=base)
    return {"layers": metrics, "layer_failures": [], "chrome": chrome}


# -- reporting --------------------------------------------------------


def run_workload(spec: Dict[str, Any], run: Run) -> Dict[str, Any]:
    body = (serve_workload(run) if run.workload == "serve-mixed"
            else figure_workload(run))
    failures = body["failures"] + body.get("layer_failures", [])
    if run.trace:
        # 0 where the workload has no such layer (the serve plane in a
        # figure run, and the reverse).
        values = {m["name"]: float(body["layers"].get(m["name"], 0.0))
                  for m in spec["per_layer"]}
        entries = spec["per_layer"]
    else:
        values = body["metrics"]
        entries = spec["end_to_end"]
    for entry in entries:
        name = entry["name"]
        line = f"{run.workload:13s} {name:32s} {values[name]:14.4f} {entry['unit']}"
        n = None if run.trace else body["samples"].get(name)
        if n is not None:
            detail = f"n={n}"
            if name in body["raw"]:
                raw = ", ".join(f"{v:.4f}" for v in body["raw"][name])
                detail += f", raw {raw}"
            line += f"   ({detail})"
        print(line)
    extra = f"calib {body['calib_ms']:.3f} ms"
    if "tail_ms" in body:
        n = body["samples"]["p50_ms"]
        rule = tail_percentile(n)
        extra += (f", p{TAIL_PCT:g} {body['tail_ms']:.4f} ms (not gated; "
                  f"raw {body['raw']['tail_ms'][0]:.4f}, "
                  f"{samples_beyond(n, TAIL_PCT)} of {n} beyond; tail rule "
                  + (f"gives p{rule:g})" if rule else "finds none)")
                  + f", {body['rps']:.1f} req/s raw")
    print(f"{run.workload:13s} {extra}")
    for failure in failures:
        print(f"{run.workload:13s} FAILED {failure}")
    return {
        "correct": not failures,
        "attempted": body["attempted"],
        "failed": (body.get("failed", len(body["failures"]))
                   + len(body.get("layer_failures", []))),
        "metrics": {entry["name"]: {"value": values[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in entries},
        "calib_ms": body["calib_ms"],
        "raw": body["raw"],
        "chrome": body.get("chrome", []),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path,
                        help="also write every workload's result here")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so every process the run started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "repro").is_dir() or not GOLDEN.is_dir():
        print(f"bench: program sources not found under {ROOT}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds or int(spec["run_seconds"])
    sys.path.insert(0, str(SRC))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results: Dict[str, Dict[str, Any]] = {}
    chrome: List[Dict[str, Any]] = []
    allowed = os.sched_getaffinity(0)
    for workload in workloads:
        run = Run(workload, args.seed, seconds, bool(args.trace))
        try:
            result = run_workload(spec, run)
        finally:
            os.sched_setaffinity(0, allowed)
        if result["correct"]:
            shutil.rmtree(run.dir, ignore_errors=True)
        else:
            print(f"{workload:13s} scratch kept at {run.dir}")
        chrome += [dict(e, pid=e["pid"] + 10 * WORKLOADS.index(workload))
                   for e in result.pop("chrome")]
        results[workload] = result
    if args.trace:
        write_chrome_trace(TRACE_FILE, chrome)
        print(f"spans written to {TRACE_FILE.relative_to(ROOT)} "
              f"({len(chrome)} events)")
    if args.out:
        args.out.write_text(json.dumps(results, indent=2, sort_keys=True),
                            encoding="utf-8")
    line_keys = ("correct", "attempted", "failed", "metrics")
    for workload in workloads:
        print(json.dumps({k: results[workload][k] for k in line_keys}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
