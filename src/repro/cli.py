"""Command-line interface.

Examples::

    python -m repro experiment f2          # reproduce one table/figure
    python -m repro suite --length 20000   # characterize the suite
    python -m repro simulate --workload twolf --rob 256
    python -m repro simulate --kernel branchy_search --structural
    python -m repro simulate --workload mcf --trace-out mcf.json
    python -m repro decompose --workload mcf
    python -m repro trace --workload gzip --length 50000 --out gzip.trc
    python -m repro trace-info gzip.trc
    python -m repro list
    python -m repro sweep --workload gzip --parameter rob_size \\
        --values 32,64,128,256                 # one cached point per value
    python -m repro lab run --workers 4        # parallel, store-cached
    python -m repro lab run f2 f3 --no-cache
    python -m repro lab run f2 --metrics       # merged metrics manifest
    python -m repro lab status
    python -m repro lab gc --max-age-days 30
    python -m repro serve run --shards 4     # long-lived query service
    python -m repro serve status
    python -m repro lint src/                  # AST rule pack, CI gate
    python -m repro lint src/ --format=json
    python -m repro simulate --workload mcf --sanitize
    python -m repro analyze <run-id>           # sanitizer results of a run
    python -m repro obs trace --workload gzip --out gzip-trace.json
    python -m repro obs metrics <run-id>       # merged metrics of a run
    python -m repro profile --workload mcf     # where does wall time go

Every subcommand accepts ``-q/--quiet`` to suppress progress output;
the command's actual results still print.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.frontend.base import BranchUnit
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.tournament import TournamentPredictor
from repro.interval.contributors import decompose_contributors
from repro.interval.cpi_stack import build_cpi_stack
from repro.interval.penalty import measure_penalties
from repro.memory.hierarchy import CacheHierarchy, HierarchyConfig
from repro.pipeline.annotate import StructuralAnnotator
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.trace.io import load_trace, save_trace
from repro.trace.stream import Trace
from repro.trace.synthetic import generate_trace
from repro.util.tabulate import format_table
from repro.workloads.kernels import KERNEL_BUILDERS, build_kernel
from repro.workloads.spec_profiles import ALL_PROFILES, SPEC_FP_PROFILES, SPEC_PROFILES


class Console:
    """The one output doorway for the CLI (the PRT001-exempt module).

    ``result`` lines are what the command was run for and always print;
    ``info`` lines are progress/operational chatter that ``-q/--quiet``
    suppresses.
    """

    def __init__(self, quiet: bool = False) -> None:
        self.quiet = quiet

    def result(self, text: str = "") -> None:
        print(text)

    def info(self, text: str = "", flush: bool = False) -> None:
        if not self.quiet:
            print(text, flush=flush)


def _console(args: argparse.Namespace) -> Console:
    console = getattr(args, "console", None)
    if console is None:
        console = Console(quiet=bool(getattr(args, "quiet", False)))
    return console


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=int, default=4,
                        help="dispatch/issue/commit width (default 4)")
    parser.add_argument("--rob", type=int, default=128,
                        help="ROB / window size (default 128)")
    parser.add_argument("--frontend-depth", type=int, default=5,
                        help="frontend pipeline depth in cycles (default 5)")
    parser.add_argument("--memory-latency", type=int, default=250,
                        help="long-miss latency in cycles (default 250)")


def _config_from(args: argparse.Namespace) -> CoreConfig:
    return CoreConfig(
        dispatch_width=args.width,
        issue_width=args.width,
        commit_width=args.width,
        rob_size=args.rob,
        frontend_depth=args.frontend_depth,
        memory_latency=args.memory_latency,
    )


def _trace_from(args: argparse.Namespace) -> Trace:
    chosen = [
        bool(getattr(args, "workload", None)),
        bool(getattr(args, "kernel", None)),
        bool(getattr(args, "trace", None)),
    ]
    if sum(chosen) != 1:
        raise SystemExit(
            "choose exactly one of --workload, --kernel, --trace"
        )
    if args.workload:
        if args.workload not in ALL_PROFILES:
            raise SystemExit(
                f"unknown workload {args.workload!r}; "
                f"see `python -m repro list`"
            )
        return generate_trace(
            ALL_PROFILES[args.workload], args.length, seed=args.seed
        )
    if args.kernel:
        if args.kernel not in KERNEL_BUILDERS:
            raise SystemExit(
                f"unknown kernel {args.kernel!r}; see `python -m repro list`"
            )
        return build_kernel(args.kernel).run()
    return _read_trace(args.trace)


def _read_trace(path: str) -> Trace:
    try:
        return load_trace(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read trace {path}: {exc}")


def _trace_label(args: argparse.Namespace) -> str:
    for attr in ("workload", "kernel", "trace"):
        value = getattr(args, attr, None)
        if value:
            return f"repro-sim:{value}"
    return "repro-sim"


def _export_trace(args: argparse.Namespace, console: Console) -> None:
    """Drain the ambient tracer into the files ``args`` asked for."""
    from repro.obs import runtime as obs_runtime
    from repro.obs.export import write_chrome_trace, write_jsonl
    from repro.obs.tracer import SPAN_KINDS, RecordingTracer

    tracer = obs_runtime.drain_trace()
    if tracer is None:
        tracer = RecordingTracer()  # an empty run still exports validly
    counts = tracer.counts()
    summary = "  ".join(
        f"{kind}={counts.get(kind, 0)}" for kind in SPAN_KINDS
    )
    console.info(
        f"trace spans: {summary}  instants={len(tracer.instants)}"
    )
    out = getattr(args, "trace_out", None)
    if out:
        written = write_chrome_trace(tracer, out, label=_trace_label(args))
        console.info(
            f"wrote {written} Chrome trace events to {out} "
            "(load in Perfetto or chrome://tracing)"
        )
    jsonl = getattr(args, "trace_jsonl", None)
    if jsonl:
        lines = write_jsonl(tracer, jsonl)
        console.info(f"wrote {lines} JSONL records to {jsonl}")


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.harness.experiments import run_experiment

    console = _console(args)
    try:
        result = run_experiment(args.experiment_id)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.markdown:
        console.result(result.render_markdown())
    else:
        console.result(result.render())
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    console = _console(args)
    config = _config_from(args)
    rows = []
    for name, profile in SPEC_PROFILES.items():
        trace = generate_trace(profile, args.length, seed=args.seed)
        result = simulate(trace, config)
        report = measure_penalties(result)
        rows.append(
            [
                name,
                result.ipc,
                1000.0 * report.count / result.instructions,
                report.mean_resolution,
                report.mean_penalty,
                report.penalty_over_refill,
            ]
        )
    console.result(
        format_table(
            ["workload", "IPC", "mispred/ki", "resolution", "penalty",
             "penalty/frontend"],
            rows,
            float_fmt=".2f",
            title=f"suite @ width={config.dispatch_width} rob="
            f"{config.rob_size} frontend={config.frontend_depth}",
        )
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    console = _console(args)
    config = _config_from(args)
    trace = _trace_from(args)
    if args.sanitize:
        from repro.analysis import sanitizer

        sanitizer.enable()
    tracing = bool(args.trace_out or args.trace_jsonl)
    if tracing:
        from repro.obs import runtime as obs_runtime

        obs_runtime.enable_tracing()
    annotator = None
    if args.structural:
        annotator = StructuralAnnotator(
            BranchUnit(direction=TournamentPredictor(),
                       btb=BranchTargetBuffer()),
            CacheHierarchy(HierarchyConfig(
                memory_latency=config.memory_latency)),
        )
    if args.inorder:
        from repro.pipeline.inorder import simulate_inorder

        result = simulate_inorder(trace, config, annotator=annotator)
    else:
        result = simulate(trace, config, annotator=annotator)
    report = measure_penalties(result)
    stack = build_cpi_stack(result, config.dispatch_width)
    console.result(f"instructions      : {result.instructions}")
    console.result(f"cycles            : {result.cycles}")
    console.result(f"IPC               : {result.ipc:.3f}")
    console.result(f"mispredictions    : {report.count}")
    console.result(f"I-cache misses    : {len(result.icache_events)}")
    console.result(f"long D-misses     : {len(result.long_dmiss_events)}")
    if report.count:
        console.result(
            f"mean resolution   : {report.mean_resolution:.1f} cycles")
        console.result(
            f"mean penalty      : {report.mean_penalty:.1f} cycles "
            f"({report.penalty_over_refill:.1f}x frontend)")
    console.result(
        "CPI stack         : "
        + "  ".join(f"{k}={v:.3f}" for k, v in stack.component_cpi().items()))
    if tracing:
        from repro.obs import runtime as obs_runtime

        _export_trace(args, console)
        obs_runtime.reset()
    if args.sanitize:
        from repro.analysis import sanitizer

        san_report = sanitizer.drain_report()
        if san_report is not None:
            console.result(san_report.render())
            if not san_report.ok:
                return 1
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    console = _console(args)
    config = _config_from(args)
    trace = _trace_from(args)
    result = simulate(trace, config)
    breakdown = decompose_contributors(
        trace, result, config, max_events=args.max_events
    )
    if not breakdown.count:
        console.result("no mispredictions to decompose")
        return 0
    console.result(f"mispredictions sliced: {breakdown.count}")
    for name, value in breakdown.rows():
        console.result(f"  {name:<45} {value:8.2f}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    console = _console(args)
    if args.workload not in ALL_PROFILES:
        raise SystemExit(f"unknown workload {args.workload!r}")
    trace = generate_trace(
        ALL_PROFILES[args.workload], args.length, seed=args.seed
    )
    save_trace(trace, args.out)
    console.info(f"wrote {len(trace)} records to {args.out}")
    return 0


def cmd_trace_info(args: argparse.Namespace) -> int:
    console = _console(args)
    trace = _read_trace(args.trace_file)
    stats = trace.statistics()
    console.result(f"name                : {trace.name}")
    console.result(f"instructions        : {stats.instruction_count}")
    console.result(
        "mix                 : "
        + "  ".join(f"{k}={v:.3f}" for k, v in sorted(stats.mix.items())))
    console.result(f"branches            : {stats.branch_count} "
                   f"(taken {stats.taken_fraction:.2f})")
    console.result(
        f"mispredictions/ki   : {stats.mispredictions_per_ki:.2f}")
    console.result(f"IL1 misses/ki       : {stats.il1_misses_per_ki:.2f}")
    console.result(f"DL1/DL2 miss rates  : {stats.dl1_miss_rate:.3f} / "
                   f"{stats.dl2_miss_rate:.3f}")
    console.result(
        f"mean dep distance   : {stats.mean_dependence_distance:.2f}")
    console.result(f"dataflow IPC        : {trace.dataflow_ipc():.2f}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run experiments and write a consolidated markdown report."""
    from repro.harness.experiments import EXPERIMENTS, run_experiment

    console = _console(args)
    ids = args.experiments or list(EXPERIMENTS)
    sections = [
        "# Reproduction report",
        "",
        "Generated by `repro report`. One section per experiment; see",
        "EXPERIMENTS.md for the paper-vs-measured interpretation.",
        "",
    ]
    for experiment_id in ids:
        console.info(f"running {experiment_id} ...", flush=True)
        result = run_experiment(experiment_id)
        sections.append(result.render_markdown())
        sections.append("")
    text = "\n".join(sections)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        console.info(f"wrote {args.out}")
    else:
        console.result(text)
    return 0


def cmd_lab_run(args: argparse.Namespace) -> int:
    """Run experiments through the lab pool + persistent store."""
    from repro.harness.experiments import EXPERIMENTS
    from repro.lab import run_experiments

    console = _console(args)
    ids = args.experiments or list(EXPERIMENTS)
    unknown = [i for i in ids if i.lower() not in EXPERIMENTS]
    if unknown:
        raise SystemExit(
            f"unknown experiment(s) {unknown}; see `python -m repro list`"
        )
    if args.sanitize:
        # Exported to the environment so pool workers inherit it.
        from repro.analysis import sanitizer

        sanitizer.enable()
    if args.faults:
        from repro.resilience import faults

        faults.enable(args.faults)  # exported so workers inherit it
    watchdog_policy = None
    if args.hang_s is not None:
        from repro.resilience.supervisor import WatchdogPolicy

        watchdog_policy = WatchdogPolicy(hang_s=args.hang_s)
    run_id = args.resume or args.run_id
    results, telemetry = run_experiments(
        ids,
        workers=args.workers,
        store_root=args.cache_dir,
        use_cache=not args.no_cache,
        timeout_s=args.timeout,
        retries=args.retries,
        collect_metrics=args.metrics or args.trace,
        trace=args.trace,
        run_id=run_id,
        resume=bool(args.resume),
        watchdog_policy=watchdog_policy,
    )
    for experiment_id, result in zip(ids, results):
        if result is None:
            console.result(
                f"== {experiment_id.upper()}: FAILED (see manifest) ==")
        elif args.markdown:
            console.result(result.render_markdown())
        else:
            console.result(result.render())
        console.result()
    console.info(telemetry.summary())
    if telemetry.with_metrics:
        console.info(
            f"metrics: {telemetry.with_metrics} job snapshot(s) merged; "
            f"view with `repro obs metrics {telemetry.run_id}`"
        )
    for failure in telemetry.failures():
        last_line = (failure.error or "").strip().splitlines()
        console.result(
            f"  FAILED {failure.label}: "
            f"{last_line[-1] if last_line else '?'}")
    for record in telemetry.records:
        if record.sanitizer_violations:
            for violation in record.sanitizer["violations"]:
                console.result(
                    f"  SANITIZER {record.label}: {violation['check']}: "
                    f"{violation['message']}")
    if telemetry.interrupted:
        console.info(
            f"interrupted; resume with "
            f"`repro lab run --resume {telemetry.run_id}`"
        )
        return 130
    return 1 if telemetry.failed or telemetry.sanitizer_violations else 0


def cmd_lab_status(args: argparse.Namespace) -> int:
    """Describe the persistent result store and recent runs."""
    import json

    from repro.lab import ResultStore

    console = _console(args)
    store = ResultStore(root=args.cache_dir) if args.cache_dir else ResultStore()
    info = store.describe()
    console.result(f"store root : {info['root']}")
    console.result(f"objects    : {info['objects']} "
                   f"({info['size_bytes'] / 1e6:.2f} MB)")
    console.result(f"manifests  : {info['manifests']}")
    console.result(f"code salt  : {info['salt']}")
    for path in store.manifests()[: args.limit]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        counters = manifest.get("counters", {})
        console.result(
            f"  run {manifest.get('run_id')}: "
            f"{counters.get('total', 0)} jobs, "
            f"{counters.get('cached', 0)} cached, "
            f"{counters.get('failed', 0)} failed, "
            f"{manifest.get('elapsed_s', 0.0):.2f}s, "
            f"workers={manifest.get('workers')}"
        )
    return 0


def cmd_lab_fsck(args: argparse.Namespace) -> int:
    """Scan the store for corruption; quarantine/clean with --repair."""
    import json

    from repro.lab import ResultStore
    from repro.resilience.fsck import fsck_store

    console = _console(args)
    store = ResultStore(root=args.cache_dir) if args.cache_dir else ResultStore()
    report = fsck_store(store, repair=args.repair)
    if args.format == "json":
        text = json.dumps(report.as_payload(), indent=1, sort_keys=True)
    else:
        text = report.render()
    if args.output:
        from repro.resilience.atomic import atomic_write_text

        atomic_write_text(args.output, text + "\n")
        console.info(f"wrote {args.output}")
    else:
        console.result(text)
    if report.ok:
        return 0
    console.info(
        f"{report.unrepaired} unrepaired issue(s); "
        "re-run with --repair to quarantine damaged objects"
    )
    return 1


def cmd_lab_gc(args: argparse.Namespace) -> int:
    """Evict stored results by age/count, or clear the store."""
    from repro.lab import ResultStore

    console = _console(args)
    store = ResultStore(root=args.cache_dir) if args.cache_dir else ResultStore()
    max_age_s = args.max_age_days * 86_400.0 if args.max_age_days else None
    removed = store.gc(
        max_entries=args.max_entries, max_age_s=max_age_s, clear=args.all
    )
    console.result(f"removed {removed} object(s); {store.count()} remain")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the whole-program analysis; exit 1 on findings/parse errors."""
    import json as _json
    from pathlib import Path

    from repro.analysis.engine import rule_catalogue
    from repro.analysis.program import (
        AnalysisCache,
        _NullCache,
        analyze_paths,
        apply_baseline,
        changed_files,
        load_baseline,
        to_sarif,
        write_baseline,
    )
    from repro.resilience.atomic import atomic_write_text

    console = _console(args)
    if args.list_rules:
        for row in rule_catalogue():
            console.result(f"{row['id']} ({row['name']}; scope: {row['scope']})")
            console.result(f"    {row['description']}")
        return 0

    if args.changed is not None:
        paths = changed_files(args.changed or None)
        if not paths:
            console.result("no changed python files; nothing to lint")
            return 0
    else:
        paths = args.paths or ["src"]

    if args.no_cache:
        cache = _NullCache()
    elif args.cache_dir:
        cache = AnalysisCache(root=Path(args.cache_dir) / "analysis")
    else:
        cache = AnalysisCache()
    rule_filter = (
        {name.strip() for name in args.rules.split(",") if name.strip()}
        if args.rules else None
    )
    report = analyze_paths(
        paths,
        cache=cache,
        rule_filter=rule_filter,
    )

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        count = write_baseline(baseline_path, report)
        console.result(
            f"baseline updated: {count} finding(s) recorded in "
            f"{baseline_path}"
        )
        return 0
    baseline = load_baseline(baseline_path)
    if baseline is not None:
        report = apply_baseline(report, baseline)

    if args.sarif:
        document = to_sarif(report, rule_catalogue())
        atomic_write_text(
            args.sarif,
            _json.dumps(document, indent=1, sort_keys=True) + "\n",
            fsync=False,
        )
        console.info(f"wrote SARIF to {args.sarif}")

    text = (
        report.render_json() if args.format == "json"
        else report.render_human()
    )
    if args.output:
        atomic_write_text(args.output, text + "\n", fsync=False)
        console.info(f"wrote {args.output}")
    else:
        console.result(text)
    return 0 if report.ok else 1


def _find_manifest(run: str, cache_dir: Optional[str]) -> str:
    """Resolve a run id (or prefix), 'latest', or a path to a manifest."""
    from repro.lab import ResultStore

    if run.endswith(".json"):
        return run
    store = ResultStore(root=cache_dir) if cache_dir else ResultStore()
    matches = [
        p for p in store.manifests()
        if p.name.startswith(run) or run == "latest"
    ]
    if not matches:
        raise SystemExit(
            f"no run manifest matching {run!r} under {store.runs_dir}"
        )
    return str(matches[0])


def _load_manifest(path: str) -> dict:
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read manifest {path}: {exc}")


def cmd_analyze(args: argparse.Namespace) -> int:
    """Show a lab run's sanitizer results from its manifest."""
    console = _console(args)
    manifest = _load_manifest(_find_manifest(args.run, args.cache_dir))
    counters = manifest.get("counters", {})
    console.result(f"run        : {manifest.get('run_id')}")
    console.result(
        f"jobs       : {counters.get('total', 0)} "
        f"({counters.get('ok', 0)} ran, {counters.get('cached', 0)} cached, "
        f"{counters.get('failed', 0)} failed)")
    console.result(
        f"sanitized  : {counters.get('sanitized', 0)} job(s), "
        f"{counters.get('sanitizer_violations', 0)} violation(s)")
    violations = 0
    for job in manifest.get("jobs", []):
        sanitizer = job.get("sanitizer")
        if sanitizer is None:
            continue
        status = "clean" if sanitizer.get("ok") else "VIOLATIONS"
        console.result(
            f"  {job.get('label')}: {status} "
            f"({sanitizer.get('checks_run', 0)} checks, "
            f"{sanitizer.get('runs', 0)} runs)")
        for violation in sanitizer.get("violations", []):
            violations += 1
            where = []
            if violation.get("cycle") is not None:
                where.append(f"cycle {violation['cycle']}")
            if violation.get("seq") is not None:
                where.append(f"seq {violation['seq']}")
            suffix = f" [{', '.join(where)}]" if where else ""
            console.result(
                f"    {violation['check']}: {violation['message']}{suffix}")
    if counters.get("sanitized", 0) == 0:
        console.info(
            "(no sanitizer data; run with --sanitize or REPRO_SANITIZE=1)")
    return 1 if violations else 0


def cmd_obs_trace(args: argparse.Namespace) -> int:
    """Simulate with tracing on and export the penalty timeline."""
    from repro.obs import runtime as obs_runtime

    console = _console(args)
    config = _config_from(args)
    trace = _trace_from(args)
    obs_runtime.enable_tracing()
    if args.inorder:
        from repro.pipeline.inorder import simulate_inorder

        result = simulate_inorder(trace, config)
    else:
        result = simulate(trace, config)
    # Segmentation emits the interval-boundary instants.
    measure_penalties(result)
    _export_trace(args, console)
    obs_runtime.reset()
    console.result(
        f"{result.instructions} instructions, {result.cycles} cycles, "
        f"{len(result.mispredict_events)} mispredict span(s)"
    )
    return 0


def cmd_obs_metrics(args: argparse.Namespace) -> int:
    """Render a lab run's merged metrics snapshot from its manifest."""
    from repro.obs.metrics import render_snapshot

    console = _console(args)
    manifest = _load_manifest(_find_manifest(args.run, args.cache_dir))
    snapshot = manifest.get("metrics")
    if not snapshot:
        console.result(
            f"run {manifest.get('run_id')}: no metrics recorded "
            "(run with `lab run --metrics` on a cold cache)"
        )
        return 1
    console.info(f"run {manifest.get('run_id')}: merged metrics from "
                 f"{manifest.get('counters', {}).get('with_metrics', 0)} "
                 "job(s)")
    console.result(render_snapshot(snapshot).rstrip("\n"))
    return 0


def cmd_obs_flame(args: argparse.Namespace) -> int:
    """Fold a span export into collapsed flame-graph stacks."""
    import json as _json

    from repro.obs.spans import collapse_stacks, span_from_dict

    console = _console(args)
    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            payload = _json.load(handle)
    except (OSError, _json.JSONDecodeError) as exc:
        console.result(f"cannot read {args.trace}: {exc}")
        return 1
    # Accept a bare span list, a {"spans": [...]} envelope (serve
    # manifests and `trace` op responses), or a `trace` op response
    # still wrapped in its protocol frame.
    if isinstance(payload, dict) and isinstance(payload.get("result"), dict):
        payload = payload["result"]
    records = payload.get("spans") if isinstance(payload, dict) else payload
    if not isinstance(records, list):
        console.result(f"{args.trace}: no span list found")
        return 1
    spans = []
    for record in records:
        if isinstance(record, dict) and "span_id" in record:
            # Round-trip through SpanRecord: malformed records fail
            # loudly here instead of producing a nonsense fold.
            spans.append(span_from_dict(record).as_dict())
    if args.trace_id:
        spans = [s for s in spans if s["trace_id"] == args.trace_id]
    lines = collapse_stacks(spans)
    if not lines:
        console.result("(no closed spans to fold)")
        return 1
    for line in lines:
        console.result(line)
    return 0


def _seconds(ns: int) -> str:
    """Integer nanoseconds as exact decimal seconds."""
    return f"{ns // 1_000_000_000}.{ns % 1_000_000_000:09d}"


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one simulate+analyze pass and fold its spans into stages.

    Each stage is a child span of one root span; the rows are the
    collapsed-stack fold :func:`repro.obs.spans.collapse_stacks` (the
    fold ``repro obs flame`` prints), with the root's self time as its
    own row, so they sum exactly to the root's duration in integer ns.
    """
    from contextlib import contextmanager

    from repro.obs.spans import SpanCollector, collapse_stacks

    console = _console(args)
    config = _config_from(args)
    spans = SpanCollector(process="cli")
    root = spans.start(
        "cli.profile", trace_id=spans.new_trace_id(), parent_id=None
    )

    @contextmanager
    def stage(name: str):
        span = spans.start(name, trace_id=root.trace_id, parent_id=root.span_id)
        try:
            yield
        finally:
            spans.finish(span)

    with stage("cli.trace_gen"):
        trace = _trace_from(args)
    with stage("cli.simulate"):
        if args.inorder:
            from repro.pipeline.inorder import simulate_inorder

            result = simulate_inorder(trace, config)
        else:
            result = simulate(trace, config)
    with stage("cli.analyze"):
        measure_penalties(result)
        build_cpi_stack(result, config.dispatch_width)
    if args.fast:
        from repro.interval.model import IntervalModel

        with stage("fast_sim.estimate"):
            IntervalModel(config).estimate(trace)
    spans.finish(root)

    rows = []
    for line in collapse_stacks(spans.drain()):
        path, ns = line.rsplit(" ", 1)
        rows.append((path.rsplit(";", 1)[-1], int(ns)))
    rows.sort(key=lambda row: (-row[1], row[0]))
    total = root.duration_ns
    table = [(name, _seconds(ns), f"{ns / total:.1%}") for name, ns in rows]
    table.append(("total", _seconds(total), "100.0%"))
    console.result(format_table(("stage", "seconds", "share"), table))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the throughput benchmarks; optionally gate on a baseline."""
    from repro.perf import bench

    console = _console(args)
    console.info(
        "running benchmarks "
        f"({'quick' if args.quick else 'full'}; this takes a while) ...",
        flush=True,
    )
    payload = bench.run_benchmarks(quick=args.quick, repeats=args.repeats)
    console.result(bench.render(payload))
    if args.out:
        bench.write_payload(payload, args.out)
        console.info(f"wrote {args.out}")
    if args.compare:
        try:
            baseline = bench.load_baseline(args.compare)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read baseline {args.compare}: {exc}")
        threshold = (
            args.threshold
            if args.threshold is not None
            else bench.REGRESSION_THRESHOLD
        )
        problems = bench.compare(payload, baseline, threshold=threshold)
        if problems:
            console.result("REGRESSIONS vs " + args.compare + ":")
            for problem in problems:
                console.result(f"  {problem}")
            return 1
        console.result(f"no regressions vs {args.compare}")
    return 0


def _sweep_value(text: str):
    """A sweep value from its CLI spelling (int, then float, then str)."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def cmd_sweep(args: argparse.Namespace) -> int:
    """One-dimensional CoreConfig sweep through the lab pool.

    Each value is one :class:`~repro.lab.jobs.SimJob` point with its own
    ``sim-ooo`` store entry: the entry the harness reads and writes for
    the same workload, length, seed and config.
    """
    from repro.lab.jobs import SweepJob
    from repro.lab.pool import run_jobs

    console = _console(args)
    if args.workload not in ALL_PROFILES:
        raise SystemExit(
            f"unknown workload {args.workload!r}; see `python -m repro list`"
        )
    values = [
        _sweep_value(part.strip())
        for part in args.values.split(",")
        if part.strip()
    ]
    if not values:
        raise SystemExit("--values needs at least one value")
    sweep = SweepJob(
        parameter=args.parameter,
        values=values,
        workload=args.workload,
        length=args.length,
        seed=args.seed,
        base_config=_config_from(args),
    )
    try:
        jobs = sweep.expand()
    except (TypeError, ValueError) as exc:
        raise SystemExit(str(exc))
    results, telemetry = run_jobs(
        jobs,
        workers=args.workers,
        store_root=args.cache_dir,
        use_cache=not args.no_cache,
    )
    rows = []
    exit_code = 0
    for spec, value, outcome in zip(jobs, values, results):
        if not outcome.ok:
            exit_code = 1
            last = (outcome.error or "").strip().splitlines()
            console.result(
                f"  FAILED {outcome.label}: {last[-1] if last else '?'}"
            )
            continue
        result = spec.decode(outcome.payload)
        rows.append(
            [
                value,
                result.ipc,
                result.cycles,
                len(result.events),
                result.rob_peak_occupancy,
            ]
        )
    if rows:
        console.result(
            format_table(
                [args.parameter, "IPC", "cycles", "events", "rob_peak"],
                rows,
                float_fmt=".3f",
                title=(
                    f"sweep {args.workload} {args.parameter} "
                    f"({len(values)} point(s))"
                ),
            )
        )
    console.info(telemetry.summary())
    return exit_code


def cmd_serve_run(args: argparse.Namespace) -> int:
    """Start the sharded async experiment service (foreground)."""
    import asyncio

    import dataclasses

    from repro.serve.admission import AdmissionPolicy
    from repro.serve.service import ExperimentService, ServeServer

    console = _console(args)
    if args.faults:
        from repro.resilience import faults

        faults.enable(args.faults)  # exported so shard workers inherit
    policy = AdmissionPolicy()
    overrides = {
        name: value
        for name, value in (
            ("max_depth", args.max_depth),
            ("max_bytes", args.max_bytes),
        )
        if value is not None
    }
    if overrides:
        policy = dataclasses.replace(policy, **overrides)
    service = ExperimentService(
        store_root=args.cache_dir,
        n_shards=args.shards,
        tier0_items=args.tier0_items,
        tier0_bytes=args.tier0_bytes,
        use_cache=not args.no_cache,
        trace_requests=True if args.trace else None,
        shard_workers=args.workers,
        admission_policy=policy,
    )
    server = ServeServer(service, host=args.host, port=args.port)

    async def _serve() -> None:
        await server.start()
        console.info(
            f"serve {service.service_id}: listening on "
            f"{server.host}:{server.port} with {len(service.shards)} "
            f"shard(s); store {service.store.root}"
        )
        console.info("stop with Ctrl-C or the 'shutdown' op")
        await server.serve_until_shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        console.info("interrupted; shutting down")
    manifest = service.store.runs_dir / f"{service.service_id}.serve.json"
    console.info(f"metrics manifest: {manifest}")
    return 0


def cmd_serve_status(args: argparse.Namespace) -> int:
    """Query a running service's counters, cache tiers, and shards."""
    from repro.lab import ResultStore
    from repro.obs.metrics import render_snapshot
    from repro.serve.client import ServeClient, ServeClientError

    console = _console(args)
    store = ResultStore(root=args.cache_dir) if args.cache_dir else ResultStore()
    try:
        client = ServeClient.from_store(store.root, timeout_s=args.timeout)
        with client:
            response = client.status()
    except ServeClientError as exc:
        console.result(str(exc))
        return 1
    if not response.get("ok"):
        console.result(f"status failed: {response.get('error')}")
        return 1
    status = response["result"]
    console.result(f"service    : {status['service_id']} "
                   f"(pid {status['pid']}, v{status['version']})")
    console.result(f"uptime     : {status['uptime_s']:.1f}s")
    console.result(f"store root : {status['store_root']}")
    console.result(f"inflight   : {status['inflight']}")
    brownout = status.get("brownout", {})
    admission = status.get("admission", {})
    if brownout or admission:
        console.result(
            f"overload   : brownout={brownout.get('label', 'normal')} "
            f"sheds={admission.get('sheds', 0)} "
            f"(depth<={admission.get('max_depth')}, "
            f"bytes<={admission.get('max_bytes')})"
        )
    for shard in status["shards"]:
        console.result(
            f"  shard {shard['index']}: {shard['submitted']} submitted, "
            f"{shard['pending']} pending, {shard['restarts']} restart(s), "
            f"workers {shard['worker_pids']}"
        )
    for tier in status["tiers"]:
        stats = status["cache"].get(tier, {})
        hits = stats.get("hits", 0)
        misses = stats.get("misses", 0)
        console.result(f"  cache {tier}: {hits} hit(s), {misses} miss(es)")
    console.result(render_snapshot(status["metrics"]).rstrip("\n"))
    return 0


def cmd_serve_top(args: argparse.Namespace) -> int:
    """Live dashboard over the service's `stats` op (pure memory)."""
    import time as _time

    from repro.lab import ResultStore
    from repro.serve.client import ServeClient, ServeClientError

    console = _console(args)
    store = ResultStore(root=args.cache_dir) if args.cache_dir else ResultStore()
    iteration = 0
    try:
        client = ServeClient.from_store(store.root, timeout_s=args.timeout)
    except ServeClientError as exc:
        console.result(str(exc))
        return 1
    with client:
        while True:
            try:
                response = client.stats()
            except ServeClientError as exc:
                console.result(str(exc))
                return 1
            if not response.get("ok"):
                console.result(f"stats failed: {response.get('error')}")
                return 1
            stats = response["result"]
            console.result(_render_serve_top(stats))
            iteration += 1
            if args.iterations is not None and iteration >= args.iterations:
                return 0
            _time.sleep(args.interval)


def _render_serve_top(stats: dict) -> str:
    """One refresh of the `serve top` dashboard as a text block."""
    lines = [
        f"serve {stats['service_id']}  up {stats['uptime_s']:.1f}s  "
        f"tracing={'on' if stats.get('tracing') else 'off'}  "
        f"inflight={stats['inflight']}  "
        f"spans={stats.get('spans_buffered', 0)}"
    ]
    brownout = stats.get("brownout", {})
    admission = stats.get("admission", {})
    counters = stats.get("counters", {})
    if brownout or admission:
        lines.append(
            f"  overload: brownout={brownout.get('label', 'normal')} "
            f"sheds={counters.get('serve.overload_sheds_total', 0)} "
            f"(sweeps {counters.get('serve.overload_shed_sweeps_total', 0)}) "
            f"transitions="
            f"{counters.get('serve.overload_transitions_total', 0)} "
            f"deadline_expired="
            f"{counters.get('serve.deadline_expired_total', 0)} "
            f"deadline_dropped="
            f"{counters.get('serve.deadline_dropped_total', 0)}"
        )
    for shard in stats.get("shards", []):
        lines.append(
            f"  shard {shard['index']}: depth={shard['queue_depth']} "
            f"submitted={shard['submitted']} restarts={shard['restarts']}"
        )
    gauges = stats.get("gauges", {})
    lines.append(
        "  gauges: "
        + " ".join(f"{name}={value:g}" for name, value in sorted(gauges.items()))
        if gauges
        else "  gauges: (none)"
    )
    quantiles = stats.get("latency_quantiles_ms", {})
    for name in sorted(quantiles):
        qs = quantiles[name]
        rendered = " ".join(
            f"{label}={qs[label]:.3f}ms"
            for label in ("p50", "p95", "p99")
            if qs.get(label) is not None
        )
        lines.append(f"  {name}: {rendered}")
    samples = stats.get("samples", [])
    if samples:
        recent = samples[-10:]
        depths = " ".join(str(s["queue_depth"]) for s in recent)
        lines.append(f"  queue depth (last {len(recent)}): {depths}")
    return "\n".join(lines)


def cmd_list(args: argparse.Namespace) -> int:
    from repro.harness.experiments import EXPERIMENTS

    console = _console(args)
    console.result("workloads :" + "  ".join(["", *SPEC_PROFILES]))
    console.result("fp workloads:" + "  ".join(["", *SPEC_FP_PROFILES]))
    console.result("kernels   :" + "  ".join(["", *KERNEL_BUILDERS]))
    console.result("experiments:" + "  ".join(["", *EXPERIMENTS]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Characterizing the branch misprediction penalty "
        "(ISPASS 2006) — reproduction toolkit",
    )
    # Shared by every subcommand so `repro <cmd> -q` works uniformly.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress output (results still print)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("experiment", parents=[common],
                       help="run one table/figure experiment")
    p.add_argument("experiment_id", help="t1-t3, f1-f16")
    p.add_argument("--markdown", action="store_true")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("suite", parents=[common],
                       help="characterize the SPEC-like suite")
    p.add_argument("--length", type=int, default=40_000)
    p.add_argument("--seed", type=int, default=2006)
    _add_config_flags(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("simulate", parents=[common],
                       help="simulate one trace")
    p.add_argument("--workload", help="SPEC-like workload name")
    p.add_argument("--kernel", help="microbenchmark kernel name")
    p.add_argument("--trace", help="trace file path")
    p.add_argument("--length", type=int, default=40_000)
    p.add_argument("--seed", type=int, default=2006)
    p.add_argument("--structural", action="store_true",
                   help="use real predictor/cache substrates")
    p.add_argument("--inorder", action="store_true",
                   help="use the scoreboarded in-order core")
    p.add_argument("--sanitize", action="store_true",
                   help="run cycle-level invariant checks and report them")
    p.add_argument("--trace-out",
                   help="record per-miss spans; write Chrome trace JSON "
                   "here (Perfetto-loadable)")
    p.add_argument("--trace-jsonl",
                   help="record per-miss spans; write JSONL here")
    _add_config_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose", parents=[common],
                       help="five-contributor penalty decomposition")
    p.add_argument("--workload")
    p.add_argument("--kernel")
    p.add_argument("--trace")
    p.add_argument("--length", type=int, default=40_000)
    p.add_argument("--seed", type=int, default=2006)
    p.add_argument("--max-events", type=int, default=150)
    _add_config_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("trace", parents=[common],
                       help="generate and save a synthetic trace")
    p.add_argument("--workload", required=True)
    p.add_argument("--length", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=2006)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("trace-info", parents=[common],
                       help="describe a saved trace")
    p.add_argument("trace_file")
    p.set_defaults(func=cmd_trace_info)

    p = sub.add_parser("report", parents=[common],
                       help="run experiments, write a markdown report")
    p.add_argument("experiments", nargs="*",
                   help="experiment ids (default: all)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "lint", parents=[common],
        help="run the whole-program analysis pass (per-file rule pack + "
        "interprocedural race/reachability/taint rules; CI gates on a "
        "clean src/)",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: src)")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("--sarif", metavar="PATH",
                   help="also write a SARIF 2.1.0 report to PATH")
    p.add_argument("--baseline", default="lint-baseline.json",
                   help="baseline file for gating (applied when present; "
                   "default: lint-baseline.json)")
    p.add_argument("--update-baseline", action="store_true",
                   help="record current findings as the baseline and exit 0")
    p.add_argument("--changed", nargs="?", const="", metavar="BASE",
                   help="lint only git-changed python files (vs BASE, or "
                   "the working tree + index by default)")
    p.add_argument("--rules", metavar="IDS",
                   help="comma-separated rule ids to report (others still "
                   "run and stay cached)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the content-addressed analysis cache")
    p.add_argument("--cache-dir",
                   help="store root for the analysis cache (default: "
                   ".repro-cache or $REPRO_CACHE_DIR)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "analyze", parents=[common],
        help="show a lab run's sanitizer results from its manifest",
    )
    p.add_argument("run",
                   help="run id (or prefix), 'latest', or a manifest path")
    p.add_argument("--cache-dir",
                   help="store root (default: .repro-cache or "
                   "$REPRO_CACHE_DIR)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("list", parents=[common],
                       help="list workloads, kernels, experiments")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser(
        "profile", parents=[common],
        help="phase-timer report: where the wall time of one "
        "simulate+analyze pass goes",
    )
    p.add_argument("--workload", help="SPEC-like workload name")
    p.add_argument("--kernel", help="microbenchmark kernel name")
    p.add_argument("--trace", help="trace file path")
    p.add_argument("--length", type=int, default=40_000)
    p.add_argument("--seed", type=int, default=2006)
    p.add_argument("--inorder", action="store_true",
                   help="profile the in-order core instead")
    p.add_argument("--fast", action="store_true",
                   help="also run (and time) the fast interval simulator")
    _add_config_flags(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "bench", parents=[common],
        help="simulator throughput benchmarks with a machine-normalized "
        "regression gate (BENCH_simulator.json)",
    )
    p.add_argument("--quick", action="store_true",
                   help="shorter trace and fewer repeats (CI mode)")
    p.add_argument("--repeats", type=int, default=None,
                   help="best-of-N timing repeats (default 3, quick 2)")
    p.add_argument("--out", help="write the JSON payload here")
    p.add_argument("--compare",
                   help="baseline JSON to compare against; exit 1 on "
                   "regression")
    p.add_argument("--threshold", type=float, default=None,
                   help="regression threshold as a fraction (default 0.15)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "sweep", parents=[common],
        help="one-dimensional CoreConfig sweep through the lab pool",
    )
    p.add_argument("--workload", required=True,
                   help="SPEC-like workload name")
    p.add_argument("--parameter", required=True,
                   help="CoreConfig field to sweep (e.g. rob_size)")
    p.add_argument("--values", required=True,
                   help="comma-separated values for the swept field")
    p.add_argument("--length", type=int, default=40_000)
    p.add_argument("--seed", type=int, default=2006)
    p.add_argument("--workers", type=int, default=None,
                   help="pool worker processes (default: all cores; "
                   "1 = serial)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the persistent result store")
    p.add_argument("--cache-dir",
                   help="store root (default: .repro-cache or "
                   "$REPRO_CACHE_DIR)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "obs",
        help="observability: penalty timelines and metrics snapshots",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser(
        "trace", parents=[common],
        help="simulate with tracing on; export a Perfetto timeline",
    )
    q.add_argument("--workload", help="SPEC-like workload name")
    q.add_argument("--kernel", help="microbenchmark kernel name")
    q.add_argument("--trace", help="trace file path")
    q.add_argument("--length", type=int, default=40_000)
    q.add_argument("--seed", type=int, default=2006)
    q.add_argument("--inorder", action="store_true",
                   help="trace the scoreboarded in-order core")
    q.add_argument("--out", dest="trace_out", default="trace.json",
                   help="Chrome trace JSON path (default trace.json)")
    q.add_argument("--jsonl", dest="trace_jsonl",
                   help="also write the compact JSONL export here")
    _add_config_flags(q)
    q.set_defaults(func=cmd_obs_trace)

    q = obs_sub.add_parser(
        "metrics", parents=[common],
        help="render a lab run's merged metrics snapshot",
    )
    q.add_argument("run",
                   help="run id (or prefix), 'latest', or a manifest path")
    q.add_argument("--cache-dir",
                   help="store root (default: .repro-cache or "
                   "$REPRO_CACHE_DIR)")
    q.set_defaults(func=cmd_obs_metrics)

    q = obs_sub.add_parser(
        "flame", parents=[common],
        help="fold a span export into collapsed flame-graph stacks",
    )
    q.add_argument("trace",
                   help="span JSON: a serve manifest, a `trace` op "
                   "response, or a bare span list")
    q.add_argument("--trace-id", default=None,
                   help="fold only this trace's spans")
    q.set_defaults(func=cmd_obs_flame)

    p = sub.add_parser(
        "lab",
        help="parallel experiment execution with the persistent "
        "result store",
    )
    lab_sub = p.add_subparsers(dest="lab_command", required=True)

    q = lab_sub.add_parser(
        "run", parents=[common],
        help="run experiments through the worker pool"
    )
    q.add_argument("experiments", nargs="*",
                   help="experiment ids (default: all)")
    q.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: all cores; 1 = serial)")
    q.add_argument("--no-cache", action="store_true",
                   help="skip the persistent result store entirely")
    q.add_argument("--cache-dir",
                   help="store root (default: .repro-cache or "
                   "$REPRO_CACHE_DIR)")
    q.add_argument("--timeout", type=float, default=None,
                   help="per-job timeout in seconds")
    q.add_argument("--retries", type=int, default=0,
                   help="retries per failing job (default 0)")
    q.add_argument("--hang-s", type=float, default=None, dest="hang_s",
                   help="watchdog hang threshold in seconds (default 60): "
                   "declare the pool hung and degrade to serial when "
                   "completions and worker heartbeats both go silent "
                   "this long")
    q.add_argument("--sanitize", action="store_true",
                   help="run invariant checks in every job (recorded in "
                   "the run manifest; exit 1 on violations)")
    q.add_argument("--metrics", action="store_true",
                   help="collect the metrics registry in every job and "
                   "merge the snapshots into the run manifest")
    q.add_argument("--trace", action="store_true",
                   help="record per-job JSONL traces under the run's "
                   "trace directory (implies --metrics)")
    q.add_argument("--run-id", default=None,
                   help="pin the run id (default: random); the journal, "
                   "manifest, and merged manifest are named after it")
    q.add_argument("--resume", metavar="RUN_ID", default=None,
                   help="resume an interrupted/crashed run: jobs its "
                   "journal marks done are replayed from the store, "
                   "the rest re-run")
    q.add_argument("--faults", default=None,
                   help="deterministic fault-injection plan, e.g. "
                   "'seed=7;store.read:corrupt@2' (exported as "
                   "REPRO_FAULTS so workers inherit it)")
    q.add_argument("--markdown", action="store_true")
    q.set_defaults(func=cmd_lab_run)

    q = lab_sub.add_parser("status", parents=[common],
                           help="describe the result store")
    q.add_argument("--cache-dir")
    q.add_argument("--limit", type=int, default=5,
                   help="recent run manifests to show (default 5)")
    q.set_defaults(func=cmd_lab_status)

    q = lab_sub.add_parser(
        "fsck", parents=[common],
        help="verify store integrity (checksums, manifests, journals)"
    )
    q.add_argument("--cache-dir")
    q.add_argument("--repair", action="store_true",
                   help="quarantine corrupt objects and remove stray "
                   "temp files")
    q.add_argument("--format", choices=("human", "json"), default="human")
    q.add_argument("--output", default=None,
                   help="write the report to a file instead of stdout")
    q.set_defaults(func=cmd_lab_fsck)

    p = sub.add_parser(
        "serve",
        help="long-lived sharded experiment service (coalescing, "
        "tiered cache)",
    )
    serve_sub = p.add_subparsers(dest="serve_command", required=True)

    q = serve_sub.add_parser(
        "run", parents=[common],
        help="start the service (foreground; Ctrl-C or 'shutdown' op "
        "stops it)",
    )
    q.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    q.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = OS-assigned; the chosen "
                   "port is advertised in <store>/serve/endpoint.json)")
    q.add_argument("--shards", type=int, default=2,
                   help="worker shards, each owning a hash-prefix range "
                   "of the store (default 2)")
    q.add_argument("--workers", type=int, default=1,
                   help="pool processes per shard (default 1); a dead "
                   "worker only triages its own claimed keys")
    q.add_argument("--max-depth", type=int, default=None,
                   help="admission control: per-shard pending-queue "
                   "ceiling (default 64); requests beyond it are shed "
                   "with a retryable 'overloaded' error")
    q.add_argument("--max-bytes", type=int, default=None,
                   help="admission control: per-shard queued request "
                   "byte budget (default 4 MiB)")
    q.add_argument("--cache-dir",
                   help="store root (default: .repro-cache or "
                   "$REPRO_CACHE_DIR)")
    q.add_argument("--no-cache", action="store_true",
                   help="bypass every cache tier (each request "
                   "recomputes; coalescing still applies)")
    q.add_argument("--tier0-items", type=int, default=512,
                   help="tier-0 LRU entry bound (default 512)")
    q.add_argument("--tier0-bytes", type=int, default=64 * 1024 * 1024,
                   help="tier-0 LRU byte bound (default 64 MiB)")
    q.add_argument("--faults", default=None,
                   help="deterministic fault-injection plan (exported "
                   "as REPRO_FAULTS so shard workers inherit it)")
    q.add_argument("--trace", action="store_true",
                   help="trace every request (span tree + latency "
                   "stack in each response's meta)")
    q.set_defaults(func=cmd_serve_run)

    q = serve_sub.add_parser(
        "status", parents=[common],
        help="query the running service (endpoint file under the store)",
    )
    q.add_argument("--cache-dir",
                   help="store root (default: .repro-cache or "
                   "$REPRO_CACHE_DIR)")
    q.add_argument("--timeout", type=float, default=10.0,
                   help="connect/request timeout in seconds (default 10)")
    q.set_defaults(func=cmd_serve_status)

    q = serve_sub.add_parser(
        "top", parents=[common],
        help="live telemetry dashboard (polls the pure-memory "
        "'stats' op; never disturbs coalescing)",
    )
    q.add_argument("--cache-dir",
                   help="store root (default: .repro-cache or "
                   "$REPRO_CACHE_DIR)")
    q.add_argument("--timeout", type=float, default=10.0,
                   help="connect/request timeout in seconds (default 10)")
    q.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes (default 2)")
    q.add_argument("--iterations", type=int, default=None,
                   help="stop after N refreshes (default: run forever)")
    q.set_defaults(func=cmd_serve_top)

    q = lab_sub.add_parser("gc", parents=[common],
                           help="evict stored results")
    q.add_argument("--cache-dir")
    q.add_argument("--max-entries", type=int, default=None,
                   help="keep only the newest N objects")
    q.add_argument("--max-age-days", type=float, default=None,
                   help="drop objects older than this many days")
    q.add_argument("--all", action="store_true",
                   help="clear every stored object")
    q.set_defaults(func=cmd_lab_gc)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.console = Console(quiet=bool(getattr(args, "quiet", False)))
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (head,
        # less q). Detach stdout so the interpreter's shutdown flush
        # does not raise again, and exit as the consumer intended.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
