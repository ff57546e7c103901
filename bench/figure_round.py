"""One figure-regeneration round, run in a fresh process.

Usage (``src`` on ``PYTHONPATH``, the store in ``REPRO_CACHE_DIR``)::

    python3 bench/figure_round.py --ids t2,f1 --golden benchmarks/results \\
        --report round.json [--probe] [--trace]

The process imports the program, opens the store and stamps ``ready``
(set-up ends there); ``--probe`` exits at that point. Otherwise it runs
each experiment through ``run_experiment`` and renders it, then
byte-compares every rendering with its committed table. With
``--trace`` the layers' public functions are wrapped where the harness
looks them up, and the spans and boundary counts go into the report.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import SpanRecorder, spans_to_json

#: Layer span name -> the (module[:class], attribute) sites it wraps.
#: Names are wrapped where the harness looks them up, so a layer's
#: internal calls stay inside its span.
LAYER_SITES: Dict[str, List[Tuple[str, str]]] = {
    "trace.generate": [
        ("repro.harness.runner", "generate_trace"),
        ("repro.harness.experiments", "generate_trace"),
    ],
    "pipeline.simulate": [
        ("repro.harness.runner", "simulate"),
        ("repro.harness.experiments", "simulate"),
    ],
    "pipeline.simulate_inorder": [
        ("repro.pipeline.inorder", "simulate_inorder"),
    ],
    "perf.run_batch": [("repro.perf.batchcore", "run_batch")],
    "lab.codec_encode": [("repro.harness.runner", "result_to_payload")],
    "lab.codec_decode": [("repro.harness.runner", "result_from_payload")],
    "lab.store_get": [("repro.lab.store:ResultStore", "get")],
    "lab.store_put": [("repro.lab.store:ResultStore", "put")],
    "interval.predict": [("repro.interval.model:IntervalModel", "predict")],
    "interval.analysis": [
        ("repro.harness.experiments", "segment_intervals"),
        ("repro.harness.experiments", "measure_penalties"),
        ("repro.harness.experiments", "bucket_resolution_by_gap"),
        ("repro.harness.experiments", "build_cpi_stack"),
        ("repro.harness.experiments", "fit_ilp_profile"),
        ("repro.interval.visualize", "interval_timeline"),
        ("repro.interval.visualize", "pick_illustrative_event"),
    ],
    "interval.contributors": [
        ("repro.harness.experiments", "decompose_contributors"),
    ],
}


#: Experiment id -> the one column of its table not compared.
UNCHECKED_COLUMNS = {
    # The committed table predates a change to this column (gzip 1.19
    # there, 1.18 today); every other F20 column still matches.
    "f20": "IPC (in-order)",
}


def blank_column(text: str, header: str) -> str:
    """``text``, a rendered table, with the body cells of the column
    headed ``header`` blanked. The dashed rule under the header gives
    the columns' extents; the header row and the rule stay."""
    lines = text.split("\n")
    if len(lines) < 3:
        return text
    for match in re.finditer(r"-+", lines[2]):
        start, end = match.span()
        if lines[1][start:end].strip() == header:
            break
    else:
        return text
    for index in range(3, len(lines)):
        if lines[index].startswith("note: "):
            break
        line = lines[index]
        lines[index] = line[:start] + " " * len(line[start:end]) + line[end:]
    return "\n".join(lines)


def golden_diff(text: str, expected: str,
                unchecked: Optional[str] = None) -> Optional[str]:
    """None when ``text`` matches ``expected`` byte for byte, apart from
    the body of column ``unchecked``; else a one-line description of the
    first difference."""
    if unchecked is not None:
        text = blank_column(text, unchecked)
        expected = blank_column(expected, unchecked)
    if text == expected:
        return None
    for line_no, (got, want) in enumerate(
        zip(text.splitlines(True), expected.splitlines(True)), start=1
    ):
        if got != want:
            return f"line {line_no}: got {got!r}, want {want!r}"
    return (f"length differs: got {len(text)} chars, "
            f"want {len(expected)}")


class LayerCounts:
    """Work counts taken at the wrapped boundaries."""

    def __init__(self) -> None:
        self.values: Dict[str, int] = {
            "trace.instructions": 0,
            "pipeline.instructions": 0,
            "pipeline.sim_cycles": 0,
            "pipeline.sim_events": 0,
            "perf.run_batch_points": 0,
            "lab.store_gets": 0,
            "lab.store_hits": 0,
            "lab.store_puts": 0,
        }

    def trace(self, trace: Any) -> None:
        self.values["trace.instructions"] += len(trace)

    def any_simulation(self, result: Any) -> None:
        self.values["pipeline.sim_cycles"] += result.cycles
        self.values["pipeline.sim_events"] += len(result.events)

    def simulation(self, result: Any) -> None:
        """A detailed-core run: also counts toward its insn/s rate."""
        self.values["pipeline.instructions"] += result.instructions
        self.any_simulation(result)

    def batch(self, results: List[Any]) -> None:
        self.values["perf.run_batch_points"] += len(results)
        for result in results:
            self.any_simulation(result)

    def store_get(self, payload: Any) -> None:
        self.values["lab.store_gets"] += 1
        self.values["lab.store_hits"] += payload is not None

    def store_put(self, _path: Any) -> None:
        self.values["lab.store_puts"] += 1

    def hook(self, layer: str) -> Optional[Callable[[Any], None]]:
        return {
            "trace.generate": self.trace,
            "pipeline.simulate": self.simulation,
            "pipeline.simulate_inorder": self.any_simulation,
            "perf.run_batch": self.batch,
            "lab.store_get": self.store_get,
            "lab.store_put": self.store_put,
        }.get(layer)


def install_layer_wrappers(recorder: SpanRecorder, counts: LayerCounts) -> None:
    for layer, sites in LAYER_SITES.items():
        for site, attribute in sites:
            module_name, _, class_name = site.partition(":")
            owner: Any = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = getattr(owner, attribute)
            setattr(owner, attribute,
                    recorder.wrap(original, layer, counts.hook(layer)))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ids", default="")
    parser.add_argument("--golden", type=Path)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.harness import runner
    from repro.harness.experiments import run_experiment
    from repro.lab.store import ResultStore

    ResultStore(root=os.environ["REPRO_CACHE_DIR"]).count()
    report: Dict[str, Any] = {"ready": time.monotonic()}
    if args.probe:
        args.report.write_text(json.dumps(report), encoding="utf-8")
        return 0

    recorder = SpanRecorder()
    counts = LayerCounts()
    if args.trace:
        install_layer_wrappers(recorder, counts)
    experiments = []
    renderings: Dict[str, str] = {}
    loop_start = time.monotonic()
    with recorder.span("harness.round"):
        for experiment_id in args.ids.split(","):
            error = None
            with recorder.span(f"harness.{experiment_id}", op_id=experiment_id):
                try:
                    renderings[experiment_id] = (
                        run_experiment(experiment_id).render() + "\n")
                except Exception:
                    error = traceback.format_exc(limit=3).strip().splitlines()[-1]
            experiments.append({"id": experiment_id, "error": error})
    report["loop"] = [loop_start, time.monotonic()]
    if args.trace:
        report["spans"] = spans_to_json(recorder.spans)
        report["counts"] = counts.values
        report["cache_stats"] = runner.cache_stats()

    for record in experiments:
        if record["error"] is None:
            golden = args.golden / f"{record['id']}.txt"
            try:
                expected = golden.read_bytes().decode("utf-8")
            except OSError as exc:
                record["error"] = f"no committed table: {exc}"
                continue
            record["error"] = golden_diff(
                renderings[record["id"]], expected,
                UNCHECKED_COLUMNS.get(record["id"]))
    report["experiments"] = experiments
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    args.report.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
