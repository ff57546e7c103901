"""Experiment harness: reproduces every table and figure in DESIGN.md.

Each experiment (T1-T3, F1-F15) is a function in
:mod:`repro.harness.experiments` returning an
:class:`~repro.harness.experiment.ExperimentResult` whose rows are the
table/series the paper reports. The benchmark files under
``benchmarks/`` are thin wrappers that time these functions and print
their rendered output; the examples call them directly.
"""

from repro.harness.experiment import ExperimentResult
from repro.harness.figures import ascii_bar_chart
from repro.harness.runner import (
    baseline_config,
    clear_caches,
    simulate_workload,
    workload_trace,
)
from repro.harness import experiments

__all__ = [
    "ExperimentResult",
    "ascii_bar_chart",
    "baseline_config",
    "clear_caches",
    "simulate_workload",
    "workload_trace",
    "experiments",
]
