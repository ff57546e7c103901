#!/usr/bin/env python3
"""Structural simulation of real kernel traces vs oracle annotations.

Runs assembled microbenchmark kernels through the functional simulator
to get *real* dynamic traces, then times them on the superscalar core
with the full structural substrates — tournament branch predictor, BTB,
and the L1I/L1D/L2 cache hierarchy — and reports predictor accuracy,
cache miss rates, and the measured misprediction penalty.

Run:  python examples/structural_vs_oracle.py
"""

from repro import (
    BranchTargetBuffer,
    BranchUnit,
    CacheHierarchy,
    CoreConfig,
    HierarchyConfig,
    StructuralAnnotator,
    TournamentPredictor,
    measure_penalties,
)
from repro.pipeline.core import simulate
from repro.util.tabulate import format_table
from repro.workloads import KERNEL_BUILDERS


def main() -> None:
    config = CoreConfig()
    rows = []
    for name, builder in KERNEL_BUILDERS.items():
        kernel = builder()
        trace = kernel.run()
        branch_unit = BranchUnit(
            direction=TournamentPredictor(), btb=BranchTargetBuffer()
        )
        hierarchy = CacheHierarchy(HierarchyConfig())
        annotator = StructuralAnnotator(branch_unit, hierarchy)
        result = simulate(trace, config, annotator=annotator)
        report = measure_penalties(result)
        rows.append(
            [
                name,
                len(trace),
                result.ipc,
                branch_unit.direction.stats.accuracy,
                hierarchy.l1d.stats.miss_rate,
                report.count,
                report.mean_penalty if report.count else 0.0,
            ]
        )
    print(
        format_table(
            [
                "kernel",
                "instructions",
                "IPC",
                "bpred accuracy",
                "L1D miss rate",
                "mispredicts",
                "mean penalty",
            ],
            rows,
            float_fmt=".3f",
            title="Real kernel traces on the structural machine",
        )
    )
    print(
        "\nbranchy_search defeats the predictor (data-dependent branches); "
        "pointer_chase hits the D-cache; nested_loop/dot_product predict "
        "nearly perfectly — the substrates behave as expected."
    )


if __name__ == "__main__":
    main()
