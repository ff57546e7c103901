#!/usr/bin/env python3
"""Interval simulation: trading cycle accuracy for speed.

The paper's interval analysis later became *interval simulation* (the
idea behind the Sniper simulator): don't simulate cycles — walk the
stream once, charge 1/width per instruction, and charge each miss event
its analytically derived penalty. This example runs both simulators on
every suite workload and prints accuracy and speedup.

Run:  python examples/interval_simulation.py
"""

from repro import CoreConfig
from repro.interval.model import compare_with_detailed
from repro.trace.synthetic import generate_trace
from repro.util.tabulate import format_table
from repro.workloads import SPEC_PROFILES


def main() -> None:
    config = CoreConfig()
    rows = []
    for name, profile in SPEC_PROFILES.items():
        trace = generate_trace(profile, count=40_000, seed=1620789)
        comparison = compare_with_detailed(trace, config)
        rows.append(
            [
                name,
                comparison["detailed_cycles"],
                comparison["fast_cycles"],
                100.0 * comparison["cpi_error"],
                comparison["speedup"],
            ]
        )
    print(
        format_table(
            ["workload", "detailed cycles", "interval-sim cycles",
             "CPI error %", "speedup"],
            rows,
            float_fmt=".1f",
            title="Interval simulation vs cycle-level simulation",
        )
    )
    mean_err = sum(abs(row[3]) for row in rows) / len(rows)
    mean_speedup = sum(row[4] for row in rows) / len(rows)
    print(
        f"\nmean |CPI error| {mean_err:.1f}% at a mean {mean_speedup:.0f}x "
        "speedup — one pass over the trace instead of a cycle loop."
    )


if __name__ == "__main__":
    main()
