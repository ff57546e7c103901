"""Shared utilities: deterministic RNG helpers, statistics, and tables.

These helpers are deliberately dependency-light; everything in the
simulator proper builds on them, so they must stay small and obvious.
"""

from repro.util.rng import SplitMix, derive_seed
from repro.util.stats import (
    Histogram,
    OnlineStats,
    bucketize,
    percentile,
)
from repro.util.tabulate import format_table, format_markdown_table
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_power_of_two,
)

__all__ = [
    "SplitMix",
    "derive_seed",
    "Histogram",
    "OnlineStats",
    "bucketize",
    "percentile",
    "format_table",
    "format_markdown_table",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_power_of_two",
]
