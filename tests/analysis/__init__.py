"""Lint tests; :func:`summarize` lints one in-memory module the way the
engine's extraction pass does."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.engine import Rule, all_rules
from repro.analysis.program import FileSummary, extract_file


def summarize(
    source: str, path: str, rules: Optional[Sequence[Rule]] = None
) -> FileSummary:
    """Every ``check_module`` finding in ``source`` linted as ``path``."""
    return extract_file(
        source,
        reported=path,
        module="module",
        digest="",
        rules=all_rules() if rules is None else rules,
    )
