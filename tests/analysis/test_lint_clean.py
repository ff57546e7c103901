"""The merged tree must satisfy its own lint pack (acceptance gate)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.program import _NullCache, analyze_paths

SRC = Path(__file__).resolve().parents[2] / "src"


def test_whole_program_pass_on_src_is_clean():
    report = analyze_paths([str(SRC)], cache=_NullCache())
    assert report.files_checked > 50
    assert not report.parse_errors
    assert report.ok, "\n" + report.render_human()
