"""Detection-completeness tests for the whole-program rule family.

The fixture corpus under ``fixtures/raceapp`` seeds every
interprocedural rule at least once, with a clean twin next to each
violation; ``# seeded: <RULE>`` markers on the violating lines are the
ground truth. The corpus test asserts the pass finds exactly the
marked set — any miss is a detection regression, any extra is a false
positive.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.program import _NullCache, analyze_paths

FIXTURES = Path(__file__).parent / "fixtures"

_MARKER = re.compile(r"#\s*seeded:\s*([A-Z]{3,4}\d{3})")


def seeded_expectations():
    """(path-suffix, line, rule) for every marker in the corpus."""
    expected = set()
    for path in sorted(FIXTURES.rglob("*.py")):
        rel = path.relative_to(FIXTURES).as_posix()
        for line_no, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            match = _MARKER.search(line)
            if match:
                expected.add((rel, line_no, match.group(1)))
    return expected


@pytest.fixture(scope="module")
def corpus_report():
    return analyze_paths([str(FIXTURES)], cache=_NullCache())


def _found(report):
    found = set()
    for violation in report.violations:
        rel = violation.path
        marker = "fixtures/"
        if marker in rel:
            rel = rel.split(marker, 1)[1]
        found.add((rel, violation.line, violation.rule))
    return found


def test_corpus_parses_cleanly(corpus_report):
    assert corpus_report.parse_errors == []


def test_every_seeded_violation_is_detected(corpus_report):
    expected = seeded_expectations()
    assert expected, "fixture corpus has no seeded markers"
    missed = expected - _found(corpus_report)
    assert not missed, f"seeded violations not detected: {sorted(missed)}"


def test_no_unseeded_findings_on_corpus(corpus_report):
    """The clean twins (locks, to_thread, atomic writes, fixed seeds)
    must not produce findings — false positives fail here."""
    extra = _found(corpus_report) - seeded_expectations()
    assert not extra, f"unseeded findings (false positives): {sorted(extra)}"


@pytest.mark.parametrize(
    "rule",
    ["RACE001", "RACE002", "SRV002", "SRV003", "RES002", "DET001", "OBS003"],
)
def test_each_program_rule_is_exercised(corpus_report, rule):
    rules_seen = {v.rule for v in corpus_report.violations}
    assert rule in rules_seen, f"corpus never triggers {rule}"


def test_obs003_reports_one_based_columns(corpus_report):
    """Like every rule, OBS003 reports col_offset + 1: both seeded calls
    start at column 12 (offset 11)."""
    found = [
        (v.path.rsplit("fixtures/", 1)[1], v.line, v.col)
        for v in corpus_report.violations
        if v.rule == "OBS003"
    ]
    assert found == [
        ("raceapp/serve/tracing.py", 22, 12),
        ("raceapp/serve/tracing.py", 30, 12),
    ]


def test_noqa_suppresses_program_findings(tmp_path):
    """A justified noqa on the flagged line silences the program rule."""
    pkg = tmp_path / "app" / "serve"
    pkg.mkdir(parents=True)
    (tmp_path / "app" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "svc.py").write_text(
        "import asyncio\n"
        "\n"
        "\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "\n"
        "    async def bump(self):\n"
        "        v = self.n\n"
        "        await asyncio.sleep(0)\n"
        "        self.n = v + 1  # repro: noqa[RACE001]\n",
        encoding="utf-8",
    )
    report = analyze_paths([str(tmp_path)], cache=_NullCache())
    assert [v.rule for v in report.violations] == []
    assert report.suppressed >= 1
