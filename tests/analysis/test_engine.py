"""Engine mechanics: discovery, suppressions, reporters, the catalogue."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis.engine import (
    LintViolation,
    all_rules,
    rule_catalogue,
)
from repro.analysis.program import LintReport, _NullCache, analyze_paths
from tests.analysis import summarize

DOCS = Path(__file__).resolve().parents[2] / "docs" / "analysis.md"

BARE_EXCEPT = (
    "try:\n"
    "    x = 1\n"
    "except:\n"
    "    pass\n"
)


def test_detects_injected_violation_with_rule_file_and_line(tmp_path):
    """Acceptance: an injected violation reports rule id, file, line."""
    fixture = tmp_path / "fixture.py"
    fixture.write_text(
        "def f():\n"
        "    try:\n"
        "        return 1\n"
        "    except:\n"  # line 4
        "        return 2\n",
        encoding="utf-8",
    )
    report = analyze_paths([str(tmp_path)], cache=_NullCache())
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.rule == "EXC001"
    assert violation.path == str(fixture)
    assert violation.line == 4


def test_line_noqa_suppresses_all_rules():
    source = BARE_EXCEPT.replace("except:", "except:  # repro: noqa")
    summary = summarize(source, "lib.py")
    assert summary.violations == []
    assert summary.suppressed == 1


def test_line_noqa_with_rule_id_suppresses_only_that_rule():
    source = BARE_EXCEPT.replace("except:", "except:  # repro: noqa[EXC001]")
    assert summarize(source, "lib.py").violations == []
    wrong = BARE_EXCEPT.replace("except:", "except:  # repro: noqa[PRT001]")
    summary = summarize(wrong, "lib.py")
    assert [v.rule for v in summary.violations] == ["EXC001"]


def test_file_level_noqa_suppresses_everywhere():
    source = "# repro: noqa-file[EXC001]\n" + BARE_EXCEPT + BARE_EXCEPT
    summary = summarize(source, "lib.py")
    assert summary.violations == []
    assert summary.suppressed == 2


def test_blanket_file_noqa_suppresses_all_rules():
    source = "# repro: noqa-file\n" + BARE_EXCEPT + "print('x')\n"
    summary = summarize(source, "lib.py")
    assert summary.violations == []
    assert summary.suppressed == 2


def test_parse_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    report = analyze_paths([str(bad)], cache=_NullCache())
    assert not report.ok
    assert report.parse_errors and report.parse_errors[0][0] == str(bad)


def test_json_reporter_round_trips(tmp_path):
    (tmp_path / "lib.py").write_text(BARE_EXCEPT, encoding="utf-8")
    report = analyze_paths([str(tmp_path)], cache=_NullCache())
    payload = json.loads(report.render_json())
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    [violation] = payload["violations"]
    assert violation["rule"] == "EXC001"
    assert violation["line"] == 3


def test_human_reporter_mentions_path_line_and_rule():
    summary = summarize(BARE_EXCEPT, "somewhere/lib.py")
    text = LintReport(violations=summary.violations).render_human()
    assert "somewhere/lib.py:3:" in text
    assert "EXC001" in text


def test_discovery_skips_pycache(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("except:", encoding="utf-8")
    (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
    report = analyze_paths([str(tmp_path)], cache=_NullCache())
    assert report.files_checked == 1
    assert report.ok


def test_rule_catalogue_covers_the_whole_pack():
    catalogue = rule_catalogue()
    ids = [row["id"] for row in catalogue]
    assert ids == sorted(rule.id for rule in all_rules())
    assert len(ids) == 19


def test_docs_rule_table_is_the_catalogue():
    """docs/analysis.md's rule table is rule_catalogue(), row for row."""
    row = re.compile(
        r"^\| `(?P<id>[A-Z]+\d+)` \| (?P<scope>[^|]+) "
        r"\| (?P<description>.+) \|$"
    )
    lines = DOCS.read_text(encoding="utf-8").splitlines()
    documented = [m.groupdict() for m in map(row.match, lines) if m]
    assert documented == [
        {key: entry[key] for key in ("id", "scope", "description")}
        for entry in rule_catalogue()
    ]


def test_violation_render_is_clickable():
    violation = LintViolation(
        rule="EXC001", path="a/b.py", line=3, col=1, message="m"
    )
    assert violation.render() == "a/b.py:3:1: EXC001 m"


@pytest.mark.parametrize("rule_id", ["RNG001", "CLK001", "FLT001", "MUT001",
                                     "ORD001", "CFG001", "EXC001", "PRT001"])
def test_expected_rule_ids_registered(rule_id):
    assert rule_id in {rule.id for rule in all_rules()}
