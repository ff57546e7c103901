"""Regression + property tests for the engine fixes in the v2 pass.

Covers the three engine-level fixes (multi-line ``noqa`` placement,
repo-relative reported paths, scope matching against file stems) and
property-tests the suppression comment syntax round-trip.
"""

from __future__ import annotations

import ast

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.engine import LintViolation, Rule
from repro.analysis.program import (
    FileSummary,
    discover_files,
    parse_noqa,
    reported_path,
)
from tests.analysis import summarize


class _FlagEveryCall(Rule):
    id = "TST001"
    name = "test-flag-calls"
    description = "flags every call expression (test-only)"

    def check_module(self, ctx):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield self.violation(ctx.path, node, "call flagged")


# -- satellite: multi-line noqa placement ------------------------------


def test_noqa_on_last_line_of_multiline_statement_suppresses():
    source = (
        "value = compute(\n"
        "    1,\n"
        "    2,\n"
        ")  # repro: noqa[TST001]\n"
    )
    report = summarize(source, "mod.py", rules=[_FlagEveryCall()])
    assert report.violations == []
    assert report.suppressed == 1


def test_noqa_on_first_line_still_suppresses():
    source = (
        "value = compute(  # repro: noqa[TST001]\n"
        "    1,\n"
        ")\n"
    )
    report = summarize(source, "mod.py", rules=[_FlagEveryCall()])
    assert report.violations == []
    assert report.suppressed == 1


def test_noqa_outside_statement_range_does_not_suppress():
    source = (
        "# repro: noqa[TST001]\n"
        "value = compute(1)\n"
    )
    report = summarize(source, "mod.py", rules=[_FlagEveryCall()])
    assert len(report.violations) == 1


def test_end_line_clamped_to_line():
    violation = LintViolation(
        rule="X", path="p", line=9, col=1, message="m", end_line=3
    )
    assert violation.end_line == 9


# -- satellite: repo-relative POSIX reported paths ---------------------


def test_discover_files_reports_relative_posix(tmp_path, monkeypatch):
    sub = tmp_path / "pkg" / "inner"
    sub.mkdir(parents=True)
    (sub / "mod.py").write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    found = discover_files(["pkg"])
    assert [rep for _, rep in found] == ["pkg/inner/mod.py"]


def test_reported_path_outside_cwd_keeps_posix_form(tmp_path, monkeypatch):
    inside = tmp_path / "in"
    inside.mkdir()
    monkeypatch.chdir(inside)
    outside = tmp_path / "other" / "mod.py"
    assert reported_path(outside) == outside.as_posix()


# -- satellite: scope matching against the file stem -------------------


class _ServeScoped(Rule):
    id = "TST002"
    name = "test-serve-scoped"
    description = "scoped to serve (test-only)"
    scope = ("serve",)


def test_scope_matches_file_stem_named_like_directory():
    """A rule scoped to 'serve' must match serve.py itself, not only
    files under a serve/ directory (the parts()[:-1] regression)."""
    rule = _ServeScoped()
    assert rule.applies_to("serve.py")
    assert rule.applies_to("src/repro/serve.py")


def test_scope_still_matches_directories_and_rejects_others():
    rule = _ServeScoped()
    assert rule.applies_to("src/repro/serve/service.py")
    assert not rule.applies_to("src/repro/lab/jobs.py")
    assert not rule.applies_to("src/repro/observe.py")


# -- suppression syntax property tests ---------------------------------

_rule_ids = st.from_regex(r"[A-Z]{3}[0-9]{3}", fullmatch=True)


def _suppresses(lines, rule_id, line=1):
    """Whether the noqa comments in ``lines`` cover ``rule_id`` there."""
    noqa_file, noqa_lines = parse_noqa(lines)
    summary = FileSummary(
        path="p.py", module="p", digest="",
        noqa_file=noqa_file, noqa_lines=noqa_lines,
    )
    return summary.suppresses(
        LintViolation(rule=rule_id, path="p.py", line=line, col=1, message="m")
    )


@settings(max_examples=200, deadline=None)
@given(
    rules=st.lists(_rule_ids, min_size=1, max_size=5, unique=True).filter(
        lambda ids: "ZZZ999" not in ids
    )
)
def test_named_noqa_round_trips(rules):
    lines = (f"x = 1  # repro: noqa[{','.join(rules)}]",)
    for rule_id in rules:
        assert _suppresses(lines, rule_id)
    assert not _suppresses(lines, "ZZZ999")


@settings(max_examples=50, deadline=None)
@given(padding=st.text(alphabet=" \t", max_size=4))
def test_blanket_noqa_round_trips(padding):
    lines = (f"x = 1  #{padding}repro:{padding}noqa",)
    assert _suppresses(lines, "ANY000")


@settings(max_examples=200, deadline=None)
@given(rules=st.lists(_rule_ids, min_size=1, max_size=5, unique=True))
def test_noqa_file_round_trips(rules):
    lines = ("import x", f"# repro: noqa-file[{','.join(rules)}]")
    assert parse_noqa(lines)[0] == sorted(rules)
    assert _suppresses(lines, rules[0])


def test_blanket_noqa_file_suppresses_everything():
    lines = ("# repro: noqa-file",)
    assert parse_noqa(lines)[0] == []
    assert _suppresses(lines, "ANY000")


@settings(max_examples=100, deadline=None)
@given(rule_id=_rule_ids)
def test_unrelated_comments_never_suppress(rule_id):
    assert not _suppresses(("x = 1  # plain comment",), rule_id)
    assert parse_noqa(("x = 1  # nothing here",)) == (None, {})
