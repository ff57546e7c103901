"""Baseline gating and SARIF export."""

from __future__ import annotations

import json

from repro.analysis.engine import LintViolation, rule_catalogue
from repro.analysis.program import (
    LintReport,
    apply_baseline,
    load_baseline,
    report_fingerprints,
    to_sarif,
    violation_fingerprint,
    write_baseline,
)


def _violation(rule="RACE001", path="src/a.py", line=10, message="boom 10"):
    return LintViolation(
        rule=rule, path=path, line=line, col=1, message=message
    )


def test_fingerprint_ignores_line_churn():
    """Moving a finding down 40 lines must not read as a new finding."""
    before = _violation(line=10, message="write on line 10 races")
    after = _violation(line=50, message="write on line 50 races")
    assert violation_fingerprint(before, 0) == violation_fingerprint(after, 0)


def test_fingerprint_distinguishes_new_instances():
    first = _violation(message="races")
    fingerprints = report_fingerprints([first, _violation(message="races")])
    assert len(set(fingerprints)) == 2


def test_baseline_round_trip_and_gating(tmp_path):
    known = _violation(rule="RES002", message="old finding")
    report = LintReport(violations=[known], files_checked=1)
    baseline_path = tmp_path / "baseline.json"
    assert write_baseline(baseline_path, report) == 1
    baseline = load_baseline(baseline_path)
    assert baseline is not None

    fresh = _violation(rule="RACE001", path="src/b.py", message="new finding")
    rerun = LintReport(violations=[known, fresh], files_checked=1)
    gated = apply_baseline(rerun, baseline)
    assert [v.rule for v in gated.violations] == ["RACE001"]
    assert gated.baseline_suppressed == 1
    assert not gated.ok  # the new finding still fails the run


def test_baseline_missing_or_corrupt_loads_as_none(tmp_path):
    assert load_baseline(tmp_path / "nope.json") is None
    bad = tmp_path / "bad.json"
    bad.write_text("{ torn")
    assert load_baseline(bad) is None
    wrong_schema = tmp_path / "schema.json"
    wrong_schema.write_text(json.dumps({"schema": 999, "fingerprints": []}))
    assert load_baseline(wrong_schema) is None


def test_sarif_document_shape():
    report = LintReport(
        violations=[
            _violation(rule="RACE001", message="races"),
            _violation(rule="DET001", path="src/c.py", message="tainted"),
        ],
        files_checked=2,
    )
    report.parse_errors.append(("src/broken.py", "invalid syntax"))
    doc = to_sarif(report, rule_catalogue())

    assert doc["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in doc["$schema"]
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert {"DET001", "RACE001"} <= set(rule_ids)
    for rule in driver["rules"]:
        assert rule["fullDescription"]["text"]

    results = run["results"]
    assert len(results) == 3  # two findings + one parse error
    for result in results:
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"]
        assert location["region"]["startLine"] >= 1
        if result["ruleId"] != "PARSE":
            assert result["ruleIndex"] == rule_ids.index(result["ruleId"])
    levels = {r["ruleId"]: r["level"] for r in results}
    assert levels["PARSE"] == "error"
    assert levels["RACE001"] == "warning"


def test_sarif_round_trips_through_json():
    report = LintReport(violations=[_violation()], files_checked=1)
    doc = to_sarif(report, rule_catalogue())
    assert json.loads(json.dumps(doc)) == doc
