"""Content-addressed analysis cache: hits, misses, invalidation."""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.engine import all_rules
from repro.analysis.program import (
    AnalysisCache,
    analyze_paths,
    pack_fingerprint,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _renderings(report):
    return [v.render() for v in report.violations]


def test_warm_run_hits_for_every_file_and_agrees(tmp_path):
    cache = AnalysisCache(root=tmp_path / "analysis")
    cold = analyze_paths([str(FIXTURES)], cache=cache)
    assert cold.cache_misses == cold.files_checked
    assert cold.cache_hits == 0

    warm_cache = AnalysisCache(root=tmp_path / "analysis")
    warm = analyze_paths([str(FIXTURES)], cache=warm_cache)
    assert warm.cache_hits == warm.files_checked
    assert warm.cache_misses == 0
    assert _renderings(warm) == _renderings(cold)
    assert warm.suppressed == cold.suppressed


def test_source_edit_misses_only_the_edited_file(tmp_path):
    tree = tmp_path / "app"
    tree.mkdir()
    (tree / "a.py").write_text("def f():\n    return 1\n")
    (tree / "b.py").write_text("def g():\n    return 2\n")
    cache_root = tmp_path / "cache"

    analyze_paths([str(tree)], cache=AnalysisCache(root=cache_root))
    (tree / "a.py").write_text("def f():\n    return 3\n")
    cache = AnalysisCache(root=cache_root)
    report = analyze_paths([str(tree)], cache=cache)
    assert report.cache_misses == 1
    assert report.cache_hits == 1


def test_pack_fingerprint_changes_invalidate(tmp_path):
    tree = tmp_path / "app"
    tree.mkdir()
    (tree / "a.py").write_text("def f():\n    return 1\n")
    cache_root = tmp_path / "cache"

    analyze_paths([str(tree)], cache=AnalysisCache(root=cache_root))
    # Same source, same cache dir, but a different pack fingerprint
    # must miss: simulate a rule change by dropping one rule.
    cache = AnalysisCache(root=cache_root)
    report = analyze_paths(
        [str(tree)], rules=all_rules()[:-1], cache=cache
    )
    assert report.cache_misses == 1
    assert report.cache_hits == 0


def test_pack_fingerprint_is_stable_and_rule_sensitive():
    rules = all_rules()
    assert pack_fingerprint(rules) == pack_fingerprint(rules)
    assert pack_fingerprint(rules[:-1]) != pack_fingerprint(rules)


_RULE_MODULE = """
import ast

from repro.analysis.engine import Rule


class FlagCalls(Rule):
    id = "TST003"
    name = "flag-calls"
    description = "flags calls (test-only)"

    def check_module(self, ctx):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call){extra}:
                yield self.violation(ctx.path, node, "call")
"""


def test_rule_code_edit_misses_a_warm_cache(tmp_path, monkeypatch):
    """Same rule ids, new rule code: the fingerprint moves and every
    file re-extracts, so no stale finding is served from the cache."""
    package = tmp_path / "rulepkg"
    package.mkdir()
    module_path = package / "cachetest_rules.py"
    module_path.write_text(_RULE_MODULE.format(extra=""))
    monkeypatch.syspath_prepend(str(package))
    tree = tmp_path / "app"
    tree.mkdir()
    (tree / "a.py").write_text("print(1)\n")
    cache_root = tmp_path / "cache"
    try:
        module = importlib.import_module("cachetest_rules")
        before = pack_fingerprint([module.FlagCalls()])
        cold = analyze_paths(
            [str(tree)], rules=[module.FlagCalls()],
            cache=AnalysisCache(root=cache_root),
        )
        assert len(cold.violations) == 1

        module_path.write_text(_RULE_MODULE.format(extra=" and False"))
        module = importlib.reload(module)
        assert pack_fingerprint([module.FlagCalls()]) != before
        warm = analyze_paths(
            [str(tree)], rules=[module.FlagCalls()],
            cache=AnalysisCache(root=cache_root),
        )
    finally:
        sys.modules.pop("cachetest_rules", None)
    assert warm.cache_hits == 0
    assert warm.cache_misses == warm.files_checked == 1
    assert warm.violations == []


def test_torn_cache_entry_is_treated_as_miss(tmp_path):
    tree = tmp_path / "app"
    tree.mkdir()
    (tree / "a.py").write_text("def f():\n    return 1\n")
    cache_root = tmp_path / "cache"
    analyze_paths([str(tree)], cache=AnalysisCache(root=cache_root))
    for entry in cache_root.rglob("*.json"):
        entry.write_text("{ torn")
    cache = AnalysisCache(root=cache_root)
    report = analyze_paths([str(tree)], cache=cache)
    assert report.cache_misses == 1
    assert report.parse_errors == []


@pytest.mark.slow
def test_warm_cache_is_5x_faster_on_src():
    """Acceptance criterion: warm ``repro lint src/`` ≥ 5x cold."""
    import shutil
    import tempfile

    tmp = Path(tempfile.mkdtemp())
    try:
        start = time.perf_counter()
        analyze_paths(["src"], cache=AnalysisCache(root=tmp / "analysis"))
        cold = time.perf_counter() - start

        start = time.perf_counter()
        analyze_paths(["src"], cache=AnalysisCache(root=tmp / "analysis"))
        warm = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    assert cold / warm >= 5.0, f"speedup only {cold / warm:.1f}x"
