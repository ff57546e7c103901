"""Module names in the whole-program pass: a file is named by its import
name however it was reached, and no two files share a name."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import Rule
from repro.analysis.program import _NullCache, analyze_paths

FIXTURES = Path(__file__).parent / "fixtures"
RACEAPP = FIXTURES / "raceapp"


def _findings(report, paths=None):
    return sorted(
        (v.path, v.line, v.col, v.rule, v.message)
        for v in report.violations
        if paths is None or v.path in paths
    )


@pytest.mark.parametrize(
    "directory", [FIXTURES, RACEAPP], ids=["corpus", "package"]
)
def test_named_files_report_what_their_directory_run_does(directory):
    """``repro lint <files>`` (as ``--changed`` runs it) links the same
    cross-file call graph as a run over the directory holding them."""
    named = [RACEAPP / "serve" / "service.py", RACEAPP / "helpers.py"]
    by_file = analyze_paths(
        [str(path) for path in named],
        cache=_NullCache(),
        rule_filter={"SRV002"},
    )
    by_directory = analyze_paths(
        [str(directory)], cache=_NullCache(), rule_filter={"SRV002"}
    )
    paths = {v.path for v in by_file.violations}
    assert _findings(by_file)
    assert _findings(by_file) == _findings(by_directory, paths)
    assert "raceapp.helpers.save_indirect" in by_file.violations[0].message


class _CaptureIndex(Rule):
    """Keeps the program index a run links (finds nothing)."""

    id = "TST001"

    def __init__(self, seen):
        self.seen = seen

    def check_program(self, index):
        self.seen.append(index)
        return iter(())


def test_two_same_named_modules_keep_their_own_summaries(tmp_path):
    for root, body in (("left", "return 1"), ("right", "return 2")):
        (tmp_path / root).mkdir()
        (tmp_path / root / "conftest.py").write_text(
            f"def {root}_helper():\n    {body}\n\n\n"
            f"def shared():\n    {body}\n",
            encoding="utf-8",
        )
    seen = []
    analyze_paths(
        [str(tmp_path / "left"), str(tmp_path / "right")],
        rules=[_CaptureIndex(seen)],
        cache=_NullCache(),
    )
    [index] = seen
    by_module = {}
    for summary in index.functions():
        by_module.setdefault(summary.module, set()).add(summary.name)
    assert sorted(by_module.values(), key=sorted) == [
        {"left_helper", "shared"},
        {"right_helper", "shared"},
    ]
    for module, names in by_module.items():
        side = "left" if "left_helper" in names else "right"
        assert index.path_of(module).endswith(f"{side}/conftest.py")
