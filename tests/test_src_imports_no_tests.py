"""The package never imports the test suite.

The per-instruction record type, the scalar cores and the other
oracles live under ``tests/``; production code must not reach them.
Every module under ``src/repro`` is parsed, so an ``import tests…`` or
``from tests… import …`` anywhere in it (a function body included)
fails here, and "production never builds an oracle object" holds by
construction.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module or ""


def test_no_src_module_imports_tests():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in modules
        for line, name in imported_modules(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        )
        if name.split(".")[0] == "tests"
    ]
    assert not offenders, offenders
