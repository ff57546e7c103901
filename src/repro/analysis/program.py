"""The lint engine: cached extraction, program rules, gates.

:func:`analyze_paths` runs every rule of the registry. One run:

1. **Discover** the python files under the requested paths (optionally
   narrowed to the git-changed set).
2. **Extract** a :class:`FileSummary` per file, serially, holding
   the findings of every rule's ``check_module``, the function
   summaries the interprocedural rules need, and the file's ``noqa``
   map. Extraction is fronted by a content-addressed cache keyed on
   the source digest and the rule-pack fingerprint (same hashing as the
   lab result store), so a warm rerun on an unchanged tree never parses
   a single file. AST work holds the GIL, so a thread pool would only
   add overhead.
3. **Link** the summaries into one :class:`SymbolTable` and run every
   rule's ``check_program`` (SRV002/RES002/DET001) over the call graph.
   These rules are cheap on summaries — the expensive part (parsing)
   is what the cache elides.
4. **Gate**: optionally subtract a checked-in baseline so CI fails only
   on *new* findings, and render human / JSON / SARIF output.

Suppression syntax (checked on every physical line of the violating
statement, whichever hook found it):

- ``# repro: noqa`` — suppress every rule on that line;
- ``# repro: noqa[RULE1,RULE2]`` — suppress the named rules only;
- ``# repro: noqa-file[RULE1]`` — anywhere in the file, suppress the
  named rules for the whole file (``# repro: noqa-file`` for all).

Suppressions are an escape hatch, not a default: CI gates on a clean
``repro lint src/``, so every ``noqa`` in the tree should carry a
justification comment next to it.

The cache lives under ``<store root>/analysis/`` next to the lab
result store and honours the same ``REPRO_CACHE_DIR`` override. Every
entry is written atomically (the analysis cache is not run state, so
it skips the fsync).
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import json
import re
import subprocess
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import __version__
from repro.analysis.callgraph import (
    FunctionSummary,
    SymbolTable,
    extract_functions,
    module_name_for,
)
from repro.analysis.engine import (
    FileContext,
    LintViolation,
    ProgramIndex,
    Rule,
    all_rules,
)
from repro.lab.store import default_store_root, payload_digest
from repro.resilience.atomic import atomic_write_text

#: Bump when the FileSummary schema changes shape.
ANALYSIS_SCHEMA_VERSION = 1

BASELINE_SCHEMA_VERSION = 1

SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemas/sarif-schema-2.1.0.json"
)

_DIGITS = re.compile(r"\d+")

_NOQA_LINE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[\w\s,.-]+)\])?")
_NOQA_FILE = re.compile(r"#\s*repro:\s*noqa-file(?:\[(?P<rules>[\w\s,.-]+)\])?")

#: Modules besides the rules' own whose code decides what extraction
#: caches: the engine, the fact extraction and the control flow it
#: walks, and the metric-name pattern OBS002 checks against.
_EXTRACTION_MODULES = (
    "repro.analysis.callgraph",
    "repro.analysis.cfg",
    "repro.analysis.engine",
    "repro.analysis.program",
    "repro.obs.metrics",
)


def _module_source_digest(name: str) -> str:
    source = getattr(importlib.import_module(name), "__file__", None)
    try:
        return hashlib.sha256(Path(source).read_bytes()).hexdigest()
    except (OSError, TypeError):
        return ""


def pack_fingerprint(rules: Sequence[Rule]) -> str:
    """Digest of the rule pack: any rule or extraction change invalidates.

    Cached entries always hold the *full* pack's findings (rule-subset
    selection filters afterwards), so the fingerprint covers every rule
    id, the source of every module that defines a rule or runs during
    extraction, the schema and the package version. A rule whose code
    changes under the same id therefore misses the cache.
    """
    modules = {type(rule).__module__ for rule in rules}
    modules.update(_EXTRACTION_MODULES)
    return payload_digest(
        {
            "schema": ANALYSIS_SCHEMA_VERSION,
            "version": __version__,
            "rules": sorted(rule.id for rule in rules),
            "code": {
                name: _module_source_digest(name) for name in sorted(modules)
            },
        }
    )


def reported_path(path: Path) -> str:
    """Stable reported form: repo-relative POSIX when under the cwd.

    Lint artifacts (JSON reports, SARIF, baselines) are diffed across
    machines and CI runners; an absolute ``str(path)`` bakes the
    runner's checkout location into every record. Anything outside the
    cwd keeps its own path, normalized to POSIX separators.
    """
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def discover_files(paths: Iterable[str]) -> List[Tuple[Path, str]]:
    """Expand files/directories into (absolute, reported) python paths."""
    found: List[Tuple[Path, str]] = []
    for raw in paths:
        base = Path(raw)
        if base.is_dir():
            for path in sorted(base.rglob("*.py")):
                if "__pycache__" in path.parts:
                    continue
                found.append((path, reported_path(path)))
        elif base.suffix == ".py":
            found.append((base, reported_path(base)))
    return found


# -- suppressions ------------------------------------------------------


def _named(match: "re.Match[str]") -> Optional[List[str]]:
    names = match.group("rules")
    if names is None:
        return None
    return [n.strip() for n in names.split(",") if n.strip()]


def parse_noqa(
    lines: Sequence[str],
) -> Tuple[Optional[List[str]], Dict[int, Optional[List[str]]]]:
    """A file's ``noqa`` comments as ``(noqa_file, noqa_lines)``.

    ``noqa_file`` is None without a ``noqa-file`` comment, ``[]`` for a
    blanket one, else the named rules; ``noqa_lines`` maps a 1-based
    line to None (blanket) or the rules its ``noqa`` names.
    """
    file_rules: Optional[Set[str]] = None
    blanket_file = False
    noqa_lines: Dict[int, Optional[List[str]]] = {}
    for line_no, line in enumerate(lines, start=1):
        if "noqa" not in line:
            continue
        match = _NOQA_FILE.search(line)
        if match:
            names = _named(match)
            if names is None:
                blanket_file = True
            else:
                file_rules = (file_rules or set()).union(names)
        match = _NOQA_LINE.search(line)
        if match:
            noqa_lines[line_no] = _named(match)
    if blanket_file:
        return [], noqa_lines
    noqa_file = sorted(file_rules) if file_rules is not None else None
    return noqa_file, noqa_lines


# -- per-file summaries ------------------------------------------------


@dataclass
class FileSummary:
    """Everything one file contributes to a program run (cacheable)."""

    path: str
    module: str
    digest: str
    violations: List[LintViolation] = field(default_factory=list)
    suppressed: int = 0
    parse_error: Optional[str] = None
    functions: List[FunctionSummary] = field(default_factory=list)
    #: None → no file-level noqa; [] → blanket; else the named rules.
    noqa_file: Optional[List[str]] = None
    #: 1-based line → None (blanket noqa) or the named rules.
    noqa_lines: Dict[int, Optional[List[str]]] = field(default_factory=dict)
    from_cache: bool = False

    def suppresses(self, violation: LintViolation) -> bool:
        """Whether this file's noqa map covers ``violation``."""
        if self.noqa_file is not None and (
            not self.noqa_file or violation.rule in self.noqa_file
        ):
            return True
        last = max(violation.end_line, violation.line)
        for line_no in range(violation.line, last + 1):
            if line_no not in self.noqa_lines:
                continue
            names = self.noqa_lines[line_no]
            if names is None or violation.rule in names:
                return True
        return False

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": ANALYSIS_SCHEMA_VERSION,
            "path": self.path,
            "module": self.module,
            "digest": self.digest,
            "violations": [v.as_payload() for v in self.violations],
            "suppressed": self.suppressed,
            "parse_error": self.parse_error,
            "functions": [f.to_json() for f in self.functions],
            "noqa_file": self.noqa_file,
            "noqa_lines": {
                str(line): names for line, names in self.noqa_lines.items()
            },
        }

    @classmethod
    def from_json(cls, obj: Dict[str, Any]) -> "FileSummary":
        return cls(
            path=obj["path"],
            module=obj["module"],
            digest=obj["digest"],
            violations=[
                LintViolation(
                    rule=v["rule"],
                    path=v["path"],
                    line=v["line"],
                    col=v["col"],
                    message=v["message"],
                    end_line=v.get("end_line", 0),
                )
                for v in obj["violations"]
            ],
            suppressed=obj["suppressed"],
            parse_error=obj["parse_error"],
            functions=[
                FunctionSummary.from_json(f) for f in obj["functions"]
            ],
            noqa_file=obj["noqa_file"],
            noqa_lines={
                int(line): names
                for line, names in obj["noqa_lines"].items()
            },
            from_cache=True,
        )


def extract_file(
    source: str,
    reported: str,
    module: str,
    digest: str,
    rules: Sequence[Rule],
) -> FileSummary:
    """Parse one in-memory module and build its full (cacheable) summary."""
    summary = FileSummary(path=reported, module=module, digest=digest)
    try:
        tree = ast.parse(source, filename=reported)
    except SyntaxError as exc:
        summary.parse_error = str(exc)
        return summary
    summary.noqa_file, summary.noqa_lines = parse_noqa(source.splitlines())
    ctx = FileContext(path=reported, tree=tree)
    for rule in rules:
        if not rule.applies_to(reported):
            continue
        for violation in rule.check_module(ctx):
            if summary.suppresses(violation):
                summary.suppressed += 1
            else:
                summary.violations.append(violation)
    summary.functions = extract_functions(tree, module)
    return summary


# -- content-addressed cache -------------------------------------------


class AnalysisCache:
    """Per-file summary cache, content-addressed like the lab store.

    The key digests the file's *source bytes* together with the
    rule-pack fingerprint, so both edits and rule changes miss
    naturally; entries never need invalidation, only garbage
    collection. Writes are atomic-replace so a crashed run cannot
    leave a torn entry (a torn entry would otherwise poison every
    later run of the same tree).
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = (
            Path(root) if root is not None
            else default_store_root() / "analysis"
        )
        self.hits = 0
        self.misses = 0

    def key_for(
        self, source: bytes, pack: str, reported: str, module: str
    ) -> str:
        # The reported path and module name are part of the key:
        # summaries embed both, so two identical files (every empty
        # __init__.py) must not share an entry, nor one file linted
        # under two names (a named file, a renamed duplicate).
        return payload_digest(
            {
                "source": source.decode("utf-8", "replace"),
                "pack": pack,
                "path": reported,
                "module": module,
            }
        )

    def _entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[FileSummary]:
        entry = self._entry_path(key)
        try:
            obj = json.loads(entry.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        if obj.get("schema") != ANALYSIS_SCHEMA_VERSION:
            self.misses += 1
            return None
        self.hits += 1
        return FileSummary.from_json(obj)

    def save(self, key: str, summary: FileSummary) -> None:
        text = json.dumps(summary.to_json(), sort_keys=True)
        # Cache entries are disposable, so skip the fsync the run-state
        # writers pay; the atomic replace alone prevents torn entries.
        atomic_write_text(self._entry_path(key), text, fsync=False)


class _NullCache(AnalysisCache):
    """Cache-off mode: everything misses, nothing is written."""

    def __init__(self) -> None:
        super().__init__(root=Path("."))

    def load(self, key: str) -> Optional[FileSummary]:
        self.misses += 1
        return None

    def save(self, key: str, summary: FileSummary) -> None:
        return None


# -- the program run ---------------------------------------------------


@dataclass
class LintReport:
    """Outcome of one lint run: findings plus cache/baseline bookkeeping."""

    violations: List[LintViolation] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    baseline_suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    def render_human(self) -> str:
        out = [v.render() for v in sorted(
            self.violations, key=lambda v: (v.path, v.line, v.col, v.rule)
        )]
        for path, error in self.parse_errors:
            out.append(f"{path}: parse error: {error}")
        out.append(
            f"{len(self.violations)} violation(s), {self.suppressed} "
            f"suppressed, {self.files_checked} file(s) checked"
        )
        extra = (
            f"cache: {self.cache_hits} hit(s), "
            f"{self.cache_misses} miss(es)"
        )
        if self.baseline_suppressed:
            extra += f"; baseline: {self.baseline_suppressed} known finding(s)"
        out.append(extra)
        return "\n".join(out)

    def render_json(self) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "files_checked": self.files_checked,
                "suppressed": self.suppressed,
                "parse_errors": [
                    {"path": p, "error": e} for p, e in self.parse_errors
                ],
                "violations": [v.as_payload() for v in self.violations],
                "cache": {
                    "hits": self.cache_hits, "misses": self.cache_misses,
                },
                "baseline_suppressed": self.baseline_suppressed,
            },
            indent=1,
        )


def _package_root(directory: Path) -> Path:
    """The parent of the outermost package holding ``directory`` (the
    directory itself outside a package).

    Module names are relative to it, so a file gets its import name
    whether the file, its package or the directory above was named:
    ``repro lint --changed`` links the call graph a directory run does.
    """
    root = directory.resolve()
    while (root / "__init__.py").is_file() and root.parent != root:
        root = root.parent
    return root


def _roots_for(paths: Iterable[str]) -> List[Path]:
    roots: List[Path] = []
    for raw in paths:
        base = Path(raw)
        roots.append(_package_root(base if base.is_dir() else base.parent))
    roots.append(Path.cwd())
    return roots


def _path_module(reported: str) -> str:
    """A module name spelled from a reported path (``a/b/c.py`` ->
    ``a.b.c``), unique because the path is."""
    path = Path(reported).with_suffix("")
    return ".".join(p for p in path.parts if p not in (path.anchor, ".."))


def _module_names(
    files: Sequence[Tuple[Path, str]], roots: Sequence[Path]
) -> Dict[str, str]:
    """Each discovered file's module name, by reported path.

    Files the roots give one name (a ``conftest.py`` directly under
    two named directories that are not packages) are named by their
    reported paths instead, so neither's function summaries replace
    the other's and each maps back to its own file.
    """
    names = {
        reported: module_name_for(path, roots) for path, reported in files
    }
    taken = Counter(names.values())
    return {
        reported: _path_module(reported) if taken[name] > 1 else name
        for reported, name in names.items()
    }


def analyze_paths(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
    cache: Optional[AnalysisCache] = None,
    rule_filter: Optional[Set[str]] = None,
) -> LintReport:
    """Run every rule (default: the registry's) over ``paths``.

    ``rule_filter`` (rule ids) narrows *reporting*, not extraction:
    cache entries always hold the full pack's findings so a scoped run
    (``--rules``) and a full run share cache entries.
    """
    if rules is None:
        rules = all_rules()
    if cache is None:
        cache = AnalysisCache()
    pack = pack_fingerprint(rules)
    files = discover_files(paths)
    modules = _module_names(files, _roots_for(paths))

    def summarize(item: Tuple[Path, str]) -> FileSummary:
        path, reported = item
        module = modules[reported]
        try:
            raw_bytes = path.read_bytes()
        except OSError as exc:
            summary = FileSummary(path=reported, module=module, digest="")
            summary.parse_error = str(exc)
            return summary
        key = cache.key_for(raw_bytes, pack, reported, module)
        cached = cache.load(key)
        if cached is not None:
            return cached
        summary = extract_file(
            source=raw_bytes.decode("utf-8"),
            reported=reported,
            module=module,
            digest=key,
            rules=rules,
        )
        cache.save(key, summary)
        return summary

    summaries = [summarize(item) for item in files]

    report = LintReport(files_checked=len(summaries))
    by_path: Dict[str, FileSummary] = {}
    module_paths: Dict[str, str] = {}
    functions: List[FunctionSummary] = []
    for summary in summaries:
        by_path[summary.path] = summary
        if summary.parse_error is not None:
            report.parse_errors.append((summary.path, summary.parse_error))
            continue
        module_paths[summary.module] = summary.path
        functions.extend(summary.functions)
        report.violations.extend(summary.violations)
        report.suppressed += summary.suppressed

    index = ProgramIndex(SymbolTable(functions), module_paths)
    for rule in rules:
        for violation in rule.check_program(index):
            holder = by_path.get(violation.path)
            if holder is not None and holder.suppresses(violation):
                report.suppressed += 1
            else:
                report.violations.append(violation)

    if rule_filter is not None:
        report.violations = [
            v for v in report.violations if v.rule in rule_filter
        ]
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    report.cache_hits = cache.hits
    report.cache_misses = cache.misses
    return report


# -- git-changed support -----------------------------------------------


def changed_files(base: Optional[str] = None) -> List[str]:
    """Python files changed vs ``base`` (default: working tree + index).

    Unknown to git / outside a repo returns an empty list rather than
    raising — ``repro lint --changed`` then simply lints nothing, which
    is the honest answer for an unversioned tree.
    """
    commands = [
        ["git", "diff", "--name-only", "--diff-filter=d"]
        + ([base] if base else []),
        ["git", "diff", "--name-only", "--diff-filter=d", "--cached"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ]
    found: List[str] = []
    seen: Set[str] = set()
    for command in commands:
        try:
            result = subprocess.run(
                command,
                capture_output=True,
                text=True,
                check=False,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return []
        if result.returncode != 0:
            continue
        for line in result.stdout.splitlines():
            name = line.strip()
            if (
                name.endswith(".py")
                and name not in seen
                and Path(name).exists()
            ):
                seen.add(name)
                found.append(name)
    return sorted(found)


# -- baseline ----------------------------------------------------------


def violation_fingerprint(violation: LintViolation, index: int) -> str:
    """Stable identity for baseline diffing.

    Line numbers churn on every unrelated edit, so the fingerprint uses
    the rule, the path, the digit-normalized message, and an occurrence
    index among identical (rule, path, message) triples — a finding
    only reads as *new* when a genuinely new instance appears.
    """
    message = _DIGITS.sub("#", violation.message)
    return f"{violation.rule}|{violation.path}|{message}|{index}"


def report_fingerprints(violations: Iterable[LintViolation]) -> List[str]:
    counts: Dict[Tuple[str, str, str], int] = {}
    fingerprints: List[str] = []
    ordered = sorted(
        violations, key=lambda v: (v.path, v.line, v.col, v.rule)
    )
    for violation in ordered:
        key = (
            violation.rule,
            violation.path,
            _DIGITS.sub("#", violation.message),
        )
        index = counts.get(key, 0)
        counts[key] = index + 1
        fingerprints.append(violation_fingerprint(violation, index))
    return fingerprints


def load_baseline(path: Path) -> Optional[Set[str]]:
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if obj.get("schema") != BASELINE_SCHEMA_VERSION:
        return None
    return set(obj.get("fingerprints", []))


def write_baseline(path: Path, report: LintReport) -> int:
    fingerprints = report_fingerprints(report.violations)
    payload = {
        "schema": BASELINE_SCHEMA_VERSION,
        "tool": f"repro-lint/{__version__}",
        "fingerprints": sorted(fingerprints),
    }
    atomic_write_text(
        path, json.dumps(payload, indent=1) + "\n", fsync=False
    )
    return len(fingerprints)


def apply_baseline(report: LintReport, baseline: Set[str]) -> LintReport:
    """Drop findings already in the baseline; keep genuinely new ones."""
    fingerprints = report_fingerprints(report.violations)
    ordered = sorted(
        report.violations, key=lambda v: (v.path, v.line, v.col, v.rule)
    )
    fresh: List[LintViolation] = []
    for violation, fingerprint in zip(ordered, fingerprints):
        if fingerprint in baseline:
            report.baseline_suppressed += 1
        else:
            fresh.append(violation)
    report.violations = fresh
    return report


# -- SARIF export ------------------------------------------------------


def to_sarif(
    report: LintReport, catalogue: Sequence[Dict[str, str]]
) -> Dict[str, Any]:
    """SARIF 2.1.0 document for ``report`` (one run, one driver)."""
    rule_ids = sorted({v.rule for v in report.violations})
    known = {row["id"]: row for row in catalogue}
    sarif_rules = []
    rule_index: Dict[str, int] = {}
    for position, rule_id in enumerate(rule_ids):
        row = known.get(rule_id, {})
        sarif_rules.append(
            {
                "id": rule_id,
                "name": row.get("name", rule_id),
                "shortDescription": {"text": row.get("name", rule_id)},
                "fullDescription": {
                    "text": row.get("description", rule_id)
                },
                "defaultConfiguration": {"level": "warning"},
            }
        )
        rule_index[rule_id] = position
    results = []
    for violation in sorted(
        report.violations, key=lambda v: (v.path, v.line, v.col, v.rule)
    ):
        results.append(
            {
                "ruleId": violation.rule,
                "ruleIndex": rule_index[violation.rule],
                "level": "warning",
                "message": {"text": violation.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": violation.path,
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {
                                "startLine": violation.line,
                                "startColumn": max(violation.col, 1),
                                "endLine": max(
                                    violation.end_line, violation.line
                                ),
                            },
                        }
                    }
                ],
            }
        )
    for path, error in report.parse_errors:
        results.append(
            {
                "ruleId": "PARSE",
                "level": "error",
                "message": {"text": f"parse error: {error}"},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": path,
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {"startLine": 1, "startColumn": 1},
                        }
                    }
                ],
            }
        )
    return {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro/docs/analysis"
                        ),
                        "version": __version__,
                        "rules": sarif_rules,
                    }
                },
                "columnKind": "unicodeCodePoints",
                "results": results,
            }
        ],
    }


__all__ = [
    "ANALYSIS_SCHEMA_VERSION",
    "AnalysisCache",
    "BASELINE_SCHEMA_VERSION",
    "FileSummary",
    "LintReport",
    "_NullCache",
    "analyze_paths",
    "apply_baseline",
    "changed_files",
    "discover_files",
    "extract_file",
    "load_baseline",
    "pack_fingerprint",
    "parse_noqa",
    "report_fingerprints",
    "reported_path",
    "to_sarif",
    "violation_fingerprint",
    "write_baseline",
]
