"""Whole-program analysis: cached extraction, program rules, gates.

This module is the v2 engine's orchestrator. One run:

1. **Discover** the python files under the requested paths (optionally
   narrowed to the git-changed set).
2. **Extract** a :class:`FileSummary` per file, serially, holding
   the per-file lint violations (the v1 pack plus the extraction-time
   RACE rules), the function summaries the interprocedural rules need,
   and the file's ``noqa`` map. Extraction is fronted by a
   content-addressed cache keyed on the source digest and the
   rule-pack fingerprint (same hashing as the lab result store), so a
   warm rerun on an unchanged tree never parses a single file. AST
   work holds the GIL, so a thread pool would only add overhead.
3. **Link** the summaries into one :class:`SymbolTable` and run the
   program-level rules (SRV002/RES002/DET001) over the call graph.
   These rules are cheap on summaries — the expensive part (parsing)
   is what the cache elides.
4. **Gate**: optionally subtract a checked-in baseline so CI fails only
   on *new* findings, and render human / JSON / SARIF output.

The cache lives under ``<store root>/analysis/`` next to the lab
result store and honours the same ``REPRO_CACHE_DIR`` override. Every
entry is written atomically (the analysis cache is not run state, so
it skips the fsync).
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
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
    LintReport,
    LintViolation,
    Rule,
    all_rules,
    discover_files,
    _file_suppressions,
    _line_suppresses,
)
from repro.analysis.iprules import (
    ProgramIndex,
    ProgramRule,
    all_program_rules,
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


def pack_fingerprint(
    rules: Sequence[Rule], program_rules: Sequence[ProgramRule]
) -> str:
    """Digest of the rule-pack identity: any rule change invalidates.

    Cached entries always hold the *full* pack's findings (rule-subset
    selection filters afterwards), so the fingerprint covers every
    registered rule id plus the schema and package version.
    """
    return payload_digest(
        {
            "schema": ANALYSIS_SCHEMA_VERSION,
            "version": __version__,
            "rules": sorted(
                [rule.id for rule in rules]
                + [rule.id for rule in program_rules]
            ),
        }
    )


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
        """Apply this file's noqa map to a program-level violation."""
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


def _noqa_map(lines: Sequence[str]) -> Dict[int, Optional[List[str]]]:
    """1-based line → suppressed rule names (None = every rule)."""
    found: Dict[int, Optional[List[str]]] = {}
    for line_no, line in enumerate(lines, start=1):
        if "noqa" not in line:
            continue
        if _line_suppresses(line, "\0"):  # only a blanket noqa matches
            found[line_no] = None
            continue
        # Named form: collect the rules it lists (cheap re-parse).
        match = re.search(r"#\s*repro:\s*noqa\[([\w\s,.-]+)\]", line)
        if match:
            found[line_no] = [
                n.strip() for n in match.group(1).split(",") if n.strip()
            ]
    return found


def extract_file(
    source: str,
    reported: str,
    module: str,
    digest: str,
    rules: Sequence[Rule],
    program_rules: Sequence[ProgramRule],
) -> FileSummary:
    """Parse one file and build its full (cacheable) summary."""
    summary = FileSummary(path=reported, module=module, digest=digest)
    try:
        tree = ast.parse(source, filename=reported)
    except SyntaxError as exc:
        summary.parse_error = str(exc)
        return summary
    lines = tuple(source.splitlines())
    file_suppressed = _file_suppressions(lines)
    summary.noqa_file = (
        sorted(file_suppressed) if file_suppressed is not None else None
    )
    summary.noqa_lines = _noqa_map(lines)
    ctx = FileContext(path=reported, tree=tree, source=source, lines=lines)
    raw: List[LintViolation] = []
    for rule in rules:
        if rule.applies_to(ctx):
            raw.extend(rule.check(ctx))
    for prule in program_rules:
        raw.extend(prule.check_module(tree, module, reported))
    for violation in raw:
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

    def key_for(self, source: bytes, pack: str, reported: str) -> str:
        # The reported path is part of the key: summaries embed the
        # path and module name, so two identical files (every empty
        # __init__.py) must not share an entry.
        return payload_digest(
            {
                "source": source.decode("utf-8", "replace"),
                "pack": pack,
                "path": reported,
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
class ProgramReport(LintReport):
    """A lint report plus program-run bookkeeping."""

    cache_hits: int = 0
    cache_misses: int = 0
    baseline_suppressed: int = 0

    def render_human(self) -> str:
        base = super().render_human()
        extra = (
            f"cache: {self.cache_hits} hit(s), "
            f"{self.cache_misses} miss(es)"
        )
        if self.baseline_suppressed:
            extra += f"; baseline: {self.baseline_suppressed} known finding(s)"
        return f"{base}\n{extra}"

    def render_json(self) -> str:
        obj = json.loads(super().render_json())
        obj["cache"] = {"hits": self.cache_hits, "misses": self.cache_misses}
        obj["baseline_suppressed"] = self.baseline_suppressed
        return json.dumps(obj, indent=1)


def _roots_for(paths: Iterable[str]) -> List[Path]:
    roots: List[Path] = []
    for raw in paths:
        base = Path(raw)
        roots.append(base if base.is_dir() else base.parent)
    roots.append(Path.cwd())
    return roots


def analyze_paths(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
    program_rules: Optional[Sequence[ProgramRule]] = None,
    cache: Optional[AnalysisCache] = None,
    rule_filter: Optional[Set[str]] = None,
) -> ProgramReport:
    """Run the full v2 analysis over ``paths``.

    ``rule_filter`` (rule ids) narrows *reporting*, not extraction:
    cache entries always hold the full pack's findings so a scoped run
    (``--rules``) and a full run share cache entries.
    """
    if rules is None:
        rules = all_rules()
    if program_rules is None:
        program_rules = all_program_rules()
    if cache is None:
        cache = AnalysisCache()
    pack = pack_fingerprint(rules, program_rules)
    files = discover_files(paths)
    roots = _roots_for(paths)

    def summarize(item: Tuple[Path, str]) -> FileSummary:
        path, reported = item
        try:
            raw_bytes = path.read_bytes()
        except OSError as exc:
            summary = FileSummary(
                path=reported,
                module=module_name_for(path, roots),
                digest="",
            )
            summary.parse_error = str(exc)
            return summary
        key = cache.key_for(raw_bytes, pack, reported)
        cached = cache.load(key)
        if cached is not None:
            return cached
        summary = extract_file(
            source=raw_bytes.decode("utf-8"),
            reported=reported,
            module=module_name_for(path, roots),
            digest=key,
            rules=rules,
            program_rules=program_rules,
        )
        cache.save(key, summary)
        return summary

    summaries = [summarize(item) for item in files]

    report = ProgramReport(files_checked=len(summaries))
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
    for prule in program_rules:
        for violation in prule.check_program(index):
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


def apply_baseline(
    report: ProgramReport, baseline: Set[str]
) -> ProgramReport:
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
    "ProgramReport",
    "_NullCache",
    "analyze_paths",
    "apply_baseline",
    "changed_files",
    "extract_file",
    "load_baseline",
    "pack_fingerprint",
    "report_fingerprints",
    "to_sarif",
    "violation_fingerprint",
    "write_baseline",
]
