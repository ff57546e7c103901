"""What a lint rule is: the rule type, its registry and its findings.

Every rule, per-file or interprocedural, is one :class:`Rule` in one
registry, run by :func:`repro.analysis.program.analyze_paths`. A rule
implements one or both hooks:

- :meth:`Rule.check_module` runs at extraction time on one parsed file
  (a :class:`FileContext`); its findings are cached with the file's
  summary;
- :meth:`Rule.check_program` runs on every invocation over the linked
  function summaries (a :class:`ProgramIndex`).

A rule states where it applies once, in ``scope`` and ``exempt``, and
both hooks read that through :meth:`Rule.applies_to`. Rules never read
the filesystem themselves.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import (
    Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type, Union,
)

from repro.analysis.callgraph import FunctionSummary, SymbolTable

#: The simulation packages: simulated time must be a pure function of
#: the trace and the configuration inside them (CLK001, DET001).
SIM_SCOPE: Tuple[str, ...] = ("pipeline", "interval", "frontend")


@dataclass(frozen=True)
class LintViolation:
    """One rule hit: where, which rule, and what to do about it.

    ``end_line`` is the last physical line of the offending statement
    (== ``line`` for single-line constructs); suppression comments are
    honoured anywhere in that range, so a ``# repro: noqa`` on the
    closing line of a multi-line call works.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    end_line: int = 0

    def __post_init__(self) -> None:
        if self.end_line < self.line:
            object.__setattr__(self, "end_line", self.line)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_payload(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "end_line": self.end_line,
            "message": self.message,
        }


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may inspect about one file."""

    path: str  # as reported (relative when discovered under a root)
    tree: ast.Module


class ProgramIndex:
    """What :meth:`Rule.check_program` sees: summaries + module files."""

    def __init__(
        self,
        symtab: SymbolTable,
        module_paths: Dict[str, str],
    ) -> None:
        self.symtab = symtab
        self.module_paths = module_paths

    def path_of(self, module: str) -> str:
        return self.module_paths.get(module, module)

    def functions(self) -> Iterable[FunctionSummary]:
        return self.symtab.functions.values()

    def modules_in(self, rule: "Rule") -> Set[str]:
        """The modules whose files ``rule`` applies to."""
        return {
            module for module, path in self.module_paths.items()
            if rule.applies_to(path)
        }


#: Where a finding is: an AST node, or a ``(line, col, end_line)``
#: location whose column is already 1-based (a call site or scan result
#: the extraction pass recorded).
Location = Union[ast.AST, Tuple[int, int, int]]


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement
    :meth:`check_module`, :meth:`check_program` or both. ``scope``
    restricts the rule to files whose path contains one of the named
    directories or is the module of that name (``None`` = every file);
    ``exempt`` lists path suffixes the rule never fires on (e.g. the
    one blessed RNG module).
    """

    id: str = ""
    name: str = ""
    description: str = ""
    scope: Optional[Tuple[str, ...]] = None
    exempt: Tuple[str, ...] = ()

    def exempts(self, path: str) -> bool:
        return path.replace("\\", "/").endswith(self.exempt)

    def applies_to(self, path: str) -> bool:
        """Whether the rule polices the file at (reported) ``path``."""
        if self.exempts(path):
            return False
        if self.scope is None:
            return True
        parts = PurePosixPath(path.replace("\\", "/")).parts
        if any(part in self.scope for part in parts[:-1]):
            return True
        # A scope also matches the single-file module of the same name
        # (``serve.py`` for scope "serve"), not just the directory form.
        stem = PurePosixPath(parts[-1]).stem if parts else ""
        return stem in self.scope

    def check_module(self, ctx: FileContext) -> Iterator[LintViolation]:
        """Findings in one file the rule applies to (cached per file)."""
        return iter(())

    def check_program(self, index: ProgramIndex) -> Iterator[LintViolation]:
        """Findings over the linked summaries (run on every invocation)."""
        return iter(())

    def violation(
        self, path: str, at: Location, message: str
    ) -> LintViolation:
        """This rule's finding at ``at`` in ``path``, 1-based column."""
        if isinstance(at, ast.AST):
            line = getattr(at, "lineno", 1)
            at = (
                line,
                getattr(at, "col_offset", 0) + 1,
                getattr(at, "end_lineno", None) or line,
            )
        line, col, end_line = at
        return LintViolation(
            rule=self.id,
            path=path,
            line=line,
            col=col,
            message=message,
            end_line=end_line,
        )


#: Registry of every known rule, keyed by rule id (populated by
#: :func:`register`; ``repro.analysis.rules`` and
#: ``repro.analysis.iprules`` fill it on import).
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if not rule_cls.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id!r}")
    RULE_REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Instantiate every registered rule (importing both packs)."""
    import repro.analysis.iprules  # noqa: F401  (registration side effect)
    import repro.analysis.rules  # noqa: F401

    return [cls() for _, cls in sorted(RULE_REGISTRY.items())]


def rule_catalogue() -> List[Dict[str, str]]:
    """Id/name/description/scope rows for docs and ``lint --list-rules``."""
    return [
        {
            "id": rule.id,
            "name": rule.name,
            "description": rule.description,
            "scope": ", ".join(rule.scope) if rule.scope else "everywhere",
        }
        for rule in all_rules()
    ]


__all__ = [
    "FileContext",
    "LintViolation",
    "Location",
    "ProgramIndex",
    "RULE_REGISTRY",
    "Rule",
    "SIM_SCOPE",
    "all_rules",
    "register",
    "rule_catalogue",
]
