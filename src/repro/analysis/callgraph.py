"""Symbol table and call graph for the whole-program analysis pass.

The extraction half of ``repro.analysis.program``: one pass over a
parsed module produces a JSON-serializable :class:`FunctionSummary`
per function — everything the interprocedural rules need, with the AST
thrown away afterwards. Summaries are what the content-addressed
analysis cache stores, so they must capture *all* cross-file facts:

- **resolved call sites**: every call's dotted callee name, resolved
  through the module's import table into an absolute name
  (``repro.obs.export.write_jsonl``), with per-argument taint tokens;
- **direct blocking operations** (``time.sleep``, subprocess, file
  I/O) for SRV002 reachability;
- **direct raw write operations** (``open(..., "w")`` and friends
  outside :mod:`repro.resilience.atomic`) for RES002 reachability;
- **entropy sources** (wall clock, unseeded RNG) plus assignment and
  return dataflow tokens for the DET001 taint fixpoint.

Resolution is deliberately conservative: a call we cannot resolve
(``obj.method()`` on an unknown receiver) simply produces no edge, so
the interprocedural rules under-approximate rather than guess. Method
calls on ``self`` resolve to the enclosing class; plain names resolve
through imports and module-level definitions.

Taint tokens are flat strings: ``entropy`` (a direct source in the
expression), ``call:<dotted>`` (the value of a call — tainted iff the
callee is), ``name:<local>`` (a local variable — tainted iff one of
its assignments is). :class:`SymbolTable` resolves them at program
level after the cache has been consulted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import walk_own

#: The hazard tables. Each is written once, here: the direct rules
#: (RNG001, CLK001, OBS001, SRV001, RES001) match them in one file, and
#: extraction records them as the facts the reachability rules (SRV002,
#: RES002, DET001) follow across calls.

#: Calls that block the calling thread (the SRV002 seed set). Maps the
#: resolved dotted name to a short reason.
BLOCKING_CALLS: Dict[str, str] = {
    "time.sleep": "time.sleep blocks the thread",
    "subprocess.run": "subprocess.run blocks until the child exits",
    "subprocess.call": "subprocess.call blocks until the child exits",
    "subprocess.check_call": "subprocess.check_call blocks",
    "subprocess.check_output": "subprocess.check_output blocks",
    "subprocess.Popen": "process spawn does blocking syscalls",
    "os.system": "os.system blocks until the shell exits",
    "os.wait": "os.wait blocks",
    "os.waitpid": "os.waitpid blocks",
    "socket.create_connection": "socket connect blocks",
    "shutil.copy": "file copy is blocking I/O",
    "shutil.copy2": "file copy is blocking I/O",
    "shutil.copytree": "tree copy is blocking I/O",
    "shutil.rmtree": "tree removal is blocking I/O",
}

#: Path methods that write the file in place (raw writes, like a
#: write-mode ``open``).
WRITE_PATH_METHODS = ("write_text", "write_bytes")

#: Attribute methods that do file I/O regardless of receiver type.
BLOCKING_PATH_METHODS = ("read_text", "read_bytes") + WRITE_PATH_METHODS

#: Interval timers: the wall-clock reads phase timing uses (OBS001).
TIMER_CALLS = (
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
)

#: Every wall-clock read: the timers, timestamps and dates (CLK001).
WALL_CLOCK_CALLS = TIMER_CALLS + (
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
)

#: Modules whose draws are seeded from process entropy (RNG001).
RNG_MODULES = ("random", "numpy.random")

#: Entropy sources for DET001 (resolved dotted names). ``random.Random``
#: only counts when called with no arguments (unseeded).
ENTROPY_CALLS: Dict[str, str] = {
    **{name: "wall clock" for name in WALL_CLOCK_CALLS},
    "random.random": "unseeded RNG",
    "random.randint": "unseeded RNG",
    "random.randrange": "unseeded RNG",
    "random.choice": "unseeded RNG",
    "random.uniform": "unseeded RNG",
    "random.gauss": "unseeded RNG",
    "random.getrandbits": "unseeded RNG",
    "random.shuffle": "unseeded RNG",
    "numpy.random.random": "unseeded RNG",
    "numpy.random.rand": "unseeded RNG",
    "numpy.random.randn": "unseeded RNG",
    "numpy.random.randint": "unseeded RNG",
    "os.urandom": "process entropy",
    "os.getpid": "process identity",
    "uuid.uuid1": "process entropy",
    "uuid.uuid4": "process entropy",
    "secrets.token_bytes": "process entropy",
    "secrets.token_hex": "process entropy",
    "secrets.randbits": "process entropy",
}

#: Module aliases normalized before table lookups (``np.random.rand``
#: counts as ``numpy.random.rand``).
_ALIAS_PREFIXES = {"np.": "numpy."}

#: Off-loop trampolines: a function *referenced* (not called) as their
#: argument runs in a worker thread, so it is never a loop-blocking edge.
TO_THREAD_CALLS = frozenset({
    "asyncio.to_thread",
    "loop.run_in_executor",
})

_WRITE_CHARS = ("w", "a", "x", "+")

#: What :func:`open_write_mode` returns for a mode it cannot read.
DYNAMIC_MODE = "<dynamic>"


def module_name_for(path: Path, roots: Sequence[Path]) -> str:
    """Dotted module name of ``path`` relative to the analysis roots.

    The longest root containing the file wins; a leading ``src``
    component is dropped (the repo's package dir layout), and
    ``__init__.py`` names the package itself. Files outside every root
    fall back to their own path components.
    """
    resolved = path.resolve()
    best: Optional[Tuple[int, Path]] = None
    for root in roots:
        root = root.resolve()
        try:
            rel = resolved.relative_to(root)
        except ValueError:
            continue
        if best is None or len(root.parts) > best[0]:
            best = (len(root.parts), rel)
    rel = best[1] if best is not None else Path(*resolved.parts[-3:])
    parts = list(rel.with_suffix("").parts)
    while parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or rel.stem


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute/name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class CallSite:
    """One call expression, resolved as far as imports allow."""

    callee: str
    line: int
    end_line: int
    col: int
    awaited: bool = False
    arg_tokens: List[List[str]] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        return {
            "callee": self.callee,
            "line": self.line,
            "end_line": self.end_line,
            "col": self.col,
            "awaited": self.awaited,
            "args": self.arg_tokens,
        }

    @classmethod
    def from_json(cls, obj: Dict[str, Any]) -> "CallSite":
        return cls(
            callee=obj["callee"],
            line=obj["line"],
            end_line=obj["end_line"],
            col=obj["col"],
            awaited=obj["awaited"],
            arg_tokens=[list(tokens) for tokens in obj["args"]],
        )


@dataclass
class FunctionSummary:
    """Everything the program rules need to know about one function."""

    qualname: str        # module-qualified: repro.serve.service.Shard.submit
    module: str
    name: str            # within-module qualifier: Shard.submit
    lineno: int
    end_lineno: int
    is_async: bool
    calls: List[CallSite] = field(default_factory=list)
    #: (dotted, reason, line) — direct blocking operations.
    blocking: List[Tuple[str, str, int]] = field(default_factory=list)
    #: (description, line) — direct non-atomic write operations.
    raw_writes: List[Tuple[str, int]] = field(default_factory=list)
    #: (dotted, reason, line) — direct entropy sources.
    entropy: List[Tuple[str, str, int]] = field(default_factory=list)
    #: target name -> taint tokens from each assignment to it.
    assigns: List[Tuple[str, List[str]]] = field(default_factory=list)
    #: taint tokens appearing in return expressions.
    returns: List[List[str]] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "module": self.module,
            "name": self.name,
            "lineno": self.lineno,
            "end_lineno": self.end_lineno,
            "is_async": self.is_async,
            "calls": [call.to_json() for call in self.calls],
            "blocking": [list(item) for item in self.blocking],
            "raw_writes": [list(item) for item in self.raw_writes],
            "entropy": [list(item) for item in self.entropy],
            "assigns": [[name, list(tokens)] for name, tokens in self.assigns],
            "returns": [list(tokens) for tokens in self.returns],
        }

    @classmethod
    def from_json(cls, obj: Dict[str, Any]) -> "FunctionSummary":
        return cls(
            qualname=obj["qualname"],
            module=obj["module"],
            name=obj["name"],
            lineno=obj["lineno"],
            end_lineno=obj["end_lineno"],
            is_async=obj["is_async"],
            calls=[CallSite.from_json(c) for c in obj["calls"]],
            blocking=[tuple(item) for item in obj["blocking"]],
            raw_writes=[tuple(item) for item in obj["raw_writes"]],
            entropy=[tuple(item) for item in obj["entropy"]],
            assigns=[(name, list(tokens)) for name, tokens in obj["assigns"]],
            returns=[list(tokens) for tokens in obj["returns"]],
        )


class ImportTable:
    """Local-name → absolute-dotted-name bindings for one module."""

    def __init__(self, module: str, tree: ast.Module) -> None:
        self.module = module
        self.bindings: Dict[str, str] = {}
        package = module.rsplit(".", 1)[0] if "." in module else ""
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.bindings[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".", 1)[0]
                        self.bindings.setdefault(root, root)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # Relative import: climb from the module's package.
                    parts = module.split(".")
                    anchor = parts[: len(parts) - node.level]
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.bindings[bound] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        # Module-level definitions shadow imports: a plain ``helper()``
        # call resolves to this module's own function, which is what
        # makes intra-module chains visible to the reachability rules.
        for node in tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                self.bindings[node.name] = f"{module}.{node.name}"

    def resolve(self, dotted: str) -> str:
        """Rewrite the leading segment through the import bindings."""
        head, _, rest = dotted.partition(".")
        target = self.bindings.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target


def normalize(dotted: str) -> str:
    """``dotted`` with module aliases spelled out (``np.`` → ``numpy.``)."""
    for prefix, repl in _ALIAS_PREFIXES.items():
        if dotted.startswith(prefix):
            return repl + dotted[len(prefix):]
    return dotted


def _taint_tokens(expr: ast.AST, imports: ImportTable) -> List[str]:
    """Flat taint tokens for one expression (names, calls, sources)."""
    tokens: List[str] = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            tokens.append(f"name:{node.id}")
        elif isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            resolved = normalize(imports.resolve(dotted))
            if resolved in ENTROPY_CALLS or (
                resolved == "random.Random" and not node.args
            ):
                tokens.append("entropy")
            else:
                tokens.append(f"call:{resolved}")
    return sorted(set(tokens))


def _mode_of(node: ast.Call, positional_index: int) -> Optional[str]:
    """The call's mode string, '' when defaulted, None when dynamic."""
    mode: Optional[ast.AST] = None
    if len(node.args) > positional_index:
        mode = node.args[positional_index]
    else:
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
    if mode is None:
        return ""  # defaulted: read mode
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def open_write_mode(node: ast.Call) -> Optional[str]:
    """The mode of an open-like call that writes, else None.

    Open-like calls are builtin ``open(file, mode)``, ``os.fdopen(fd,
    mode)`` and ``Path.open(mode)``. A mode that is not a literal
    returns :data:`DYNAMIC_MODE`; read modes and other calls return
    None.
    """
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _mode_of(node, 1)
    elif isinstance(func, ast.Attribute) and func.attr == "fdopen":
        mode = _mode_of(node, 1)
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        mode = _mode_of(node, 0)
    else:
        return None
    if mode is None:
        return DYNAMIC_MODE
    if any(ch in mode for ch in _WRITE_CHARS):
        return mode
    return None


def raw_write_of(node: ast.Call) -> Optional[str]:
    """Description when the call writes a file without the atomic helpers."""
    mode = open_write_mode(node)
    if mode == DYNAMIC_MODE:
        return "open(mode=<dynamic>)"
    if mode is not None:
        return f"open(..., {mode!r})"
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in WRITE_PATH_METHODS:
        return f".{func.attr}()"
    return None


def blocking_of(
    node: ast.Call, resolved: str
) -> Optional[Tuple[str, str]]:
    """(dotted, reason) when the call blocks the calling thread."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open", "builtin open() is blocking file I/O"
    normalized = normalize(resolved)
    if normalized in BLOCKING_CALLS:
        return normalized, BLOCKING_CALLS[normalized]
    if isinstance(func, ast.Attribute):
        if func.attr in BLOCKING_PATH_METHODS:
            return f".{func.attr}", f".{func.attr}() is blocking file I/O"
        if func.attr == "open" and isinstance(
            func.value, (ast.Name, ast.Attribute, ast.Call)
        ):
            return ".open", ".open() is blocking file I/O"
    return None


class _FunctionExtractor:
    """Collects one function's summary facts in a single walk."""

    def __init__(
        self,
        func: ast.AST,
        qualname: str,
        module: str,
        name: str,
        imports: ImportTable,
        class_methods: Dict[str, Set[str]],
        own_class: Optional[str],
    ) -> None:
        self.func = func
        self.imports = imports
        self.class_methods = class_methods
        self.own_class = own_class
        self.summary = FunctionSummary(
            qualname=qualname,
            module=module,
            name=name,
            lineno=func.lineno,
            end_lineno=getattr(func, "end_lineno", None) or func.lineno,
            is_async=isinstance(func, ast.AsyncFunctionDef),
        )

    def _resolve_callee(self, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        if head in ("self", "cls") and self.own_class is not None:
            # self.m(): resolve one level of method lookup on the
            # enclosing class when the method is actually defined
            # there; attribute chains and inherited names stay opaque.
            if rest and "." not in rest and rest in self.class_methods.get(
                self.own_class, ()
            ):
                return (
                    f"{self.summary.module}.{self.own_class}.{rest}"
                )
            return dotted
        return normalize(self.imports.resolve(dotted))

    def run(self) -> FunctionSummary:
        awaited_calls: Set[int] = set()
        to_thread_refs: Set[int] = set()
        for node in walk_own(self.func):
            if isinstance(node, ast.Await):
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Call):
                        awaited_calls.add(id(sub))
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func) or ""
                resolved = self._resolve_callee(dotted) if dotted else ""
                if resolved in TO_THREAD_CALLS or (
                    resolved.endswith(".run_in_executor")
                ):
                    # The referenced callable runs off-loop: record no
                    # call edge for it (and none for its arguments).
                    to_thread_refs.add(id(node))
        for node in walk_own(self.func):
            if isinstance(node, ast.Call):
                self._call(node, awaited_calls, to_thread_refs)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if value is None:
                    continue
                tokens = _taint_tokens(value, self.imports)
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for t in self._target_names(target):
                        self.summary.assigns.append((t, tokens))
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    tokens = _taint_tokens(node.value, self.imports)
                    tokens = sorted(set(
                        tokens + [f"name:{node.target.id}"]
                    ))
                    self.summary.assigns.append((node.target.id, tokens))
            elif isinstance(node, ast.Return) and node.value is not None:
                self.summary.returns.append(
                    _taint_tokens(node.value, self.imports)
                )
        return self.summary

    @staticmethod
    def _target_names(target: ast.AST) -> List[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            names: List[str] = []
            for element in target.elts:
                names.extend(_FunctionExtractor._target_names(element))
            return names
        if isinstance(target, ast.Starred):
            return _FunctionExtractor._target_names(target.value)
        return []

    def _call(
        self,
        node: ast.Call,
        awaited_calls: Set[int],
        to_thread_refs: Set[int],
    ) -> None:
        dotted = dotted_name(node.func)
        # An unresolvable callee (e.g. ``Path(p).open(...)`` — the
        # receiver is itself a call) still carries blocking / raw-write
        # facts; only the call *edge* needs a dotted name.
        resolved = self._resolve_callee(dotted) if dotted else ""
        if dotted is not None and id(node) not in to_thread_refs:
            self.summary.calls.append(CallSite(
                callee=resolved,
                line=node.lineno,
                end_line=getattr(node, "end_lineno", None) or node.lineno,
                col=node.col_offset + 1,
                awaited=id(node) in awaited_calls,
                arg_tokens=[
                    _taint_tokens(arg, self.imports)
                    for arg in list(node.args)
                    + [kw.value for kw in node.keywords]
                ],
            ))
        blocking = blocking_of(node, resolved)
        if blocking is not None:
            self.summary.blocking.append(
                (blocking[0], blocking[1], node.lineno)
            )
        raw = raw_write_of(node)
        if raw is not None:
            self.summary.raw_writes.append((raw, node.lineno))
        if resolved in ENTROPY_CALLS:
            self.summary.entropy.append(
                (resolved, ENTROPY_CALLS[resolved], node.lineno)
            )
        elif resolved == "random.Random" and not node.args:
            self.summary.entropy.append(
                (resolved, "unseeded RNG", node.lineno)
            )


def extract_functions(
    tree: ast.Module, module: str
) -> List[FunctionSummary]:
    """Summaries for every function/method defined in one module."""
    imports = ImportTable(module, tree)
    class_methods: Dict[str, Set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            class_methods[node.name] = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
    summaries: List[FunctionSummary] = []

    def visit(body: Iterable[ast.stmt], prefix: str, own_class: Optional[str]):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{node.name}" if prefix else node.name
                extractor = _FunctionExtractor(
                    node,
                    qualname=f"{module}.{name}",
                    module=module,
                    name=name,
                    imports=imports,
                    class_methods=class_methods,
                    own_class=own_class,
                )
                summaries.append(extractor.run())
                visit(node.body, f"{name}.", own_class)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{node.name}.", node.name)
    visit(tree.body, "", None)
    return summaries


class SymbolTable:
    """All function summaries of one analysis run, by qualified name."""

    def __init__(self, summaries: Iterable[FunctionSummary]) -> None:
        self.functions: Dict[str, FunctionSummary] = {}
        for summary in summaries:
            self.functions[summary.qualname] = summary

    def __len__(self) -> int:
        return len(self.functions)

    def resolve_call(self, callee: str) -> Optional[FunctionSummary]:
        """The summary a resolved callee name refers to, if any.

        Tries the name as-is, then as a class constructor
        (``pkg.mod.Cls`` → ``pkg.mod.Cls.__init__``).
        """
        found = self.functions.get(callee)
        if found is not None:
            return found
        return self.functions.get(f"{callee}.__init__")

    def edges_from(
        self, summary: FunctionSummary
    ) -> Iterable[Tuple[CallSite, FunctionSummary]]:
        for site in summary.calls:
            target = self.resolve_call(site.callee)
            if target is not None and target is not summary:
                yield site, target


__all__ = [
    "BLOCKING_CALLS",
    "BLOCKING_PATH_METHODS",
    "CallSite",
    "DYNAMIC_MODE",
    "ENTROPY_CALLS",
    "FunctionSummary",
    "ImportTable",
    "RNG_MODULES",
    "SymbolTable",
    "TIMER_CALLS",
    "TO_THREAD_CALLS",
    "WALL_CLOCK_CALLS",
    "WRITE_PATH_METHODS",
    "blocking_of",
    "dotted_name",
    "extract_functions",
    "module_name_for",
    "normalize",
    "open_write_mode",
    "raw_write_of",
]
