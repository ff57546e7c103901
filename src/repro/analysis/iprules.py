"""The whole-program rule family: races, reachability, taint.

These rules ride on :mod:`repro.analysis.program` rather than the
per-file engine because each one needs facts a single file cannot
provide — a call graph, a taint fixpoint, or (for the RACE rules) the
await-annotated control flow of :mod:`repro.analysis.cfg`:

=========  ==========================================================
RACE001    shared-attribute read-modify-write spanning an ``await``
           without a lock (the serve singleflight/shard maps are
           exactly this shape when written wrong)
RACE002    fire-and-forget ``create_task``/``ensure_future`` with no
           exception sink — failures vanish, tasks may be GC'd
SRV002     blocking-call *reachability*: a serve coroutine calls a
           helper that (transitively) blocks, one or more frames deep
           — generalizes SRV001 beyond direct calls
RES002     interprocedural atomic-write enforcement: lab/resilience
           code must not reach a raw ``open(..., "w")`` through any
           call chain that bypasses ``repro.resilience.atomic``
DET001    determinism taint: wall-clock / unseeded-RNG values flowing
           through assignments and return values into a
           pipeline/interval/frontend call
OBS003     trace-context propagation: serve/lab code recording spans
           must link them into the request tree (``parent_id=``) —
           an orphan span renders as a detached root in every export
=========  ==========================================================

RACE rules run at extraction time (they need the AST) and their
violations are cached in the per-file summary; the other three run on
the cached :class:`~repro.analysis.callgraph.FunctionSummary` graph on
every invocation, which is what makes warm ``repro lint`` reruns
near-instant. All five honour the standard ``# repro: noqa[...]``
suppressions at the violation's statement.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type

from repro.analysis.callgraph import (
    CallSite,
    FunctionSummary,
    SymbolTable,
)
from repro.analysis.cfg import scan_orphan_tasks, scan_race_windows
from repro.analysis.engine import LintViolation

#: Module components marking determinism-critical simulation code.
SIM_PARTS = frozenset({"pipeline", "interval", "frontend"})

#: Module components owning event-loop code (SRV002 callers).
SERVE_PARTS = frozenset({"serve",})

#: Module components whose writes must be crash-safe (RES002 callers).
DURABLE_PARTS = frozenset({"lab", "resilience"})


def _module_parts(module: str) -> Set[str]:
    return set(module.split("."))


def _is_atomic_module(module: str) -> bool:
    parts = module.split(".")
    return parts[-1] == "atomic" and "resilience" in parts


class ProgramIndex:
    """What a program-level rule sees: summaries + module locations."""

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


class ProgramRule:
    """Base class for whole-program rules.

    ``check_module`` runs at extraction time with the AST in hand (its
    findings are cached per file); ``check_program`` runs on the
    assembled summary graph each invocation. A rule implements one or
    both.
    """

    id: str = ""
    name: str = ""
    description: str = ""
    scope: Optional[Tuple[str, ...]] = None

    def check_module(
        self, tree: ast.Module, module: str, path: str
    ) -> Iterator[LintViolation]:
        return iter(())

    def check_program(self, index: ProgramIndex) -> Iterator[LintViolation]:
        return iter(())


PROGRAM_RULE_REGISTRY: Dict[str, Type[ProgramRule]] = {}


def register_program(rule_cls: Type[ProgramRule]) -> Type[ProgramRule]:
    if not rule_cls.id:
        raise ValueError(f"program rule {rule_cls.__name__} has no id")
    if rule_cls.id in PROGRAM_RULE_REGISTRY:
        raise ValueError(f"duplicate program rule id {rule_cls.id!r}")
    PROGRAM_RULE_REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_program_rules() -> List[ProgramRule]:
    return [cls() for _, cls in sorted(PROGRAM_RULE_REGISTRY.items())]


# -- RACE001 / RACE002 (extraction-time, AST-backed) -------------------


@register_program
class SharedStateRaceRule(ProgramRule):
    """Read-modify-write of shared state across an ``await``.

    On one event loop, an ``await`` is the only place another handler
    can run. ``v = self.x`` … ``await …`` … ``self.x = f(v)`` silently
    discards every update that landed during the suspension — the
    classic lost-update race that corrupts singleflight and shard maps
    under concurrent load. Claim before the await (write first) or
    hold an ``async with`` lock across the window.
    """

    id = "RACE001"
    name = "await-spanning-rmw"
    description = (
        "no shared self.<attr> read-modify-write spanning an await "
        "without a lock; claim synchronously before awaiting or hold "
        "an async lock (escape hatch: # repro: noqa[RACE001])"
    )

    def check_module(
        self, tree: ast.Module, module: str, path: str
    ) -> Iterator[LintViolation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for window in scan_race_windows(node):
                yield LintViolation(
                    rule=self.id,
                    path=path,
                    line=window.write_line,
                    col=window.write_col,
                    end_line=window.write_end_line,
                    message=(
                        f"write to self.{window.attr} in {node.name!r} "
                        f"completes a read-modify-write started on line "
                        f"{window.read_line} across the await on line "
                        f"{window.await_line}; another handler may have "
                        "updated it in between — claim before awaiting "
                        "or hold a lock"
                    ),
                )


@register_program
class OrphanTaskRule(ProgramRule):
    """Fire-and-forget tasks with no exception sink.

    A task nobody awaits, gathers, stores, or attaches a callback to
    drops its exception on the floor (asyncio logs it at teardown, at
    best) and may be garbage-collected mid-flight. Keep a reference
    and give it a sink.
    """

    id = "RACE002"
    name = "orphan-task"
    description = (
        "every create_task/ensure_future result needs an exception "
        "sink: await it, gather it, store it, or add_done_callback "
        "(escape hatch: # repro: noqa[RACE002])"
    )

    def check_module(
        self, tree: ast.Module, module: str, path: str
    ) -> Iterator[LintViolation]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.AsyncFunctionDef, ast.FunctionDef)):
                continue
            for orphan in scan_orphan_tasks(node):
                bound = (
                    f"task {orphan.name!r}" if orphan.name
                    else "the task"
                )
                yield LintViolation(
                    rule=self.id,
                    path=path,
                    line=orphan.line,
                    col=orphan.col,
                    end_line=orphan.end_line,
                    message=(
                        f"{orphan.spawn}(...) in {node.name!r} spawns "
                        f"{bound} with no exception sink — await it, "
                        "gather it, store it, or add_done_callback"
                    ),
                )


# -- reachability helpers ----------------------------------------------


def _reachability(
    symtab: SymbolTable,
    seeds: Dict[str, Tuple[str, str, int]],
    blocked_modules: Optional[Set[str]] = None,
) -> Dict[str, Tuple[str, ...]]:
    """Qualnames that can reach a seed, with the shortest hop chain.

    ``seeds`` maps qualname → (what, reason, line). The result maps
    every reaching function (including the seeds themselves, with an
    empty chain) to the tuple of intermediate qualnames ending at a
    seed. Edges into ``blocked_modules`` are not followed.
    """
    reach: Dict[str, Tuple[str, ...]] = {q: () for q in seeds}
    # Reverse edges: callee -> callers.
    callers: Dict[str, List[str]] = {}
    for summary in symtab.functions.values():
        for _, target in symtab.edges_from(summary):
            if blocked_modules and target.module in blocked_modules:
                continue
            callers.setdefault(target.qualname, []).append(summary.qualname)
    frontier = sorted(reach)
    while frontier:
        next_frontier: List[str] = []
        for reached in frontier:
            chain = reach[reached]
            for caller in callers.get(reached, ()):
                if caller in reach:
                    continue
                reach[caller] = (reached,) + chain
                next_frontier.append(caller)
        frontier = sorted(next_frontier)
    return reach


def _chain_text(chain: Tuple[str, ...], limit: int = 3) -> str:
    if not chain:
        return ""
    shown = list(chain[:limit])
    if len(chain) > limit:
        shown.append("…")
    return " -> ".join(shown)


# -- SRV002: blocking-call reachability --------------------------------


@register_program
class BlockingReachabilityRule(ProgramRule):
    """Serve coroutines must not reach blocking calls through helpers.

    SRV001 flags ``time.sleep`` *directly* inside a serve coroutine;
    this rule walks the call graph so the same sleep hidden one (or
    five) frames deep in a synchronous helper is flagged at the
    coroutine's call site. Calls dispatched through
    ``asyncio.to_thread`` / ``run_in_executor`` never create an edge,
    so the blessed pattern stays clean by construction.
    """

    id = "SRV002"
    name = "blocking-reachability"
    description = (
        "no serve/ coroutine may call a helper that transitively "
        "performs blocking I/O or sleeps; route through "
        "asyncio.to_thread (escape hatch: # repro: noqa[SRV002])"
    )
    scope = ("serve",)

    def check_program(self, index: ProgramIndex) -> Iterator[LintViolation]:
        seeds: Dict[str, Tuple[str, str, int]] = {}
        for summary in index.functions():
            if summary.blocking:
                dotted, reason, line = summary.blocking[0]
                seeds[summary.qualname] = (dotted, reason, line)
        reach = _reachability(index.symtab, seeds)
        for summary in index.functions():
            if not summary.is_async:
                continue
            if not (_module_parts(summary.module) & SERVE_PARTS):
                continue
            for site, target in index.symtab.edges_from(summary):
                if target.qualname not in reach:
                    continue
                if target.is_async and (
                    _module_parts(target.module) & SERVE_PARTS
                ):
                    # The callee is serve-scoped loop code itself: the
                    # violation is reported inside it, not at every
                    # caller up the stack.
                    continue
                chain = (target.qualname,) + reach[target.qualname]
                seed_qual = chain[-1]
                dotted, reason, line = seeds[seed_qual]
                where = (
                    f"{index.path_of(index.symtab.functions[seed_qual].module)}"
                    f":{line}"
                )
                yield LintViolation(
                    rule=self.id,
                    path=index.path_of(summary.module),
                    line=site.line,
                    col=site.col,
                    end_line=site.end_line,
                    message=(
                        f"coroutine {summary.name!r} calls "
                        f"{site.callee!r}, which reaches blocking "
                        f"{dotted} at {where} ({reason}) via "
                        f"{_chain_text(chain)}; wrap the call in "
                        "asyncio.to_thread"
                    ),
                )


# -- RES002: interprocedural atomic-write enforcement ------------------


@register_program
class AtomicWriteReachabilityRule(ProgramRule):
    """Lab/resilience code must not reach raw writes via helpers.

    RES001 polices direct ``open(..., "w")`` inside ``lab/`` and
    ``resilience/``; this rule follows call chains out of those
    packages, so a lab job writing its trace through
    ``repro.obs.export`` is held to the same crash-safety bar. The
    violation lands on the *boundary* call site — the first edge out
    of the durable packages that can reach a raw write without passing
    through ``repro.resilience.atomic``.
    """

    id = "RES002"
    name = "non-atomic-write-reachability"
    description = (
        "writes reachable from lab/ or resilience/ call chains must "
        "route through repro.resilience.atomic (escape hatch: "
        "# repro: noqa[RES002])"
    )
    scope = ("lab", "resilience")

    def check_program(self, index: ProgramIndex) -> Iterator[LintViolation]:
        atomic_modules = {
            module for module in index.module_paths
            if _is_atomic_module(module)
        }
        seeds: Dict[str, Tuple[str, str, int]] = {}
        for summary in index.functions():
            if _is_atomic_module(summary.module):
                continue
            if summary.raw_writes:
                what, line = summary.raw_writes[0]
                seeds[summary.qualname] = (what, "raw write", line)
        reach = _reachability(
            index.symtab, seeds, blocked_modules=atomic_modules
        )
        for summary in index.functions():
            parts = _module_parts(summary.module)
            if not (parts & DURABLE_PARTS):
                continue
            for site, target in index.symtab.edges_from(summary):
                if target.qualname not in reach:
                    continue
                target_parts = _module_parts(target.module)
                if target_parts & DURABLE_PARTS:
                    # Still inside the durable packages: the boundary
                    # edge (or RES001 for the direct write) reports it.
                    continue
                chain = (target.qualname,) + reach[target.qualname]
                seed_qual = chain[-1]
                what, _, line = seeds[seed_qual]
                where = (
                    f"{index.path_of(index.symtab.functions[seed_qual].module)}"
                    f":{line}"
                )
                yield LintViolation(
                    rule=self.id,
                    path=index.path_of(summary.module),
                    line=site.line,
                    col=site.col,
                    end_line=site.end_line,
                    message=(
                        f"{summary.name!r} calls {site.callee!r}, which "
                        f"reaches non-atomic {what} at {where} via "
                        f"{_chain_text(chain)}; run-state writes must "
                        "use repro.resilience.atomic"
                    ),
                )


# -- DET001: determinism taint -----------------------------------------


class _TaintState:
    """Fixpoint state: tainted locals per function, tainted returns."""

    def __init__(self, symtab: SymbolTable) -> None:
        self.symtab = symtab
        self.tainted_fns: Set[str] = set()
        self.tainted_locals: Dict[str, Set[str]] = {}

    def _token_tainted(self, token: str, qualname: str) -> bool:
        if token == "entropy":
            return True
        kind, _, value = token.partition(":")
        if kind == "name":
            return value in self.tainted_locals.get(qualname, ())
        if kind == "call":
            target = self.symtab.resolve_call(value)
            return target is not None and target.qualname in self.tainted_fns
        return False

    def tokens_tainted(self, tokens: Iterable[str], qualname: str) -> bool:
        return any(self._token_tainted(t, qualname) for t in tokens)

    def solve(self) -> None:
        """Iterate assignment + return propagation to a fixpoint."""
        changed = True
        while changed:
            changed = False
            for summary in self.symtab.functions.values():
                local = self.tainted_locals.setdefault(
                    summary.qualname, set()
                )
                for name, tokens in summary.assigns:
                    if name not in local and self.tokens_tainted(
                        tokens, summary.qualname
                    ):
                        local.add(name)
                        changed = True
                if summary.qualname not in self.tainted_fns:
                    direct = bool(summary.entropy) and any(
                        "entropy" in tokens for tokens in summary.returns
                    )
                    flowing = any(
                        self.tokens_tainted(tokens, summary.qualname)
                        for tokens in summary.returns
                    )
                    if direct or flowing:
                        self.tainted_fns.add(summary.qualname)
                        changed = True


@register_program
class DeterminismTaintRule(ProgramRule):
    """Wall-clock / unseeded-RNG values must not enter simulation state.

    CLK001 and RNG001 ban entropy *inside* the simulation packages;
    this rule follows the value: a harness helper returning
    ``time.time()`` that ends up as an argument to a
    pipeline/interval/frontend call makes every measured penalty
    machine- and load-dependent, even though no banned call appears in
    the simulation code itself.
    """

    id = "DET001"
    name = "determinism-taint"
    description = (
        "no wall-clock or unseeded-RNG value may flow (through "
        "assignments, returns, call chains) into a pipeline/, "
        "interval/, or frontend/ call (escape hatch: "
        "# repro: noqa[DET001])"
    )
    scope = ("pipeline", "interval", "frontend")

    def check_program(self, index: ProgramIndex) -> Iterator[LintViolation]:
        taint = _TaintState(index.symtab)
        taint.solve()
        for summary in index.functions():
            caller_sim = bool(_module_parts(summary.module) & SIM_PARTS)
            for site in summary.calls:
                target = index.symtab.resolve_call(site.callee)
                target_sim = target is not None and bool(
                    _module_parts(target.module) & SIM_PARTS
                )
                if target_sim:
                    for position, tokens in enumerate(site.arg_tokens):
                        if taint.tokens_tainted(tokens, summary.qualname):
                            yield LintViolation(
                                rule=self.id,
                                path=index.path_of(summary.module),
                                line=site.line,
                                col=site.col,
                                end_line=site.end_line,
                                message=(
                                    f"argument {position + 1} of "
                                    f"{site.callee!r} derives from a "
                                    "wall-clock or unseeded-RNG value; "
                                    "simulation inputs must be "
                                    "deterministic (seed them "
                                    "explicitly)"
                                ),
                            )
                            break
                elif caller_sim and target is not None and (
                    target.qualname in taint.tainted_fns
                ):
                    yield LintViolation(
                        rule=self.id,
                        path=index.path_of(summary.module),
                        line=site.line,
                        col=site.col,
                        end_line=site.end_line,
                        message=(
                            f"{summary.name!r} calls {site.callee!r}, "
                            "whose return value derives from a "
                            "wall-clock or unseeded-RNG source; "
                            "simulation state must be a pure function "
                            "of trace + config"
                        ),
                    )


# -- OBS003: trace-context propagation ----------------------------------

#: Module components whose span recording must stay tree-linked.
TRACED_PARTS = frozenset({"serve", "lab"})


@register_program
class TraceContextPropagationRule(ProgramRule):
    """Spans recorded on the serve/lab path must join the request tree.

    A ``SpanCollector.start(trace_id=...)`` or ``add_complete(...)``
    call that omits ``parent_id=`` creates a span that shares the
    request's trace id but hangs off nothing — Perfetto renders it as
    a second root, and :func:`fold_latency_stack_records` cannot
    attribute its time, silently breaking the sum-to-wall identity.
    Only the one request-root span per trace may be parentless, and
    that is the service's job; every other recording site must thread
    ``parent_id`` from the ambient :func:`current_context`.

    Runs at extraction time (it only needs the call expression), self-
    scoped to serve/ and lab/ modules like the other whole-program
    rules scope their reports.
    """

    id = "OBS003"
    name = "trace-context-propagation"
    description = (
        "serve/lab span recordings (collector.start/add_complete with "
        "an explicit trace_id) must pass parent_id= so the span joins "
        "the request tree; thread it from "
        "repro.obs.context.current_context() (escape hatch: "
        "# repro: noqa[OBS003])"
    )
    scope = ("serve", "lab")

    def check_module(
        self, tree: ast.Module, module: str, path: str
    ) -> Iterator[LintViolation]:
        if not (_module_parts(module) & TRACED_PARTS):
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in ("start", "add_complete"):
                continue
            kwargs = {kw.arg for kw in node.keywords if kw.arg is not None}
            # A **splat may carry parent_id; give it the benefit of
            # the doubt rather than false-positive on dynamic kwargs.
            has_splat = any(kw.arg is None for kw in node.keywords)
            if "trace_id" not in kwargs:
                # `.start()` is a common lifecycle verb (shards,
                # servers); only the span-recording signature — which
                # requires trace_id — is in scope.
                continue
            if "parent_id" in kwargs or has_splat:
                continue
            yield LintViolation(
                rule=self.id,
                path=path,
                line=node.lineno,
                col=node.col_offset,
                end_line=getattr(node, "end_lineno", node.lineno),
                message=(
                    f"span recording {func.attr!r} passes trace_id but "
                    "no parent_id — the span detaches from the request "
                    "tree (a second root in the export; excluded from "
                    "the latency stack); thread parent_id from "
                    "current_context().span_id"
                ),
            )


def program_rule_catalogue() -> List[Dict[str, str]]:
    rows = []
    for rule in all_program_rules():
        rows.append(
            {
                "id": rule.id,
                "name": rule.name,
                "description": rule.description,
                "scope": ", ".join(rule.scope) if rule.scope else "everywhere",
            }
        )
    return rows


__all__ = [
    "AtomicWriteReachabilityRule",
    "BlockingReachabilityRule",
    "DeterminismTaintRule",
    "OrphanTaskRule",
    "PROGRAM_RULE_REGISTRY",
    "ProgramIndex",
    "ProgramRule",
    "SharedStateRaceRule",
    "TraceContextPropagationRule",
    "all_program_rules",
    "program_rule_catalogue",
    "register_program",
    "SIM_PARTS",
    "TRACED_PARTS",
]
