"""The default rule pack: simulator-specific discipline as lint rules.

Each rule encodes an invariant the paper's methodology depends on —
deterministic simulation (RNG001, CLK001, ORD001), exact accounting
(FLT001), immutable configuration identity for the content-addressed
store (CFG001), and library hygiene that keeps sweeps debuggable
(MUT001, EXC001, PRT001). These rules look at one file at a time
(:meth:`~repro.analysis.engine.Rule.check_module`); the hazard lists
they match (wall clocks, RNG modules, blocking calls, write modes) are
the ones :mod:`repro.analysis.callgraph` records for the reachability
rules. Every rule registers into
:data:`repro.analysis.engine.RULE_REGISTRY` on import.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.callgraph import (
    DYNAMIC_MODE,
    RNG_MODULES,
    TIMER_CALLS,
    WALL_CLOCK_CALLS,
    blocking_of,
    dotted_name,
    normalize,
    open_write_mode,
)
from repro.analysis.engine import (
    SIM_SCOPE,
    FileContext,
    LintViolation,
    Rule,
    register,
)


@register
class UnseededRandomRule(Rule):
    """Stochastic draws must come from ``repro.util.rng``.

    ``random`` and ``numpy.random`` default to process-entropy seeding,
    and even seeded ``random.Random`` may change algorithms across
    Python versions — either silently changes every trace, miss
    pattern, and therefore every measured penalty.
    """

    id = "RNG001"
    name = "unseeded-random"
    description = (
        "no stdlib random / numpy.random outside util/rng.py; use a "
        "seeded SplitMix stream"
    )
    exempt = ("util/rng.py",)

    def check_module(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in RNG_MODULES:
                        yield self.violation(
                            ctx.path, node,
                            f"import of {alias.name!r}; draw from "
                            "repro.util.rng.SplitMix instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module in RNG_MODULES:
                    yield self.violation(
                        ctx.path, node,
                        f"import from {module!r}; draw from "
                        "repro.util.rng.SplitMix instead",
                    )
                elif any(
                    f"{module}.{alias.name}" in RNG_MODULES
                    for alias in node.names
                ):
                    yield self.violation(
                        ctx.path, node,
                        "import of numpy.random; draw from "
                        "repro.util.rng.SplitMix instead",
                    )
            elif isinstance(node, ast.Attribute):
                dotted = dotted_name(node)
                if dotted and normalize(dotted) in RNG_MODULES:
                    yield self.violation(
                        ctx.path, node,
                        f"use of {dotted}; draw from "
                        "repro.util.rng.SplitMix instead",
                    )


@register
class WallClockRule(Rule):
    """No wall-clock reads inside the simulation packages.

    Simulated time must be a pure function of the trace and the
    configuration. Wall-clock reads in the timing model (even "just
    for logging") make results machine- and load-dependent; measure
    wall time at the harness boundary via ``repro.util.timing``.
    """

    id = "CLK001"
    name = "wall-clock"
    description = (
        "no time.*/datetime wall-clock reads in pipeline/, interval/, "
        "frontend/; use repro.util.timing at the harness boundary"
    )
    scope = SIM_SCOPE

    #: The reads as written: ``time.time``, and ``datetime.now`` after
    #: ``from datetime import datetime``.
    _CALLS = frozenset(WALL_CLOCK_CALLS) | {
        name.split(".", 1)[1] for name in WALL_CLOCK_CALLS
        if name.startswith("datetime.")
    }
    #: ``from time import perf_counter``, ``from datetime import date``.
    _FROM_IMPORTS = frozenset(
        name.rsplit(".", 1)[0] if name.startswith("datetime.") else name
        for name in WALL_CLOCK_CALLS
    )

    def check_module(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    if f"{module}.{alias.name}" in self._FROM_IMPORTS:
                        yield self.violation(
                            ctx.path, node,
                            f"wall-clock import {module}.{alias.name} in a "
                            "simulation package",
                        )
            elif isinstance(node, ast.Attribute):
                dotted = dotted_name(node)
                if dotted in self._CALLS:
                    yield self.violation(
                        ctx.path, node,
                        f"wall-clock read {dotted}() in a simulation package",
                    )


def _is_floaty(node: ast.AST) -> bool:
    """Conservatively: expressions that are textually float-valued."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "float"
    if isinstance(node, ast.UnaryOp):
        return _is_floaty(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True  # true division always yields a float
        return _is_floaty(node.left) or _is_floaty(node.right)
    return False


@register
class FloatEqualityRule(Rule):
    """No ``==``/``!=`` against float values in the accounting layer.

    The CPI-stack identity is verified to 1e-9, not to equality;
    exact float comparison in the interval layer either works by
    accident or breaks on the first refactor that reassociates a sum.
    """

    id = "FLT001"
    name = "float-equality"
    description = (
        "no float == / != in interval/; compare with math.isclose or an "
        "explicit tolerance"
    )
    scope = ("interval",)

    def check_module(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_floaty(left) or _is_floaty(right):
                    yield self.violation(
                        ctx.path, node,
                        "exact float comparison; use math.isclose or an "
                        "explicit tolerance",
                    )
                    break


@register
class MutableDefaultRule(Rule):
    """No mutable default arguments.

    A shared default list/dict/set leaks state between calls — in a
    sweep that means between experiment points, which is exactly the
    cross-contamination the lab's process isolation exists to prevent.
    """

    id = "MUT001"
    name = "mutable-default"
    description = "no mutable (list/dict/set) default arguments"

    _CTORS = {"list", "dict", "set", "bytearray"}

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._CTORS
        )

    def check_module(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.violation(
                        ctx.path, default,
                        f"mutable default argument in {node.name}(); "
                        "default to None and construct inside",
                    )


@register
class SetIterationRule(Rule):
    """No direct iteration over sets in the hot simulation packages.

    Set iteration order depends on element hashes and insertion
    history; iterating an event set directly can reorder tie-breaking
    decisions between runs or Python builds. Iterate a list/deque/heap,
    or wrap in ``sorted(...)``.
    """

    id = "ORD001"
    name = "set-iteration"
    description = (
        "no iteration over sets in pipeline/ or interval/ hot paths; "
        "use sorted(...) or an ordered container"
    )
    scope = ("pipeline", "interval")

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def _set_names_in(self, func: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(func):
            value = None
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None or not self._is_set_expr(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    def check_module(self, ctx: FileContext) -> Iterator[LintViolation]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            set_names = self._set_names_in(func)
            for node in ast.walk(func):
                iters: List[ast.AST] = []
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
                for it in iters:
                    if self._is_set_expr(it) or (
                        isinstance(it, ast.Name) and it.id in set_names
                    ):
                        yield self.violation(
                            ctx.path, it,
                            "iteration over a set in a hot path; order is "
                            "hash-dependent — use sorted(...) or an ordered "
                            "container",
                        )


@register
class FrozenConfigRule(Rule):
    """Configuration dataclasses must be frozen.

    The lab's content-addressed store keys results by a canonical
    digest of the configuration; a mutable config could drift between
    digest time and run time, silently mis-filing results.
    """

    id = "CFG001"
    name = "frozen-config"
    description = "@dataclass classes named *Config must set frozen=True"

    def check_module(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Config"):
                continue
            dataclass_deco = None
            frozen = False
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = dotted_name(target) or ""
                if name.split(".")[-1] == "dataclass":
                    dataclass_deco = deco
                    if isinstance(deco, ast.Call):
                        for kw in deco.keywords:
                            if (
                                kw.arg == "frozen"
                                and isinstance(kw.value, ast.Constant)
                                and kw.value.value is True
                            ):
                                frozen = True
            if dataclass_deco is not None and not frozen:
                yield self.violation(
                    ctx.path, node,
                    f"config dataclass {node.name} is not frozen; store "
                    "keys assume immutable configs",
                )


@register
class BareExceptRule(Rule):
    """No bare ``except:`` clauses.

    A bare except swallows KeyboardInterrupt and SystemExit, turning a
    stuck sweep unkillable and hiding the traceback the lab's error
    capture would otherwise record.
    """

    id = "EXC001"
    name = "bare-except"
    description = "no bare except:; catch a concrete exception type"

    def check_module(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    ctx.path, node,
                    "bare except; name the exception type (it also hides "
                    "KeyboardInterrupt)",
                )


@register
class PrintInLibraryRule(Rule):
    """No ``print`` outside the CLI layer.

    Library output belongs in return values; stray prints corrupt the
    machine-readable output of ``repro lint --format=json`` and the
    lab's captured job logs.
    """

    id = "PRT001"
    name = "print-in-library"
    description = "no print() outside cli.py/__main__.py"
    exempt = ("cli.py", "__main__.py")

    def check_module(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.violation(
                    ctx.path, node,
                    "print() in library code; return the text or use the "
                    "CLI layer",
                )


@register
class DirectPhaseTimingRule(Rule):
    """Harness-side wall timing must go through the obs layer.

    The lab and harness measure phases with a
    ``repro.util.timing.Stopwatch`` or a ``repro.obs.spans`` span so
    every measurement shares one clock, and a span lands in the tree
    whose fold sums to wall time. Ad-hoc ``time.perf_counter()`` pairs
    drift out of that tree and get copy-pasted wrong
    (``time.time`` and ``time.sleep`` are unaffected — they are
    timestamps and pacing, not phase timing).
    """

    id = "OBS001"
    name = "direct-phase-timing"
    description = (
        "no direct time.perf_counter/monotonic/process_time phase "
        "timing in lab/ or harness/; use util.timing.Stopwatch or a "
        "span"
    )
    scope = ("lab", "harness")
    exempt = ("util/timing.py",)

    def check_module(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    if f"{module}.{alias.name}" in TIMER_CALLS:
                        yield self.violation(
                            ctx.path, node,
                            f"direct import of time.{alias.name}; time "
                            "phases with util.timing.Stopwatch or an "
                            "obs.spans span",
                        )
            elif isinstance(node, ast.Attribute):
                dotted = dotted_name(node)
                if dotted in TIMER_CALLS:
                    yield self.violation(
                        ctx.path, node,
                        f"direct {dotted}() phase timing; use "
                        "util.timing.Stopwatch or an obs.spans span",
                    )


@register
class MetricNameRule(Rule):
    """Metric names must follow the ``subsystem.noun_unit`` convention.

    The metrics registry validates names at runtime, but a misnamed
    metric on a cold path only explodes the first time that path runs
    with metrics enabled — in the middle of someone's overnight sweep.
    This catches literal names at lint time instead.
    """

    id = "OBS002"
    name = "metric-name"
    description = (
        "literal metric names passed to .counter()/.gauge()/"
        ".histogram() must match subsystem.noun_unit "
        "(e.g. core.penalty_cycles)"
    )

    _FACTORIES = {"counter", "gauge", "histogram"}

    def check_module(self, ctx: FileContext) -> Iterator[LintViolation]:
        from repro.obs.metrics import METRIC_NAME_RE

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in self._FACTORIES
            ):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if not (
                isinstance(first, ast.Constant)
                and isinstance(first.value, str)
            ):
                continue
            if METRIC_NAME_RE.match(first.value) is None:
                yield self.violation(
                    ctx.path, first,
                    f"metric name {first.value!r} does not match "
                    "subsystem.noun_unit (lowercase, dotted, "
                    "unit-suffixed: e.g. core.penalty_cycles)",
                )


@register
class AtomicWriteRule(Rule):
    """Run-state files must go through the crash-safe write helpers.

    A bare ``open(..., "w")`` in the lab or resilience layers is a torn
    file waiting for a crash: the write-ahead journal, store objects,
    manifests, and heartbeats all promise "complete old file or
    complete new file, never truncated". That promise only holds if
    every writer goes through :mod:`repro.resilience.atomic`
    (``atomic_write_*`` for whole-file replace, ``AppendOnlyWriter``
    for fsynced JSONL appends). Read-mode opens are fine; the helper
    module itself is exempt, and a deliberate bypass carries
    ``# repro: noqa[RES001]`` with a justification.
    """

    id = "RES001"
    name = "non-atomic-write"
    description = (
        "no direct open(..., 'w'/'a'/'x'/'+') in lab/ or resilience/; "
        "write run-state files via repro.resilience.atomic (escape "
        "hatch: # repro: noqa[RES001])"
    )
    scope = ("lab", "resilience")
    exempt = ("resilience/atomic.py",)

    def check_module(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            mode = open_write_mode(node)
            if mode is None:
                continue
            if mode == DYNAMIC_MODE:
                yield self.violation(
                    ctx.path, node,
                    "open() with a dynamic mode in lab/resilience; use "
                    "repro.resilience.atomic helpers for writes (or "
                    "justify with # repro: noqa[RES001])",
                )
                continue
            yield self.violation(
                ctx.path, node,
                f"open(..., {mode!r}) bypasses the crash-safe atomic "
                "write helpers; use repro.resilience.atomic "
                "(atomic_write_* or AppendOnlyWriter), or justify with "
                "# repro: noqa[RES001]",
            )


@register
class BlockingCallInServeRule(Rule):
    """No blocking calls inside ``serve`` coroutines.

    The serve front door multiplexes every client on one event loop;
    a single ``time.sleep`` or synchronous store read inside a
    coroutine stalls *all* of them at once — the failure is invisible
    under light load and catastrophic under the query traffic the
    service exists to absorb. Blocking work belongs in helper
    functions driven through ``asyncio.to_thread`` (disk, executors)
    or ``asyncio.wrap_future`` (pool futures).

    Flagged inside ``async def`` bodies (nested synchronous ``def``
    bodies are excluded — those run off-loop by construction):

    - the calls :data:`~repro.analysis.callgraph.BLOCKING_CALLS` lists
      (``time.sleep``, subprocess, ``os.system``, ``os.wait*``, socket
      connects, ``shutil`` copies and removals);
    - file I/O: builtin ``open`` and ``Path.read_text/read_bytes/
      write_text/write_bytes/open``;
    - synchronous store/cache/shard traffic: method calls named
      ``get``/``put``/``lookup``/``submit`` on ``store``/``cache``/
      ``shard``-ish receivers, plus ``journal_state`` and executor
      ``shutdown``/``restart`` — the serve-layer operations that do
      disk or process work.

    A deliberate exception (e.g. an in-memory dict named ``cache``)
    carries ``# repro: noqa[SRV001]`` with a justification.
    """

    id = "SRV001"
    name = "blocking-call-in-coroutine"
    description = (
        "no blocking calls (time.sleep, subprocess, sync file/store "
        "I/O) inside src/repro/serve/ coroutines; wrap them in "
        "asyncio.to_thread (escape hatch: # repro: noqa[SRV001])"
    )
    scope = ("serve",)

    _BLOCKING_METHODS = ("get", "put", "lookup", "submit")
    _BLOCKING_RECEIVERS = ("store", "cache", "backend", "shard", "tier")
    _ALWAYS_BLOCKING_METHODS = ("journal_state", "shutdown", "restart")

    def _receiver_name(self, func: ast.Attribute) -> str:
        node = func.value
        while isinstance(node, ast.Attribute):
            node = node.value
        return node.id if isinstance(node, ast.Name) else ""

    def _blocking_reason(self, node: ast.Call) -> Optional[str]:
        blocking = blocking_of(node, dotted_name(node.func) or "")
        if blocking is not None:
            return blocking[1]
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr in self._ALWAYS_BLOCKING_METHODS:
            return f".{func.attr}() does disk/process work on the loop"
        if func.attr in self._BLOCKING_METHODS:
            receiver = self._receiver_name(func).lower()
            if any(hint in receiver for hint in self._BLOCKING_RECEIVERS):
                return (
                    f"{receiver}.{func.attr}() is synchronous store/"
                    "cache traffic on the event loop"
                )
        return None

    def _scan(self, body: List[ast.stmt]) -> Iterator[ast.Call]:
        """Calls lexically inside coroutine code, skipping nested
        synchronous ``def`` bodies (they run off-loop)."""
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.FunctionDef):
                continue  # sync helper: its body is not loop code
            if isinstance(node, ast.Call):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    def check_module(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for call in self._scan(node.body):
                reason = self._blocking_reason(call)
                if reason is not None:
                    yield self.violation(
                        ctx.path, call,
                        f"blocking call in coroutine "
                        f"{node.name!r}: {reason}; wrap in "
                        "asyncio.to_thread (or justify with "
                        "# repro: noqa[SRV001])",
                    )


@register
class UnboundedShardAwaitRule(Rule):
    """Shard-future awaits in serve coroutines must be time-bounded.

    A coroutine that awaits a pool future raw (``await
    asyncio.wrap_future(f)``) or a shielded singleflight leader
    (``await asyncio.shield(existing)``) has no way out if the
    producer never resolves — a worker SIGKILL'd at the wrong moment,
    a leader abandoned by cancellation. The request hangs, its client
    hangs, and the deadline it carried is silently ignored. Every
    such await must go through ``asyncio.wait_for`` (``timeout=None``
    is acceptable when the request genuinely carries no deadline —
    the point is that the bound is *decided*, not forgotten).

    Flagged inside ``async def`` bodies:

    - ``await asyncio.wrap_future(...)`` / ``await asyncio.shield(...)``
      (any receiver spelling) not directly wrapped in ``wait_for``;
    - a bare ``await <name>`` where the name contains ``fut``
      (``future``, ``fut``, ``leader_future``, ...).

    A deliberate exception carries ``# repro: noqa[SRV003]`` with a
    justification.
    """

    id = "SRV003"
    name = "unbounded-shard-await"
    description = (
        "awaits of pool/shard futures (asyncio.wrap_future, "
        "asyncio.shield, future-named values) in src/repro/serve/ "
        "coroutines must be bounded by asyncio.wait_for (escape "
        "hatch: # repro: noqa[SRV003])"
    )
    scope = ("serve",)

    _WRAPPERS = ("wrap_future", "shield")

    def _unbounded_reason(self, value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Attribute):
                attr = func.attr
            elif isinstance(func, ast.Name):
                attr = func.id
            else:
                return None
            if attr == "wait_for":
                return None  # the bound we require
            if attr in self._WRAPPERS:
                return f"asyncio.{attr}(...) awaited without a bound"
            return None
        if isinstance(value, ast.Name) and "fut" in value.id.lower():
            return f"future-like name {value.id!r} awaited without a bound"
        return None

    def _scan(self, body: List[ast.stmt]) -> Iterator[ast.Await]:
        """Awaits lexically inside this coroutine, skipping nested
        function bodies (reported against their own def)."""
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Await):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    def check_module(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for awaited in self._scan(node.body):
                reason = self._unbounded_reason(awaited.value)
                if reason is not None:
                    yield self.violation(
                        ctx.path, awaited,
                        f"unbounded shard-future await in coroutine "
                        f"{node.name!r}: {reason}; wrap it in "
                        "asyncio.wait_for (timeout=None when no "
                        "deadline applies; or justify with "
                        "# repro: noqa[SRV003])",
                    )


__all__ = [
    "AtomicWriteRule",
    "BareExceptRule",
    "BlockingCallInServeRule",
    "DirectPhaseTimingRule",
    "FloatEqualityRule",
    "FrozenConfigRule",
    "MetricNameRule",
    "MutableDefaultRule",
    "PrintInLibraryRule",
    "SetIterationRule",
    "UnboundedShardAwaitRule",
    "UnseededRandomRule",
    "WallClockRule",
]
