"""The default rule pack: simulator-specific discipline as lint rules.

Each rule encodes an invariant the paper's methodology depends on —
deterministic simulation (RNG001, CLK001, ORD001), exact accounting
(FLT001), immutable configuration identity for the content-addressed
store (CFG001), and library hygiene that keeps sweeps debuggable
(MUT001, EXC001, PRT001). Every rule registers into
:data:`repro.analysis.engine.RULE_REGISTRY` on import.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.engine import FileContext, LintViolation, Rule, register

#: Hot, determinism-critical packages the scoped rules police.
SIM_SCOPE: Tuple[str, ...] = ("pipeline", "interval", "frontend")


def _dotted(node: ast.AST) -> Optional[str]:
    """Dotted name of an attribute/name chain (``a.b.c``), else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


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

    _MODULES = {"random", "numpy.random"}

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in self._MODULES:
                        yield self.violation(
                            ctx, node,
                            f"import of {alias.name!r}; draw from "
                            "repro.util.rng.SplitMix instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module in self._MODULES:
                    yield self.violation(
                        ctx, node,
                        f"import from {module!r}; draw from "
                        "repro.util.rng.SplitMix instead",
                    )
                elif module == "numpy" and any(
                    alias.name == "random" for alias in node.names
                ):
                    yield self.violation(
                        ctx, node,
                        "import of numpy.random; draw from "
                        "repro.util.rng.SplitMix instead",
                    )
            elif isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted in ("np.random", "numpy.random"):
                    yield self.violation(
                        ctx, node,
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

    _CALLS = {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
    }
    _FROM_IMPORTS = {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "process_time"),
        ("datetime", "datetime"),
    }

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    if (module, alias.name) in self._FROM_IMPORTS:
                        yield self.violation(
                            ctx, node,
                            f"wall-clock import {module}.{alias.name} in a "
                            "simulation package",
                        )
            elif isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted in self._CALLS:
                    yield self.violation(
                        ctx, node,
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

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_floaty(left) or _is_floaty(right):
                    yield self.violation(
                        ctx, node,
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

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.violation(
                        ctx, default,
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

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
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
                            ctx, it,
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

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Config"):
                continue
            dataclass_deco = None
            frozen = False
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = _dotted(target) or ""
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
                    ctx, node,
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

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    ctx, node,
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

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.violation(
                    ctx, node,
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

    _TIMERS = {
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if (node.module or "") != "time":
                    continue
                for alias in node.names:
                    if alias.name in self._TIMERS:
                        yield self.violation(
                            ctx, node,
                            f"direct import of time.{alias.name}; time "
                            "phases with util.timing.Stopwatch or an "
                            "obs.spans span",
                        )
            elif isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted and dotted.startswith("time.") and (
                    dotted.split(".", 1)[1] in self._TIMERS
                ):
                    yield self.violation(
                        ctx, node,
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

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
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
                    ctx, first,
                    f"metric name {first.value!r} does not match "
                    "subsystem.noun_unit (lowercase, dotted, "
                    "unit-suffixed: e.g. core.penalty_cycles)",
                )


@register
class PerRecordLoopRule(Rule):
    """No per-record Python loops over ``trace.records`` in the column
    consumers: ``perf/``, ``interval/`` and ``harness/``.

    A generated trace is held as columns and builds its record objects
    only when asked; a Python loop over them silently reintroduces the
    very overhead the :class:`~repro.perf.packed.PackedTrace` layout
    removes, and builds every record of the trace first. Loops over
    an ``.unpack()`` result are the same regression through the other
    door — unpacking a column store back to records to iterate them —
    so they are flagged too (``batchcore`` must go through
    :class:`~repro.perf.batchcore.TraceColumns`, never back to record
    objects). The legitimate record walks — packing itself and the
    scalar baselines kept as oracles — carry
    ``# repro: noqa[PERF001]`` with a justification.
    """

    id = "PERF001"
    name = "per-record-loop"
    description = (
        "no Python for-loops/comprehensions over trace.records or "
        ".unpack() results in perf/, interval/ or harness/; operate on "
        "PackedTrace/TraceColumns columns (escape hatch: "
        "# repro: noqa[PERF001])"
    )
    scope = ("perf", "interval", "harness")

    def _is_records(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "records":
            return True
        if isinstance(node, ast.Call):
            func = node.func
            # packed.unpack() hands back per-record objects; iterating
            # the result (Trace is iterable) is a per-record loop.
            if isinstance(func, ast.Attribute) and func.attr == "unpack":
                return True
            # enumerate(t.records), zip(...), iter(packed.unpack()), ...
            return any(self._is_records(arg) for arg in node.args)
        return False

    def _records_names_in(self, func: ast.AST) -> Set[str]:
        """Local names bound to a ``.records`` expression."""
        names: Set[str] = set()
        for node in ast.walk(func):
            value = None
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None or not self._is_records(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            records_names = self._records_names_in(func)

            def loops_records(it: ast.AST) -> bool:
                if self._is_records(it):
                    return True
                if isinstance(it, ast.Name) and it.id in records_names:
                    return True
                if isinstance(it, ast.Call):
                    return any(loops_records(arg) for arg in it.args)
                return False

            for node in ast.walk(func):
                iters: List[ast.AST] = []
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
                for it in iters:
                    if loops_records(it):
                        yield self.violation(
                            ctx, it,
                            "per-record Python loop over trace.records in "
                            "a column consumer; use PackedTrace columns (or "
                            "justify with # repro: noqa[PERF001])",
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

    _WRITE_CHARS = ("w", "a", "x", "+")

    @staticmethod
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

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = self._mode_of(node, 1)  # open(file, mode)
            elif isinstance(func, ast.Attribute) and func.attr == "fdopen":
                mode = self._mode_of(node, 1)  # os.fdopen(fd, mode)
            elif isinstance(func, ast.Attribute) and func.attr == "open":
                mode = self._mode_of(node, 0)  # Path.open(mode)
            else:
                continue
            if mode is None:
                yield self.violation(
                    ctx, node,
                    "open() with a dynamic mode in lab/resilience; use "
                    "repro.resilience.atomic helpers for writes (or "
                    "justify with # repro: noqa[RES001])",
                )
                continue
            if not any(ch in mode for ch in self._WRITE_CHARS):
                continue
            yield self.violation(
                ctx, node,
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

    - ``time.sleep``;
    - ``subprocess.run/call/check_call/check_output`` and ``Popen``,
      ``os.system``, ``os.wait*``;
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

    _MODULE_CALLS = {
        "time.sleep": "time.sleep blocks the event loop",
        "subprocess.run": "subprocess.run blocks the event loop",
        "subprocess.call": "subprocess.call blocks the event loop",
        "subprocess.check_call": "subprocess.check_call blocks the loop",
        "subprocess.check_output": "subprocess.check_output blocks the loop",
        "subprocess.Popen": "spawn subprocesses off-loop",
        "os.system": "os.system blocks the event loop",
        "os.wait": "os.wait blocks the event loop",
        "os.waitpid": "os.waitpid blocks the event loop",
    }
    _PATH_METHODS = (
        "read_text", "read_bytes", "write_text", "write_bytes", "open",
    )
    _BLOCKING_METHODS = ("get", "put", "lookup", "submit")
    _BLOCKING_RECEIVERS = ("store", "cache", "backend", "shard", "tier")
    _ALWAYS_BLOCKING_METHODS = ("journal_state", "shutdown", "restart")

    def _receiver_name(self, func: ast.Attribute) -> str:
        node = func.value
        while isinstance(node, ast.Attribute):
            node = node.value
        return node.id if isinstance(node, ast.Name) else ""

    def _blocking_reason(self, node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            return "builtin open() blocks the event loop"
        dotted = _dotted(func)
        if dotted in self._MODULE_CALLS:
            return f"{dotted}: {self._MODULE_CALLS[dotted]}"
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr in self._PATH_METHODS and isinstance(
            func.value, (ast.Name, ast.Attribute)
        ):
            # Path-flavoured file I/O; builtin-module calls (json.load
            # on an handle etc.) need an open() first and are caught
            # there.
            if func.attr != "open" or not node.args or isinstance(
                node.args[0], ast.Constant
            ):
                return f".{func.attr}() does file I/O on the event loop"
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

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for call in self._scan(node.body):
                reason = self._blocking_reason(call)
                if reason is not None:
                    yield self.violation(
                        ctx, call,
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

    def check(self, ctx: FileContext) -> Iterator[LintViolation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for awaited in self._scan(node.body):
                reason = self._unbounded_reason(awaited.value)
                if reason is not None:
                    yield self.violation(
                        ctx, awaited,
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
    "PerRecordLoopRule",
    "PrintInLibraryRule",
    "SIM_SCOPE",
    "SetIterationRule",
    "UnboundedShardAwaitRule",
    "UnseededRandomRule",
    "WallClockRule",
]
