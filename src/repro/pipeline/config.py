"""Processor configuration (the paper's Table-1 equivalent)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.isa.opcodes import OpClass
from repro.util.validation import check_positive


@dataclass(frozen=True)
class FUSpec:
    """One functional-unit pool: unit count, latency, issue interval.

    ``issue_interval`` is 1 for fully pipelined units; equal to
    ``latency`` for unpipelined units such as dividers.
    """

    count: int
    latency: int
    issue_interval: int = 1

    def __post_init__(self) -> None:
        check_positive("count", self.count)
        check_positive("latency", self.latency)
        check_positive("issue_interval", self.issue_interval)
        if self.issue_interval > self.latency:
            raise ValueError(
                f"issue_interval {self.issue_interval} exceeds latency "
                f"{self.latency}"
            )

    def scaled(self, factor: float) -> "FUSpec":
        """Return a copy with the latency scaled (for the F7 sweep)."""
        latency = max(1, round(self.latency * factor))
        interval = min(self.issue_interval, latency)
        if self.issue_interval == self.latency:
            interval = latency  # keep unpipelined units unpipelined
        return FUSpec(count=self.count, latency=latency, issue_interval=interval)


DEFAULT_FU_SPECS: Dict[OpClass, FUSpec] = {
    OpClass.IALU: FUSpec(count=4, latency=1),
    OpClass.IMUL: FUSpec(count=1, latency=3),
    OpClass.IDIV: FUSpec(count=1, latency=20, issue_interval=20),
    OpClass.FADD: FUSpec(count=2, latency=4),
    OpClass.FMUL: FUSpec(count=1, latency=4),
    OpClass.FDIV: FUSpec(count=1, latency=12, issue_interval=12),
    OpClass.LOAD: FUSpec(count=2, latency=1),  # address generation; cache adds
    OpClass.STORE: FUSpec(count=2, latency=1),
    OpClass.BRANCH: FUSpec(count=2, latency=1),
    OpClass.JUMP: FUSpec(count=2, latency=1),
    OpClass.NOP: FUSpec(count=4, latency=1),
}


@dataclass(frozen=True)
class CoreConfig:
    """Baseline machine configuration (Table T1 in DESIGN.md).

    The frontend pipeline depth is the number of cycles from a fetch
    redirect to the first dispatch of the refetched path — the quantity
    folk wisdom equates with the misprediction penalty and which the
    paper shows is only one of five contributors.
    """

    dispatch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    rob_size: int = 128
    frontend_depth: int = 5
    fu_specs: Dict[OpClass, FUSpec] = field(
        default_factory=lambda: dict(DEFAULT_FU_SPECS)
    )
    l1_latency: int = 2
    l2_latency: int = 10
    memory_latency: int = 250
    dispatch_wrong_path: bool = False
    record_timeline: bool = True
    issue_policy: str = "oldest"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.issue_policy not in ("oldest", "random"):
            raise ValueError(
                f"issue_policy must be 'oldest' or 'random', "
                f"got {self.issue_policy!r}"
            )
        check_positive("dispatch_width", self.dispatch_width)
        check_positive("issue_width", self.issue_width)
        check_positive("commit_width", self.commit_width)
        check_positive("rob_size", self.rob_size)
        check_positive("frontend_depth", self.frontend_depth)
        check_positive("l1_latency", self.l1_latency)
        check_positive("l2_latency", self.l2_latency)
        check_positive("memory_latency", self.memory_latency)
        if self.rob_size < self.dispatch_width:
            raise ValueError("rob_size must be at least dispatch_width")
        missing = [c for c in OpClass if c not in self.fu_specs]
        if missing:
            raise ValueError(f"fu_specs missing op classes: {missing}")

    def with_overrides(self, **kwargs) -> "CoreConfig":
        """Return a copy with fields replaced (sweeps use this)."""
        return replace(self, **kwargs)

    def with_scaled_fu_latencies(self, factor: float) -> "CoreConfig":
        """Scale all non-memory FU latencies by ``factor`` (F7 sweep)."""
        scaled = {
            op_class: spec.scaled(factor)
            for op_class, spec in self.fu_specs.items()
        }
        return self.with_overrides(fu_specs=scaled)

    def describe(self) -> List[Tuple[str, str]]:
        """Rows for the configuration table (bench T1)."""
        rows = [
            ("dispatch/issue/commit width", f"{self.dispatch_width}/"
             f"{self.issue_width}/{self.commit_width}"),
            ("ROB / issue window", str(self.rob_size)),
            ("frontend pipeline depth", f"{self.frontend_depth} cycles"),
            ("L1 D-cache latency", f"{self.l1_latency} cycles"),
            ("L2 latency (short miss)", f"{self.l2_latency} cycles"),
            ("memory latency (long miss)", f"{self.memory_latency} cycles"),
        ]
        for op_class in OpClass:
            spec = self.fu_specs[op_class]
            if op_class is OpClass.NOP:
                continue
            pipelining = (
                "unpipelined" if spec.issue_interval == spec.latency > 1
                else "pipelined"
            )
            rows.append(
                (
                    f"{op_class.value} units",
                    f"{spec.count} x {spec.latency} cycles ({pipelining})",
                )
            )
        return rows
