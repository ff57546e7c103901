"""Hardware prefetchers: next-line (I-side) and PC-indexed stride (D-side).

Prefetching changes interval behaviour in a way the paper's framework
predicts cleanly: a prefetch that converts a would-be miss into a hit
*removes a miss event*, lengthening inter-miss intervals; mistimed or
useless prefetches pollute the cache. The hierarchy integration keeps
the model simple — a prefetch moves a line into the target cache
immediately (no bandwidth/timeliness model), so the measured effect is
an upper bound, which is the right comparison point for interval
studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.memory.cache import Cache
from repro.util.validation import check_positive, check_power_of_two


@dataclass
class PrefetchStats:
    """Issue/use accounting for one prefetcher."""

    issued: int = 0
    useful: int = 0  # prefetched lines that were later demanded

    @property
    def accuracy(self) -> float:
        if not self.issued:
            return 0.0
        return self.useful / self.issued


class NextLinePrefetcher:
    """On a demand access to line L, prefetch lines L+1..L+degree.

    The classic instruction-side prefetcher: sequential fetch makes the
    next line overwhelmingly likely to be needed.
    """

    def __init__(self, cache: Cache, degree: int = 1):
        check_positive("degree", degree)
        self.cache = cache
        self.degree = degree
        self.stats = PrefetchStats()
        self._outstanding: set = set()

    def on_demand_access(self, address: int, hit: bool) -> List[int]:
        """Notify of a demand access; returns prefetched line addresses."""
        line_bytes = self.cache.line_bytes
        line = address - address % line_bytes
        if line in self._outstanding:
            self.stats.useful += 1
            self._outstanding.discard(line)
        issued = []
        for i in range(1, self.degree + 1):
            target = line + i * line_bytes
            if not self.cache.lookup(target):
                self.cache.access(target)
                self.stats.issued += 1
                self._outstanding.add(target)
                issued.append(target)
        return issued


class StridePrefetcher:
    """PC-indexed stride table (reference prediction table).

    Each load PC gets an entry tracking its last address and stride; two
    consecutive equal strides arm the entry, after which each access
    prefetches ``address + stride * (1..degree)``.
    """

    def __init__(self, cache: Cache, entries: int = 256, degree: int = 2):
        check_power_of_two("entries", entries)
        check_positive("degree", degree)
        self.cache = cache
        self.entries = entries
        self.degree = degree
        self.stats = PrefetchStats()
        self._table: Dict[int, List[int]] = {}  # pc_idx -> [last, stride, conf]
        self._outstanding: set = set()

    def _slot(self, pc: int) -> int:
        return (pc >> 2) & (self.entries - 1)

    def on_demand_access(self, pc: int, address: int, hit: bool) -> List[int]:
        """Train on a demand access; returns prefetched line addresses."""
        line_bytes = self.cache.line_bytes
        line = address - address % line_bytes
        if line in self._outstanding:
            self.stats.useful += 1
            self._outstanding.discard(line)

        slot = self._slot(pc)
        entry = self._table.get(slot)
        issued: List[int] = []
        if entry is None:
            self._table[slot] = [address, 0, 0]
            return issued
        last, stride, confidence = entry
        new_stride = address - last
        if new_stride == stride and stride != 0:
            confidence = min(confidence + 1, 3)
        else:
            confidence = 0
        self._table[slot] = [address, new_stride, confidence]
        if confidence >= 2:
            for i in range(1, self.degree + 1):
                target_line = (
                    address + new_stride * i
                ) // line_bytes * line_bytes
                if target_line >= 0 and not self.cache.lookup(target_line):
                    self.cache.access(target_line)
                    self.stats.issued += 1
                    self._outstanding.add(target_line)
                    issued.append(target_line)
        return issued


class PrefetchingHierarchyAdapter:
    """Wraps a :class:`~repro.memory.hierarchy.CacheHierarchy` with an
    optional next-line I-prefetcher and stride D-prefetcher.

    Exposes the same ``config``, ``access_instruction`` and
    ``access_data`` interface, so it drops into
    :class:`~repro.pipeline.annotate.StructuralAnnotator`, whose
    annotation pass asks it once per new fetch line and once per load
    or store, in program order.
    """

    def __init__(
        self,
        hierarchy,
        instruction_prefetcher: Optional[NextLinePrefetcher] = None,
        data_prefetcher: Optional[StridePrefetcher] = None,
    ):
        self.hierarchy = hierarchy
        self.config = hierarchy.config
        self.instruction_prefetcher = instruction_prefetcher
        self.data_prefetcher = data_prefetcher

    @property
    def l1i(self):
        return self.hierarchy.l1i

    @property
    def l1d(self):
        return self.hierarchy.l1d

    @property
    def l2(self):
        return self.hierarchy.l2

    @property
    def memory(self):
        return self.hierarchy.memory

    def access_instruction(self, pc: int):
        outcome = self.hierarchy.access_instruction(pc)
        if self.instruction_prefetcher is not None:
            self.instruction_prefetcher.on_demand_access(
                pc, outcome.miss_class.value == "l1_hit"
            )
        return outcome

    def access_data(self, address: int, is_write: bool = False, pc: int = 0):
        outcome = self.hierarchy.access_data(address, is_write=is_write)
        if self.data_prefetcher is not None and not is_write:
            self.data_prefetcher.on_demand_access(
                pc, address, outcome.miss_class.value == "l1_hit"
            )
        return outcome

    def miss_rates(self) -> dict:
        return self.hierarchy.miss_rates()
