"""Generic set-associative cache with write-back, write-allocate policy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.memory.replacement import ReplacementPolicy, make_policy
from repro.util.validation import check_positive, check_power_of_two


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access.

    ``evicted_address`` is the line-aligned byte address of the victim
    line, when one was evicted.
    """

    hit: bool
    evicted_address: Optional[int] = None
    writeback: bool = False


class Cache:
    """One level of a set-associative cache.

    Addresses are byte addresses; the cache operates on lines of
    ``line_bytes``. Write policy is write-back + write-allocate: a
    store miss fills the line and marks it dirty; evicting a dirty line
    counts a writeback.
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        line_bytes: int = 64,
        policy: str = "lru",
        name: str = "cache",
        seed: int = 0,
    ):
        check_positive("size_bytes", size_bytes)
        check_positive("ways", ways)
        check_power_of_two("line_bytes", line_bytes)
        if size_bytes % (ways * line_bytes):
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by ways*line "
                f"({ways}*{line_bytes})"
            )
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.sets = size_bytes // (ways * line_bytes)
        check_power_of_two("sets", self.sets)
        self.name = name
        self.policy: ReplacementPolicy = make_policy(
            policy, self.sets, ways, seed=seed
        )
        self.stats = CacheStats()
        self._line_shift = line_bytes.bit_length() - 1
        self._set_mask = self.sets - 1
        self._tags: List[List[Optional[int]]] = [
            [None] * ways for _ in range(self.sets)
        ]
        self._dirty: List[List[bool]] = [[False] * ways for _ in range(self.sets)]

    def _decompose(self, address: int):
        line = address >> self._line_shift
        return line & self._set_mask, line >> self.sets.bit_length() - 1

    def _compose(self, set_index: int, tag: int) -> int:
        """Rebuild the line-aligned byte address from (set, tag)."""
        set_bits = self.sets.bit_length() - 1
        return ((tag << set_bits) | set_index) << self._line_shift

    def lookup(self, address: int) -> bool:
        """Probe without side effects (no stats, no replacement update)."""
        set_index, tag = self._decompose(address)
        return tag in self._tags[set_index]

    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Access one address; fills on miss; returns the outcome."""
        set_index, tag = self._decompose(address)
        tags = self._tags[set_index]
        dirty = self._dirty[set_index]
        self.stats.accesses += 1

        if tag in tags:
            way = tags.index(tag)
            self.stats.hits += 1
            self.policy.on_access(set_index, way)
            if is_write:
                dirty[way] = True
            return AccessResult(hit=True)

        self.stats.misses += 1
        evicted_address = None
        writeback = False
        if None in tags:
            way = tags.index(None)
        else:
            way = self.policy.victim_way(set_index)
            evicted_tag = tags[way]
            evicted_address = self._compose(set_index, evicted_tag)
            writeback = dirty[way]
            self.stats.evictions += 1
            if writeback:
                self.stats.writebacks += 1
        tags[way] = tag
        dirty[way] = is_write
        self.policy.on_fill(set_index, way)
        return AccessResult(
            hit=False, evicted_address=evicted_address, writeback=writeback
        )

    def flush(self) -> None:
        """Invalidate the entire cache (stats are preserved)."""
        for set_index in range(self.sets):
            self._tags[set_index] = [None] * self.ways
            self._dirty[set_index] = [False] * self.ways

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(
            sum(tag is not None for tag in tags) for tags in self._tags
        )

    def resident_lines(self) -> List[int]:
        """Line addresses of all resident lines (for inclusion tests)."""
        lines = []
        set_bits = self.sets.bit_length() - 1
        for set_index, tags in enumerate(self._tags):
            for tag in tags:
                if tag is not None:
                    lines.append(((tag << set_bits) | set_index) << self._line_shift)
        return lines
