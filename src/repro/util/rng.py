"""Deterministic random number generation for reproducible experiments.

Every stochastic component in the library (synthetic trace generation,
random replacement, workload profiles) draws from an explicitly seeded
generator so that two runs with the same configuration produce identical
traces, identical miss events, and therefore identical measurements.

``SplitMix`` is a small, fast 64-bit generator (SplitMix64) with a
convenient ``split`` operation for deriving independent child streams.
We use it rather than ``random.Random`` where we want a stable algorithm
that cannot change across Python versions.

SplitMix64 is counter-based: the ``k``-th output (from 1) of a stream
whose state is ``s`` is ``_mix(s + k * GOLDEN)``. That is what lets
:meth:`SplitMix.next_u64_array` compute a block of draws in NumPy
``uint64`` arithmetic, bit-identical to the scalar draws.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """The SplitMix64 finalizer: avalanche a 64-bit state into an output."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(base: int, *labels: object) -> int:
    """Derive a child seed from ``base`` and a sequence of labels.

    Labels may be strings or integers; the derivation is stable across
    runs and platforms, so a component can carve out an independent
    stream with e.g. ``derive_seed(seed, "dcache", workload_name)``.
    """
    state = _mix(base & _MASK64)
    for label in labels:
        if isinstance(label, int):
            chunk = label & _MASK64
        else:
            chunk = 0
            for byte in str(label).encode("utf-8"):
                chunk = (chunk * 131 + byte) & _MASK64
        state = _mix((state + chunk + _GOLDEN) & _MASK64)
    return state


def jittered_backoff_s(base_s: float, attempt: int, *labels: object) -> float:
    """Seeded exponential backoff with jitter: no wall clock, no lockstep.

    Returns ``base_s * 2**attempt`` scaled by a uniform factor in
    [0.5, 1.5) drawn from a SplitMix stream derived from ``labels``
    (typically a job key) and the attempt number. Two workers retrying
    different jobs therefore sleep different durations — no thundering
    herd — while the same (job, attempt) pair always sleeps the same
    duration, keeping runs reproducible.
    """
    if base_s <= 0.0:
        return 0.0
    rng = SplitMix(derive_seed(0xB0FF, attempt, *labels))
    return base_s * (2 ** max(0, attempt)) * (0.5 + rng.random())


def unit_floats(raw):
    """Map a ``uint64`` array of raw outputs into [0, 1) exactly as
    :meth:`SplitMix.random` maps one output (the top 53 bits, scaled by
    a power of two, so the float arithmetic is exact)."""
    import numpy as np

    return (raw >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


class SplitMix:
    """SplitMix64 pseudo-random generator.

    Provides the handful of draw shapes the library needs: 64-bit words,
    bounded integers, unit-interval floats, geometric and Bernoulli
    variates, and weighted choice.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Return the next raw 64-bit output."""
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def next_u64_array(self, count: int):
        """Return the next ``count`` raw outputs as a NumPy ``uint64``
        array, advancing the state exactly as ``count`` calls of
        :meth:`next_u64` would. ``uint64`` arithmetic wraps mod 2**64,
        which is the ``& _MASK64`` of the scalar path."""
        import numpy as np

        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        return z

    def split(self, *labels: object) -> "SplitMix":
        """Return an independent child generator derived from labels."""
        return SplitMix(derive_seed(self._state, "split", *labels))

    def random(self) -> float:
        """Return a float uniformly distributed in [0, 1)."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, low: int, high: int) -> int:
        """Return an integer uniformly distributed in [low, high]."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + self.next_u64() % span

    def bernoulli(self, p: float) -> bool:
        """Return True with probability ``p``."""
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return self.random() < p

    def geometric(self, p: float, cap: int = 1 << 20) -> int:
        """Number of failures before the first success, capped.

        ``p`` is the per-trial success probability. The cap keeps a
        pathological probability from generating unbounded values.
        """
        if not 0.0 < p <= 1.0:
            raise ValueError(f"geometric probability must be in (0, 1], got {p}")
        count = 0
        while count < cap and not self.bernoulli(p):
            count += 1
        return count

    def choice(self, items: list) -> object:
        """Return a uniformly chosen element of ``items``."""
        if not items:
            raise ValueError("cannot choose from an empty list")
        return items[self.randint(0, len(items) - 1)]

    def weighted_choice(self, items: list, weights: list) -> object:
        """Return an element of ``items`` chosen with the given weights."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        total = float(sum(weights))
        if total <= 0.0:
            raise ValueError("weights must sum to a positive value")
        target = self.random() * total
        acc = 0.0
        for item, weight in zip(items, weights):
            acc += weight
            if target < acc:
                return item
        return items[-1]

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place (Fisher-Yates)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]
