"""The seeded serve request stream.

The stream repeats the traffic shapes ``examples/serve_traffic.py``
drives the service with, one *episode* after another, each on keys no
earlier episode used:

1. ``cold``: each of ``COLD_WORKLOADS`` once, in a seeded order, on one
   connection; a shard worker simulates every one;
2. ``warm``: the same requests again, in the same order; a cache tier
   must answer every one;
3. ``burst``: ``BURST`` identical requests for ``BURST_WORKLOAD``, sent
   at once on ``BURST`` connections; the service must compute it once;
4. ``sweep``: ``SWEEP_VALUES`` of ``SWEEP_PARAMETER`` for
   ``SWEEP_WORKLOAD`` on the first connection. Its baseline point is the
   cold request for the same workload, so a cache answers that point.

The constants are the example's, copied rather than imported so that an
edit to the example does not change the benchmark's inputs. The seed
sets the key seeds and the cold order, never the amount of work. The
program only ever sees the generated requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List

COLD_WORKLOADS = ("gzip", "mcf", "twolf", "parser", "vpr", "crafty")
LENGTH = 2_000
BURST = 24
BURST_WORKLOAD = "eon"
SWEEP_WORKLOAD = "mcf"
SWEEP_PARAMETER = "rob_size"
SWEEP_VALUES = (32, 64, 128, 256)


@dataclass(frozen=True)
class Request:
    kind: str  # "cold", "warm", "burst" or "sweep"
    workload: str
    seed: int

    def wire(self) -> Dict[str, Any]:
        """The request object the client sends."""
        wire: Dict[str, Any] = {"op": "simulate", "workload": self.workload,
                                "length": LENGTH, "seed": self.seed}
        if self.kind == "sweep":
            wire.update(op="sweep", parameter=SWEEP_PARAMETER,
                        values=list(SWEEP_VALUES))
        return wire


@dataclass(frozen=True)
class Episode:
    cold: List[Request]
    warm: List[Request]
    burst: Request
    sweep: Request


def build_episodes(seed: int, count: int) -> List[Episode]:
    """``count`` episodes; episode *i* uses key seed ``base + i``."""
    rng = random.Random(seed)
    base = rng.randrange(10**6, 10**9)
    episodes = []
    for index in range(count):
        key_seed = base + index
        order = list(COLD_WORKLOADS)
        rng.shuffle(order)
        episodes.append(Episode(
            cold=[Request("cold", w, key_seed) for w in order],
            warm=[Request("warm", w, key_seed) for w in order],
            burst=Request("burst", BURST_WORKLOAD, key_seed),
            sweep=Request("sweep", SWEEP_WORKLOAD, key_seed),
        ))
    return episodes
