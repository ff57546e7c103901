from collections import Counter

from stream import (BURST, COLD_WORKLOADS, LENGTH, SWEEP_VALUES,
                    build_episodes)


def requests(episode):
    """Every request of an episode, the burst counted once per connection."""
    return (episode.cold + episode.warm + [episode.burst] * BURST
            + [episode.sweep])


def test_same_seed_same_stream():
    assert build_episodes(7, 20) == build_episodes(7, 20)
    assert build_episodes(7, 20) != build_episodes(8, 20)


def test_every_episode_has_the_same_shape():
    for seed in (1, 2006):
        for episode in build_episodes(seed, 12):
            kinds = Counter(r.kind for r in requests(episode))
            assert kinds == {"cold": len(COLD_WORKLOADS),
                             "warm": len(COLD_WORKLOADS),
                             "burst": BURST, "sweep": 1}
            assert sorted(r.workload for r in episode.cold) == \
                sorted(COLD_WORKLOADS)
            # The warm phase replays the cold one exactly.
            assert [(r.workload, r.seed) for r in episode.warm] == \
                [(r.workload, r.seed) for r in episode.cold]


def test_keys_are_fresh_each_episode():
    episodes = build_episodes(11, 30)
    seeds = [{r.seed for r in requests(e)} for e in episodes]
    assert all(len(s) == 1 for s in seeds)
    assert len({s.pop() for s in seeds}) == len(episodes)
    # The seed reorders the cold phase.
    assert len({tuple(r.workload for r in e.cold) for e in episodes}) > 1


def test_wire_requests():
    episode = build_episodes(3, 1)[0]
    cold = episode.cold[0].wire()
    assert cold == {"op": "simulate", "workload": episode.cold[0].workload,
                    "length": LENGTH, "seed": episode.cold[0].seed}
    sweep = episode.sweep.wire()
    assert sweep["op"] == "sweep" and sweep["values"] == list(SWEEP_VALUES)
    assert episode.burst.wire()["op"] == "simulate"
