from serve_load import Outcome, check
from stream import Request

SUMMARY = {"type": "simulation", "instructions": 2000, "cycles": 900,
           "events": 12}


def reply(kind, key, source, coalesced=False, episode=0, summary=SUMMARY):
    request = Request(kind, "gzip", 1)
    response = {"ok": True, "result": dict(summary),
                "meta": {"key": key, "source": source,
                         "coalesced": coalesced}}
    return Outcome(episode, 0, request, response, 0, 1)


def failures(outcomes):
    for start, outcome in enumerate(outcomes):
        outcome.start_ns = start
    return check(outcomes, seed=1, verify=0)


def test_a_clean_episode_passes():
    outcomes = [reply("cold", "k1", "pool"), reply("warm", "k1", "tier0"),
                reply("burst", "k2", "pool"),
                reply("burst", "k2", "pool", coalesced=True),
                reply("burst", "k2", "tier0")]
    assert failures(outcomes) == (0, [])


def test_each_broken_rule_fails_one_request():
    error = Outcome(0, 0, Request("cold", "gzip", 1),
                    {"ok": False, "error": {"type": "overloaded"}}, 0, 1)
    assert failures([error])[0] == 1
    warm_from_pool = [reply("cold", "k1", "pool"), reply("warm", "k1", "pool")]
    assert failures(warm_from_pool)[0] == 1
    burst_twice = [reply("burst", "k2", "pool"), reply("burst", "k2", "pool")]
    assert failures(burst_twice)[0] == 1
    # One computation per burst, counted per episode.
    two_episodes = [reply("burst", "k2", "pool", episode=0),
                    reply("burst", "k3", "pool", episode=1)]
    assert failures(two_episodes)[0] == 0
    changed = [reply("cold", "k1", "pool"),
               reply("warm", "k1", "tier0", summary=dict(SUMMARY, cycles=901))]
    count, messages = failures(changed)
    assert count == 1 and "differs" in messages[0]
