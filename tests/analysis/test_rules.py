"""Per-rule positive and negative cases for the default pack."""

from __future__ import annotations

from tests.analysis import summarize


def rules_hit(source: str, path: str) -> list:
    return [v.rule for v in summarize(source, path).violations]


# -- RNG001 ----------------------------------------------------------------

def test_rng_flags_stdlib_random_import():
    assert "RNG001" in rules_hit("import random\n", "src/repro/trace/x.py")


def test_rng_flags_from_random_import():
    assert "RNG001" in rules_hit(
        "from random import shuffle\n", "src/repro/trace/x.py"
    )


def test_rng_flags_numpy_random_attribute():
    source = "import numpy as np\ny = np.random.rand(3)\n"
    assert "RNG001" in rules_hit(source, "src/repro/workloads/x.py")


def test_rng_exempts_the_blessed_module():
    assert "RNG001" not in rules_hit("import random\n", "src/repro/util/rng.py")


def test_rng_allows_splitmix():
    source = "from repro.util.rng import SplitMix\nr = SplitMix(7)\n"
    assert rules_hit(source, "src/repro/trace/x.py") == []


# -- CLK001 ----------------------------------------------------------------

def test_clk_flags_time_time_in_pipeline():
    source = "import time\nt = time.time()\n"
    assert "CLK001" in rules_hit(source, "src/repro/pipeline/x.py")


def test_clk_flags_perf_counter_in_interval():
    source = "import time\nt = time.perf_counter()\n"
    assert "CLK001" in rules_hit(source, "src/repro/interval/x.py")


def test_clk_flags_datetime_now_in_frontend():
    source = "import datetime\nt = datetime.datetime.now()\n"
    assert "CLK001" in rules_hit(source, "src/repro/frontend/x.py")


def test_clk_flags_from_import():
    source = "from time import perf_counter\n"
    assert "CLK001" in rules_hit(source, "src/repro/pipeline/x.py")


def test_clk_ignores_wall_clock_outside_sim_packages():
    source = "import time\nt = time.time()\n"
    assert rules_hit(source, "src/repro/lab/x.py") == []


def test_clk_allows_the_timing_doorway():
    source = "from repro.util.timing import Stopwatch\nw = Stopwatch()\n"
    assert rules_hit(source, "src/repro/interval/x.py") == []


# -- FLT001 ----------------------------------------------------------------

def test_flt_flags_float_literal_equality():
    assert "FLT001" in rules_hit(
        "ok = x == 0.5\n", "src/repro/interval/x.py"
    )


def test_flt_flags_float_cast_inequality():
    assert "FLT001" in rules_hit(
        "bad = float(x) != y\n", "src/repro/interval/x.py"
    )


def test_flt_flags_division_result_equality():
    assert "FLT001" in rules_hit(
        "bad = (a / b) == c\n", "src/repro/interval/x.py"
    )


def test_flt_allows_int_equality_and_ordering():
    source = "a = x == 0\nb = y <= 0.5\n"
    assert rules_hit(source, "src/repro/interval/x.py") == []


def test_flt_scoped_to_interval_only():
    assert rules_hit("ok = x == 0.5\n", "src/repro/pipeline/x.py") == []


# -- MUT001 ----------------------------------------------------------------

def test_mut_flags_list_default():
    assert "MUT001" in rules_hit("def f(a, b=[]):\n    pass\n", "x.py")


def test_mut_flags_dict_call_default():
    assert "MUT001" in rules_hit("def f(b=dict()):\n    pass\n", "x.py")


def test_mut_flags_kwonly_set_default():
    assert "MUT001" in rules_hit("def f(*, b={1}):\n    pass\n", "x.py")


def test_mut_allows_none_and_tuples():
    assert rules_hit("def f(a=None, b=(1, 2)):\n    pass\n", "x.py") == []


# -- ORD001 ----------------------------------------------------------------

def test_ord_flags_for_over_set_call():
    source = "def f(xs):\n    for x in set(xs):\n        pass\n"
    assert "ORD001" in rules_hit(source, "src/repro/pipeline/x.py")


def test_ord_flags_iteration_over_local_set_variable():
    source = (
        "def f():\n"
        "    pending = set()\n"
        "    for x in pending:\n"
        "        pass\n"
    )
    assert "ORD001" in rules_hit(source, "src/repro/interval/x.py")


def test_ord_flags_comprehension_over_set_literal():
    source = "def f():\n    return [x for x in {1, 2, 3}]\n"
    assert "ORD001" in rules_hit(source, "src/repro/pipeline/x.py")


def test_ord_allows_sorted_sets_and_membership():
    source = (
        "def f(xs):\n"
        "    seen = set()\n"
        "    for x in sorted(set(xs)):\n"
        "        if x in seen:\n"
        "            pass\n"
    )
    assert rules_hit(source, "src/repro/pipeline/x.py") == []


def test_ord_not_enforced_outside_hot_packages():
    source = "def f(xs):\n    for x in set(xs):\n        pass\n"
    assert rules_hit(source, "src/repro/harness/x.py") == []


# -- CFG001 ----------------------------------------------------------------

def test_cfg_flags_unfrozen_config_dataclass():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class SweepConfig:\n"
        "    x: int = 0\n"
    )
    assert "CFG001" in rules_hit(source, "x.py")


def test_cfg_allows_frozen_config():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class SweepConfig:\n"
        "    x: int = 0\n"
    )
    assert rules_hit(source, "x.py") == []


def test_cfg_ignores_non_dataclass_and_non_config_names():
    source = (
        "from dataclasses import dataclass\n"
        "class PlainConfig:\n"
        "    pass\n"
        "@dataclass\n"
        "class Result:\n"
        "    x: int = 0\n"
    )
    assert rules_hit(source, "x.py") == []


# -- EXC001 / PRT001 -------------------------------------------------------

def test_exc_flags_bare_except_only():
    source = (
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n"
    )
    assert rules_hit(source, "x.py") == ["EXC001"]


def test_prt_flags_print_in_library():
    assert "PRT001" in rules_hit("print('hi')\n", "src/repro/lab/x.py")


def test_prt_exempts_cli_and_main():
    assert rules_hit("print('hi')\n", "src/repro/cli.py") == []
    assert rules_hit("print('hi')\n", "src/repro/__main__.py") == []


# -- OBS001 ----------------------------------------------------------------

def test_obs_flags_perf_counter_in_lab():
    source = "import time\nt = time.perf_counter()\n"
    assert "OBS001" in rules_hit(source, "src/repro/lab/x.py")


def test_obs_flags_monotonic_from_import_in_harness():
    source = "from time import monotonic\n"
    assert "OBS001" in rules_hit(source, "src/repro/harness/x.py")


def test_obs_allows_time_time_and_sleep_in_lab():
    source = "import time\nt = time.time()\ntime.sleep(0.1)\n"
    assert rules_hit(source, "src/repro/lab/x.py") == []


def test_obs_allows_the_blessed_doorways():
    source = "from repro.util.timing import Stopwatch\nw = Stopwatch()\n"
    assert rules_hit(source, "src/repro/lab/x.py") == []


def test_obs_scoped_to_lab_and_harness():
    source = "import time\nt = time.perf_counter()\n"
    assert "OBS001" not in rules_hit(source, "src/repro/trace/x.py")


# -- OBS002 ----------------------------------------------------------------

def test_obs2_flags_name_without_unit_suffix():
    source = "m.counter('core.penalty')\n"
    assert "OBS002" in rules_hit(source, "src/repro/pipeline/x.py")


def test_obs2_flags_name_without_subsystem():
    source = "m.histogram('penalty_cycles')\n"
    assert "OBS002" in rules_hit(source, "src/repro/pipeline/x.py")


def test_obs2_allows_conventional_names():
    source = (
        "m.counter('core.cycles_total')\n"
        "m.gauge('core.rob_occupancy_peak')\n"
        "m.histogram('interval.length_instructions')\n"
    )
    assert rules_hit(source, "src/repro/pipeline/x.py") == []


def test_obs2_ignores_dynamic_names():
    source = "m.counter(name)\nm.counter(f'core.{x}_total')\n"
    assert rules_hit(source, "src/repro/pipeline/x.py") == []


# -- RES001 ----------------------------------------------------------------

def test_res_flags_bare_write_open_in_lab():
    source = 'with open("manifest.json", "w") as h:\n    h.write("{}")\n'
    assert "RES001" in rules_hit(source, "src/repro/lab/x.py")


def test_res_flags_append_mode_and_path_open():
    assert "RES001" in rules_hit(
        'h = open("log.jsonl", mode="a")\n', "src/repro/resilience/x.py"
    )
    assert "RES001" in rules_hit(
        'h = path.open("wb")\n', "src/repro/lab/x.py"
    )
    assert "RES001" in rules_hit(
        'import os\nh = os.fdopen(fd, "w")\n', "src/repro/lab/x.py"
    )


def test_res_flags_dynamic_mode():
    assert "RES001" in rules_hit(
        "h = open(p, mode)\n", "src/repro/lab/x.py"
    )


def test_res_allows_reads():
    source = (
        'with open("manifest.json", "r") as h:\n    h.read()\n'
        'g = open("other.json")\n'
        'f = path.open()\n'
    )
    assert "RES001" not in rules_hit(source, "src/repro/lab/x.py")


def test_res_scoped_to_lab_and_resilience():
    source = 'h = open("out.txt", "w")\n'
    assert "RES001" not in rules_hit(source, "src/repro/harness/x.py")
    assert "RES001" not in rules_hit(source, "src/repro/cli.py")


def test_res_exempts_the_atomic_helper_module():
    source = 'h = open("state.json", "w")\n'
    assert "RES001" not in rules_hit(
        source, "src/repro/resilience/atomic.py"
    )


def test_res_noqa_escape_hatch():
    source = 'h = open("scratch.txt", "w")  # repro: noqa[RES001]\n'
    assert "RES001" not in rules_hit(source, "src/repro/lab/x.py")


# ---------------------------------------------------------------- SRV001


def test_srv_flags_sleep_and_subprocess_in_coroutine():
    source = (
        "import time, subprocess\n"
        "async def handler(req):\n"
        "    time.sleep(0.1)\n"
        "    subprocess.run(['ls'])\n"
    )
    hits = rules_hit(source, "src/repro/serve/service.py")
    assert hits.count("SRV001") == 2


def test_srv_flags_sync_store_and_file_io():
    source = (
        "async def handler(store, cache, path, key):\n"
        "    a = store.get(key)\n"
        "    b = cache.lookup(key)\n"
        "    c = open('x.json').read()\n"
        "    d = path.read_text()\n"
    )
    hits = rules_hit(source, "src/repro/serve/service.py")
    assert hits.count("SRV001") == 4


def test_srv_ignores_sync_functions_and_nested_defs():
    source = (
        "import time\n"
        "def blocking_helper(store, key):\n"
        "    time.sleep(0.1)\n"
        "    return store.get(key)\n"
        "async def handler(store, key):\n"
        "    def inner():\n"
        "        return store.get(key)\n"
        "    return inner\n"
    )
    assert "SRV001" not in rules_hit(source, "src/repro/serve/service.py")


def test_srv_allows_awaited_to_thread_wrappers():
    source = (
        "import asyncio\n"
        "async def handler(store, key):\n"
        "    return await asyncio.to_thread(store.get, key)\n"
    )
    assert "SRV001" not in rules_hit(source, "src/repro/serve/service.py")


def test_srv_scoped_to_serve():
    source = (
        "import time\n"
        "async def handler():\n"
        "    time.sleep(0.1)\n"
    )
    assert "SRV001" not in rules_hit(source, "src/repro/lab/pool.py")
    assert "SRV001" in rules_hit(source, "src/repro/serve/shards.py")


def test_srv_noqa_escape_hatch():
    source = (
        "async def handler(cache, key):\n"
        "    return cache.get(key)  # repro: noqa[SRV001]  in-memory\n"
    )
    assert "SRV001" not in rules_hit(source, "src/repro/serve/service.py")


# ---------------------------------------------------------------- SRV003


def test_srv3_flags_unbounded_future_awaits():
    source = (
        "import asyncio\n"
        "async def run(future, inflight, key):\n"
        "    a = await asyncio.wrap_future(future)\n"
        "    b = await asyncio.shield(inflight[key])\n"
        "    c = await future\n"
    )
    hits = rules_hit(source, "src/repro/serve/service.py")
    assert hits.count("SRV003") == 3


def test_srv3_allows_wait_for_bounded_awaits():
    source = (
        "import asyncio\n"
        "async def run(future, existing, remaining_s):\n"
        "    a = await asyncio.wait_for(\n"
        "        asyncio.wrap_future(future), timeout=remaining_s\n"
        "    )\n"
        "    b = await asyncio.wait_for(\n"
        "        asyncio.shield(existing), timeout=None\n"
        "    )\n"
        "    c = await asyncio.to_thread(len, [])\n"
    )
    assert "SRV003" not in rules_hit(source, "src/repro/serve/service.py")


def test_srv3_ignores_non_future_names():
    source = (
        "async def run(barrier, response):\n"
        "    await barrier\n"
        "    return await response\n"
    )
    assert "SRV003" not in rules_hit(source, "src/repro/serve/service.py")


def test_srv3_scoped_to_serve():
    source = (
        "import asyncio\n"
        "async def run(future):\n"
        "    return await asyncio.wrap_future(future)\n"
    )
    assert "SRV003" not in rules_hit(source, "src/repro/lab/pool.py")
    assert "SRV003" in rules_hit(source, "src/repro/serve/shards.py")


def test_srv3_noqa_escape_hatch():
    source = (
        "import asyncio\n"
        "async def run(future):\n"
        "    return await asyncio.wrap_future(future)"
        "  # repro: noqa[SRV003]  teardown\n"
    )
    assert "SRV003" not in rules_hit(source, "src/repro/serve/service.py")
