"""The benchmark harness: payload schema, baseline merge, regression gate."""

from __future__ import annotations

import json

import pytest

from repro.perf import bench


def run_payload(**overrides):
    payload = {
        "schema": bench.BENCH_SCHEMA_VERSION,
        "mode": "quick",
        "length": 12_000,
        "seed": bench.BENCH_SEED,
        "repeats": 2,
        "machine_score": 1_000_000.0,
        "benchmarks": {
            "detailed_core_batched": {
                "items_per_sec": 5e6,
                "seconds": 0.01,
                "items": 12_000,
                "normalized": 5.0,
            },
            "pack": {
                "items_per_sec": 1e6,
                "seconds": 0.01,
                "items": 12_000,
                "normalized": 1.0,
            },
        },
    }
    payload.update(overrides)
    return payload


def baseline_doc(run):
    return {
        "schema": bench.BENCH_SCHEMA_VERSION,
        "seed": run["seed"],
        "runs": {run["mode"]: {k: run[k] for k in run if k != "schema"}},
    }


def scaled(run, factor):
    copy = json.loads(json.dumps(run))
    for entry in copy["benchmarks"].values():
        entry["normalized"] *= factor
        entry["items_per_sec"] *= factor
    return copy


def test_compare_passes_on_identical_payloads():
    run = run_payload()
    assert bench.compare(run, baseline_doc(run)) == []


def test_compare_passes_within_threshold():
    run = run_payload()
    assert bench.compare(scaled(run, 0.90), baseline_doc(run)) == []


def test_compare_fails_beyond_threshold():
    run = run_payload()
    problems = bench.compare(scaled(run, 0.80), baseline_doc(run))
    assert len(problems) == 2
    assert all("below baseline" in p for p in problems)


def test_compare_threshold_is_adjustable():
    run = run_payload()
    assert bench.compare(
        scaled(run, 0.80), baseline_doc(run), threshold=0.25
    ) == []


def test_compare_reports_missing_benchmark():
    run = run_payload()
    current = run_payload()
    del current["benchmarks"]["pack"]
    problems = bench.compare(current, baseline_doc(run))
    assert problems and "not measured" in problems[0]


def test_compare_ignores_new_benchmarks():
    run = run_payload()
    current = run_payload()
    current["benchmarks"]["brand_new"] = {
        "items_per_sec": 1.0,
        "seconds": 1.0,
        "items": 1,
        "normalized": 0.001,
    }
    assert bench.compare(current, baseline_doc(run)) == []


def test_compare_requires_matching_mode_section():
    run = run_payload()
    doc = baseline_doc(run)
    full = dict(run, mode="full")
    problems = bench.compare(full, doc)
    assert problems and "no 'full' section" in problems[0]


def test_write_payload_merges_modes(tmp_path):
    path = tmp_path / "BENCH_simulator.json"
    quick = run_payload()
    full = run_payload(mode="full", length=60_000)
    bench.write_payload(full, str(path))
    bench.write_payload(quick, str(path))

    document = bench.load_baseline(str(path))
    assert sorted(document["runs"]) == ["full", "quick"]
    assert document["runs"]["full"]["length"] == 60_000
    assert document["runs"]["quick"]["length"] == 12_000
    # Rewriting one mode leaves the other intact.
    bench.write_payload(scaled(quick, 2.0), str(path))
    document = bench.load_baseline(str(path))
    assert document["runs"]["full"]["length"] == 60_000
    # Deterministic formatting: indented, sorted keys, trailing newline.
    expected = json.dumps(document, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


def test_render_mentions_mode_and_benchmarks():
    text = bench.render(run_payload())
    assert "bench[quick]" in text
    assert "detailed_core_batched" in text
    assert "5.000" in text  # its normalized throughput


@pytest.mark.slow
def test_run_benchmarks_smoke(monkeypatch):
    """One tiny real run: schema fields, normalization, the entry list."""
    monkeypatch.setattr(bench, "QUICK_LENGTH", 800)
    monkeypatch.setattr(bench, "_MIN_SAMPLE_SECONDS", 0.001)
    monkeypatch.setattr(bench, "_MAX_REPEATS", 1)
    monkeypatch.setattr(bench, "_CYCLES", 1)
    payload = bench.run_benchmarks(quick=True, repeats=1)
    assert payload["mode"] == "quick"
    assert payload["machine_score"] > 0
    for entry in payload["benchmarks"].values():
        assert entry["normalized"] > 0
    assert set(payload["benchmarks"]) == {
        "detailed_core_batched",
        "fast_sim_scalar",
        "replay_bimodal_scalar",
        "replay_gshare_scalar",
        "replay_local_scalar",
        "pack",
        "unpack",
        "statistics_scalar",
        "trace_generate",
        "interval_predict",
        "end_to_end_scalar",
    }
