import os

import pytest

from calib import CALIB_REF_MS, Calibrator, reference_seconds


def test_reference_seconds_follow_the_loop_time():
    ref = CALIB_REF_MS
    # Sample i stands for the time since sample i - 1.
    samples = [(1.0, ref), (2.0, 2 * ref), (3.0, ref / 2)]
    assert reference_seconds(0.0, 1.0, samples) == pytest.approx(1.0)
    assert reference_seconds(1.0, 2.0, samples) == pytest.approx(0.5)
    assert reference_seconds(2.0, 3.0, samples) == pytest.approx(2.0)
    assert reference_seconds(0.5, 2.5, samples) == pytest.approx(0.5 + 0.5 + 1.0)
    # Past the last sample, the last one stands in.
    assert reference_seconds(3.0, 5.0, samples) == pytest.approx(4.0)
    # An interval shorter than the sampling period takes its sample's rate.
    assert reference_seconds(1.2, 1.3, samples) == pytest.approx(0.05)
    assert reference_seconds(1.0, 1.0, samples) == 0.0
    with pytest.raises(ValueError):
        reference_seconds(0.0, 1.0, [])


def test_calibrator_merges_every_core(tmp_path):
    cpus = sorted(os.sched_getaffinity(0))
    with Calibrator(tmp_path, cpus) as calibrator:
        assert calibrator.samples()
    samples = calibrator.samples()
    assert all(ms > 0 for _, ms in samples)
    assert [t for t, _ in samples] == sorted(t for t, _ in samples)
    # One process per core, each with its own file, all stopped.
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(f"calib-{cpu}.txt" for cpu in cpus)
    assert all(proc.poll() is not None for proc in calibrator._procs)
