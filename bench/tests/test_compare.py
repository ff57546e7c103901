from compare import compare

SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10},
]}


def result(wall, rate, calib=10.0):
    return {"w": {"calib_ms": calib, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "rate": {"value": rate, "unit": "1/s"}}}}


def test_regression_is_judged_in_the_worse_direction():
    rows = {r["metric"]: r for r in compare(SPEC, result(10.0, 100.0),
                                            result(11.5, 95.0))}
    assert rows["wall_s"]["regressed"] and abs(rows["wall_s"]["worse"] - 0.15) < 1e-9
    assert not rows["rate"]["regressed"]
    rows = {r["metric"]: r for r in compare(SPEC, result(10.0, 100.0),
                                            result(9.0, 80.0))}
    assert not rows["wall_s"]["regressed"] and rows["rate"]["regressed"]


def test_calibration_drift_is_reported():
    rows = compare(SPEC, result(10.0, 100.0), result(10.0, 100.0, calib=12.0))
    assert all(abs(r["calib_drift"] - 0.2) < 1e-9 for r in rows)
