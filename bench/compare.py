#!/usr/bin/env python3
"""Compare two benchmark result files metric by metric.

    python3 bench/compare.py A.json B.json

``A.json`` and ``B.json`` are ``bench/run.py --out`` files. For every
(workload, end-to-end metric) in both, prints B's change against A as a
share of A, in the direction ``BENCHMARK.json`` calls worse, next to
the metric's bound. A workload whose calibration loop moved more than
10% between the files ran on a host that changed speed; its rows are
flagged. Exits 1 when any metric is worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Calibration drift beyond which a comparison is flagged.
CALIB_DRIFT = 0.10


def worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    change = (b - a) / a if a else 0.0
    return change if better == "lower" else -change


def compare(spec: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]
            ) -> List[Dict[str, Any]]:
    rows = []
    for workload in sorted(set(a) & set(b)):
        calib_a = a[workload].get("calib_ms")
        calib_b = b[workload].get("calib_ms")
        drift: Optional[float] = (
            abs(calib_b - calib_a) / calib_a if calib_a and calib_b else None)
        for entry in spec["end_to_end"]:
            name = entry["name"]
            if name not in a[workload]["metrics"] or \
                    name not in b[workload]["metrics"]:
                continue
            value_a = a[workload]["metrics"][name]["value"]
            value_b = b[workload]["metrics"][name]["value"]
            worse = worsening(value_a, value_b, entry["better"])
            rows.append({
                "workload": workload, "metric": name,
                "a": value_a, "b": value_b, "worse": worse,
                "bound": entry["bound"],
                "regressed": worse > entry["bound"],
                "calib_drift": drift,
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(spec, json.loads(args.a.read_text(encoding="utf-8")),
                   json.loads(args.b.read_text(encoding="utf-8")))
    print(f"{'workload':13s} {'metric':12s} {'A':>12s} {'B':>12s} "
          f"{'worse':>8s} {'bound':>6s}")
    for row in rows:
        verdict = "REGRESSED" if row["regressed"] else "ok"
        drift = row["calib_drift"]
        if drift is not None and drift > CALIB_DRIFT:
            verdict += f" (calib moved {100 * drift:.0f}%)"
        print(f"{row['workload']:13s} {row['metric']:12s} {row['a']:12.4f} "
              f"{row['b']:12.4f} {100 * row['worse']:7.1f}% "
              f"{100 * row['bound']:5.0f}% {verdict}")
    return 1 if any(row["regressed"] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
