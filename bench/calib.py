"""Host-speed calibration.

Shared sandboxes drift: the same cold regeneration measured 22.5 s and
31.4 s in consecutive runs on one 2-core host, and CPU time drifted with
it, so the drift is host speed, not scheduling. The benchmark therefore
times a fixed pure-Python + NumPy loop while it measures, and reports
each timed interval in *reference seconds*: the integral over the
interval of ``CALIB_REF_MS`` divided by the loop's time at that moment.
On a host where the loop takes ``CALIB_REF_MS``, reference seconds equal
seconds. The loop is the benchmark's own code, so no change to the
program can move it. Raw seconds are reported next to reference seconds.

The loop is timed on the cores the work runs on, because the cores of
such a host drift apart from moment to moment: one calibration process
keeps to each such core and times the loop every ``PAUSE_S``, which
takes under 2% of the core. It asks for a higher scheduling priority,
so that it times the core rather than waiting behind the work; where
that is not permitted it runs at the default priority. The samples of
all the cores merge into one series, in time order.
"""

from __future__ import annotations

import bisect
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Sequence, Tuple

#: Calibration-loop time on the reference host, in milliseconds.
CALIB_REF_MS = 1.7

#: Pause between one calibration process's samples.
PAUSE_S = 0.1

_PY_ITERATIONS = 20_000
_NP_SIZE = 20_000
_NP_PASSES = 8

Sample = Tuple[float, float]  # (time.monotonic() at the end, loop ms)


def work_cpu() -> int:
    """The core a figure round and its calibrator keep to."""
    return min(os.sched_getaffinity(0))


def calib_ms() -> float:
    """Time one pass of the fixed calibration loop, in milliseconds."""
    import numpy as np  # here, so measured processes can import calib cheaply

    start = time.perf_counter()
    acc = 0
    for i in range(_PY_ITERATIONS):
        acc += (i * 7) % 13
    values = np.arange(_NP_SIZE, dtype=np.float64)
    for _ in range(_NP_PASSES):
        values = np.sqrt(values * values + 1.0)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if acc < 0 or not values[-1] > 0.0:  # consume both results
        raise RuntimeError("calibration loop produced an impossible value")
    return elapsed_ms


def reference_seconds(start: float, end: float,
                      samples: Sequence[Sample]) -> float:
    """The interval ``[start, end]`` (monotonic seconds) in reference
    seconds. Sample *i* stands for the time since sample *i - 1*; the
    last sample also stands for whatever follows it."""
    if not samples:
        raise ValueError("no calibration samples")
    times = [t for t, _ in samples]
    index = bisect.bisect_left(times, start)
    total = 0.0
    cursor = start
    while cursor < end:
        if index < len(samples):
            stop, loop_ms = min(samples[index][0], end), samples[index][1]
        else:
            stop, loop_ms = end, samples[-1][1]
        total += (stop - cursor) * CALIB_REF_MS / loop_ms
        cursor = stop
        index += 1
    return total


class Calibrator:
    """One calibration process per core in ``cpus``, each sampling into
    its own file under ``directory`` until stopped."""

    def __init__(self, directory: Path, cpus: Sequence[int]) -> None:
        self.paths = [directory / f"calib-{cpu}.txt" for cpu in cpus]
        self.cpus = list(cpus)
        self._procs: List[subprocess.Popen] = []

    def __enter__(self) -> "Calibrator":
        try:
            for cpu, path in zip(self.cpus, self.paths):
                with open(path, "wb") as out:
                    self._procs.append(subprocess.Popen(
                        [sys.executable, __file__, str(cpu)], stdout=out))
            # A process's first sample marks it running.
            while not all(self._read(path) for path in self.paths):
                if any(proc.poll() is not None for proc in self._procs):
                    raise RuntimeError("a calibration process exited at start")
                time.sleep(0.01)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.wait()

    @staticmethod
    def _read(path: Path) -> List[Sample]:
        # Only whole lines: the last one may still be being written.
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        return [(float(t), float(ms))
                for t, ms in (line.split() for line in lines)]

    def samples(self) -> List[Sample]:
        """Every core's samples, in time order."""
        return sorted(s for path in self.paths for s in self._read(path))


def main(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    try:
        os.nice(-10)
    except OSError:
        pass
    while True:
        loop_ms = calib_ms()
        print(f"{time.monotonic():.6f} {loop_ms:.4f}", flush=True)
        time.sleep(PAUSE_S)


if __name__ == "__main__":
    main(int(sys.argv[1]))
