"""Importing the harness must stay cheap.

NumPy takes on the order of 100 ms to import, more than the rest of the
harness set-up. The columnar generator, the ILP fit and the perf layer
import it inside the functions that use it, so a process that only
imports the harness (or answers from the store) never pays for it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_importing_the_harness_does_not_load_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    probe = (
        "import sys\n"
        "import repro.harness.experiments\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
        "assert not loaded, loaded[:5]\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
