"""Importing the harness, the CLI and the serve plane must stay cheap.

NumPy takes on the order of 100 ms to import, more than the rest of the
harness set-up. The columnar generator, the trace's column queries, the
ILP fit and the perf layer import it inside the functions that use it,
so a process that only imports these entry points (or answers from the
store) never pays for it; ``serve-mixed``'s set-up time counts on it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def assert_import_loads_no_numpy(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    probe = (
        "import sys\n"
        f"import {module}\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
        "assert not loaded, loaded[:5]\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_importing_the_harness_does_not_load_numpy():
    assert_import_loads_no_numpy("repro.harness.experiments")


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve.service"])
def test_importing_an_entry_point_does_not_load_numpy(module):
    assert_import_loads_no_numpy(module)
