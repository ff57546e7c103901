"""Importing the harness, the CLI and the serve plane must stay cheap.

NumPy takes on the order of 100 ms to import, more than the rest of the
harness set-up. The columnar generator, the trace's column queries, the
ILP fit and the perf layer import it inside the functions that use it,
so a process that only imports these entry points (or answers from the
store) never pays for it; ``serve-mixed``'s set-up time counts on it.

Likewise the lint engine: the cores, the interval layer and lab jobs
import the runtime sanitizer from ``repro.analysis``, and only
``repro lint`` loads the rules, the call graph and the cache.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def assert_import_loads_none_of(module, unwanted):
    """Importing ``module`` in a fresh interpreter loads no module for
    which the Python expression ``unwanted`` (over ``m``) is true."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    probe = (
        "import sys\n"
        f"import {module}\n"
        f"loaded = sorted(m for m in sys.modules if {unwanted})\n"
        "assert not loaded, loaded[:5]\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def assert_import_loads_no_numpy(module):
    assert_import_loads_none_of(module, "m.split('.')[0] == 'numpy'")


def test_importing_the_harness_does_not_load_numpy():
    assert_import_loads_no_numpy("repro.harness.experiments")


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve.service"])
def test_importing_an_entry_point_does_not_load_numpy(module):
    assert_import_loads_no_numpy(module)


@pytest.mark.parametrize(
    "module", ["repro.harness.experiments", "repro.serve.service", "repro.cli"]
)
def test_importing_an_entry_point_does_not_load_the_lint_engine(module):
    assert_import_loads_none_of(
        module,
        "m.startswith('repro.analysis.') and m != 'repro.analysis.sanitizer'",
    )
