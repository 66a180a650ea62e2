"""The report pins hold when numpy dispatches to its baseline CPU code paths only.

numpy picks SIMD loops for its ufuncs at run time, and a loop may round
differently from another (its AVX-512 exp does, on some inputs).  The pinned
reports in test_reports.py must not depend on that choice, so they are run
again in a subprocess with every dispatched target above the x86-64 baseline
switched off through NPY_DISABLE_CPU_FEATURES.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
NARROWED = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"

# Fails unless numpy honoured the variable, then runs the pinned reports.
SCRIPT = """
import sys
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
active = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
if active:
    sys.exit(f"dispatch still uses {active}")
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "tests/test_reports.py"]))
"""


@pytest.mark.skipif(np.__version__.startswith("1.")
                    or platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the dispatch targets named are numpy 2's on x86-64")
def test_report_pins_hold_on_the_baseline_code_paths():
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NARROWED, PYTHONPATH=path,
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-W", "ignore::ImportWarning", "-c", SCRIPT],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
