"""What importing the package loads.

Start-up is paid by every process: each CLI command, each benchmark
child and each pool worker that starts by spawn or forkserver.  scipy is
imported on first use by the few functions that call it, and networkx is
a test-only oracle, so neither may load on import.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = ("repro", "repro.cli", "repro.deploy", "repro.serve", "repro.core",
           "repro.data", "repro.graph", "repro.nas.experiment")


def test_import_loads_neither_scipy_nor_networkx():
    probe = (f"import sys\nfor name in {MODULES!r}:\n    __import__(name)\n"
             "print(sorted({'scipy', 'networkx'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
