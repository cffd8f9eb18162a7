"""Guard for the benchmark tracer: every excol name it wraps still exists.

``benchmarks/trace_worker.py`` replaces named functions and methods of
the excol modules by timing wrappers.  Deleting or renaming one of them
breaks ``benchmarks/run.py --trace 1``; installing the wrappers here makes
that a tier-1 failure as well.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    # -B: importing the worker writes no bytecode under benchmarks/
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "import trace_worker; trace_worker.Recorder().install()"],
        cwd=ROOT / "benchmarks", env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
