"""Start-up guard: the CLI's import chain stays free of heavy stdlib modules.

``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``
and executes generated code for every class it decorates, which every
``excol`` process would pay before doing any work.  A process pool
(``multiprocessing``, ``concurrent.futures``) costs about 20 ms of
imports and starts helper threads; ``verify all`` and ``orbit`` fork
with ``os.fork`` instead.  Each check runs a fresh interpreter without
``site`` (``-S``), so nothing imported at start-up can hide an import
made by excol.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def python(code, *args):
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env=ENV, capture_output=True, text=True, timeout=60,
    )


def test_cli_import_loads_no_heavy_module():
    proc = python(
        "import sys; before = set(sys.modules); import excol.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "excol.cli" in added and "excol.regions" in added
    assert not added & {"dataclasses", "inspect", "multiprocessing", "concurrent"}


def test_help_exits_0():
    proc = python("import sys; from excol.cli import main; sys.exit(main())", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")
