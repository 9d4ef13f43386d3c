"""Importing the package loads neither the corrector's HTTP stack nor the worker pool.

``urllib.request`` brings ``http.client``, ``ssl``, ``socket`` and ``email``;
``concurrent.futures.process`` brings ``multiprocessing``.  Only
``HttpCorrectorClient.correct_years`` and ``cmd_extract``'s pool use them, so
every other process, and every worker, starts without them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("urllib.request", "http.client", "ssl", "concurrent.futures.process", "multiprocessing")


@pytest.mark.parametrize("module", ["migrec", "migrec.cli"])
def test_importing_loads_no_http_stack_or_worker_pool(module):
    probe = f"import sys, {module}; print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    path = os.pathsep.join(filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.split() == []
