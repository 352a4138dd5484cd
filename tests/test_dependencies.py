"""The package has no third-party runtime dependency (pyproject
``dependencies = []``), optional imports included."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import repro, repro.cli, repro.perf, repro.sim
import repro.perf.bench, repro.perf.scale, repro.perf.topk
print("numpy" in sys.modules)
"""


def test_importing_the_package_never_imports_numpy() -> None:
    """A fresh interpreter, so neither a pytest plugin's own numpy
    import nor this process's module cache can mask or fake the result."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert result.stdout.strip() == "False", result.stdout + result.stderr
