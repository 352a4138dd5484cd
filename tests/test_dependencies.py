"""Structural guards: the package has no third-party runtime dependency
(pyproject ``dependencies = []``), optional imports included, and every
name the benchmark's layer budget hooks still exists."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import repro, repro.cli, repro.perf, repro.sim
import repro.perf.scale, repro.perf.concurrency, repro.perf.route
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


def test_every_benchmark_trace_hook_resolves(monkeypatch) -> None:
    """``bench.trace.LAYER_TABLE`` names the ``(module, attribute)``
    pairs the benchmark wraps to fill its layer budget; a target that
    no longer exists silently nulls a layer there.  Only the table is
    read — nothing is traced or run."""
    monkeypatch.syspath_prepend(str(SRC.parent))
    from bench.trace import LAYER_TABLE

    missing = []
    for module, attribute, *__ in LAYER_TABLE:
        target = importlib.import_module(module)
        for name in attribute.split("."):
            target = getattr(target, name, None)
            if target is None:
                missing.append(f"{module}:{attribute}")
                break
    assert not missing
