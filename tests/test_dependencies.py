"""Structural guards: the package has no third-party runtime dependency
(pyproject ``dependencies = []``), optional imports included, every
name the benchmark's layer budget hooks still exists, and the core does
not depend on the ``repro.perf`` harnesses."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"

#: The only modules outside ``repro/perf/`` that may import the harnesses.
PERF_IMPORTERS = {Path("cli.py"), Path("sim/oracle.py")}

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


def _imports_perf(module: Path, node: ast.AST) -> bool:
    """Whether *node* imports ``repro.perf`` (or anything below it),
    absolutely or relative to *module*'s package."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level:
            package = ("repro",) + module.parent.parts
            anchor = package[: len(package) - (node.level - 1)]
            base = ".".join(anchor + ((base,) if base else ()))
        # ``from repro import perf`` / ``from . import perf`` name the
        # package in the alias list, not in the module path.
        names = [base] + [f"{base}.{alias.name}" for alias in node.names]
    else:
        return False
    return any(n == "repro.perf" or n.startswith("repro.perf.") for n in names)


def test_core_never_imports_perf_or_a_global_profile() -> None:
    """``repro.perf`` is harnesses only: counts live on the object that
    owns them and time in the benchmark's tracer, so no core module may
    import the package, and no process-global ``PROFILE`` may return."""
    perf_importers = []
    profile_sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE)
        source = path.read_text(encoding="utf-8")
        if "PROFILE" in source:
            profile_sites.append(str(module))
        if module.parts[0] == "perf" or module in PERF_IMPORTERS:
            continue
        if any(_imports_perf(module, node) for node in ast.walk(ast.parse(source))):
            perf_importers.append(str(module))
    assert not perf_importers
    assert not profile_sites
