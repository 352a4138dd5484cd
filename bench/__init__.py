"""The repo's single benchmark (see bench/README.md and BENCHMARK.json).

Run as ``python3 -m bench`` from the repository root.  The package
drives SPRITE only through its public API and keeps every timing
wrapper in its own files, so nothing under ``src/`` knows it exists.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Repository root: the directory holding ``bench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent

# BENCHMARK.json's command may name no path outside ``bench/``, so the
# package puts the source tree on the import path itself.
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
