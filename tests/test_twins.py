"""Every row of the twin table (``tests/twins.py``) on every transport,
flow and result-cache size it names, and the census that keeps each
reference under ``tests/`` a row or exempt at its own level.

Tier-1 runs each cell on the explicit read program only.  The CI job
``scenario-check`` draws programs as well:
``TWIN_PROFILE=twin-programs python -m pytest tests/test_twins.py``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from .twins import EXEMPT, FLOWS, PROGRAM, ROWS, STEPS, run_row

settings.register_profile("twin-example", phases=[Phase.explicit], deadline=None, database=None)
settings.register_profile("twin-programs", max_examples=25, deadline=None, database=None)

#: Modules under ``tests/`` that are neither test files nor references.
SUPPORT = {"conftest.py", "core/conftest.py", "twins.py"}

CELLS = [
    pytest.param(
        row, transport, flow, cache,
        id=f"{row.name}-{transport}-{flow}-{'result-cache' if cache else 'no-result-cache'}",
    )
    for row in ROWS
    for transport in row.transports
    for flow in FLOWS
    for cache in row.result_caches
]


@pytest.mark.parametrize("row, transport, flow, result_cache", CELLS)
@settings(settings.get_profile(os.environ.get("TWIN_PROFILE", "twin-example")))
@example(program=PROGRAM)
@given(program=st.lists(st.sampled_from(STEPS), min_size=1, max_size=8).map(tuple))
def test_twin_row(micro_oracle, row, transport, flow, result_cache, program) -> None:
    run_row(row, micro_oracle, transport, flow, result_cache, program)


def test_a_narrowed_row_says_why() -> None:
    for row in ROWS:
        narrowed = row.transports != ("perfect", "lossy") or row.result_caches != (0, 32)
        assert bool(row.why) == narrowed, row.name


def test_every_reference_is_a_row_or_exempt_at_its_level() -> None:
    """A module under ``tests/`` that is not a test file is support, a
    reference a row installs, or a reference exempt at a lower level —
    so a new reference that brings its own harness fails here."""
    here = Path(__file__).parent
    modules = {
        path.relative_to(here).as_posix()
        for path in here.rglob("*.py")
        if not path.name.startswith("test_") and path.name != "__init__.py"
    }
    installed = {
        row.substitute.__module__.removeprefix("tests.").replace(".", "/") + ".py"
        for row in ROWS
    } - SUPPORT
    assert not installed & EXEMPT.keys()
    assert modules == SUPPORT | installed | EXEMPT.keys()
