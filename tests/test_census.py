"""The reachability census's pipeline (``tests/census.py``) on a module
of known reach: the profile hook records what a child interpreter
enters, and the fold reports every function it missed, nested ones
included, and every allowlist entry it reached."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests import census

HERE = Path(__file__).resolve().parent


@pytest.mark.skipif(sys.version_info < (3, 11), reason="the census keys on co_qualname")
def test_the_fold_reports_unreached_nested_and_stale_names(tmp_path) -> None:
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(census.HOOK_DIR), str(HERE)]),
        CENSUS_OUT=str(tmp_path),
        CENSUS_SRC=str(HERE / "census_sample.py"),
    )
    subprocess.run(
        [sys.executable, "-c", "import census_sample; census_sample.main()"],
        env=env,
        check=True,
        timeout=60,
    )
    path = HERE / "census_sample.py"
    defined = {
        (path.name, qualname, line): value
        for (qualname, line), value in census.functions(path, "sample").items()
    }
    reached = census.read_records(tmp_path, HERE)
    allowlist = {"sample:allowlisted": "untaken-branch: a test entry", "sample:gone": "x"}
    unreached, stale = census.fold(defined, reached, allowlist)
    assert unreached == [
        ("sample:Box.unused_method", 2),
        ("sample:not_called", 2),
        ("sample:outer.<locals>.inner_not_called", 2),
    ]
    assert stale == ["sample:allowlisted", "sample:gone"]
    assert {name for name, __ in defined.values()} == {
        "sample:called", "sample:not_called", "sample:allowlisted", "sample:outer",
        "sample:outer.<locals>.inner_called", "sample:outer.<locals>.inner_not_called",
        "sample:Box.method", "sample:Box.unused_method", "sample:main",
    }
