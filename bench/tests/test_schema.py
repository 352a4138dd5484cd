"""BENCHMARK.json says what the code does, within the contract's limits."""

from __future__ import annotations

import json
import re

from bench import ROOT
from bench.schema import DETAIL, END_TO_END, PER_LAYER
from bench.workloads import NOMINAL_SECONDS, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_keys_command_and_paths():
    data = manifest()
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert data["command"] == ["python3", "-m", "bench"]
    assert data["paths"] == ["bench"]
    assert data["run_seconds"] == NOMINAL_SECONDS
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_workloads_match_the_code():
    listed = manifest()["workloads"]
    assert [w["name"] for w in listed] == list(WORKLOADS)
    for entry in listed:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_metrics_match_the_code_and_the_limits():
    data = manifest()
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in data["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in data["per_layer"]} == PER_LAYER
    assert 1 <= len(data["end_to_end"]) <= 16 and 1 <= len(data["per_layer"]) <= 128
    assert "setup_s" in END_TO_END and END_TO_END["setup_s"][:2] == ("s", "lower")
    names = [m["name"] for m in data["end_to_end"] + data["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for entry in data["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in data["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in data["end_to_end"] + data["per_layer"]:
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert not set(DETAIL) & set(END_TO_END)
