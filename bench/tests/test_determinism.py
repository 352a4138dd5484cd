"""Same seed, same inputs and same exact metrics; another seed, another stream."""

from __future__ import annotations

import pytest

from bench.run import run_workload
from bench.schema import EXACT
from bench.workloads import WORKLOADS


@pytest.mark.parametrize("name", ["churn_mixed", "ingest_cold"])
def test_seed_decides_the_stream_and_the_exact_metrics(name):
    first = run_workload(name, seed=7, quick=True)
    again = run_workload(name, seed=7, quick=True)
    other = run_workload(name, seed=8, quick=True)
    assert first["correct"] and again["correct"] and other["correct"]
    assert first["stream_hash"] == again["stream_hash"]
    assert first["stream_hash"] != other["stream_hash"]
    assert first["gates"] == again["gates"]
    for metric in EXACT & set(first["metrics"]):
        assert first["metrics"][metric]["value"] == again["metrics"][metric]["value"], metric


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stream_hash_needs_no_system(name):
    one = WORKLOADS[name](seed=3, quick=True)
    two = WORKLOADS[name](seed=3, quick=True)
    other = WORKLOADS[name](seed=4, quick=True)
    for workload in (one, two, other):
        workload.prepare()
    assert one.stream_hash() == two.stream_hash() != other.stream_hash()
