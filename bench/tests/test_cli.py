"""The command end to end: quick mode, the driver's line, import hygiene."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from bench import ROOT
from bench.schema import END_TO_END, PER_LAYER, workload_metrics
from bench.workloads import WORKLOADS

FORBIDDEN = {"repro.cli", "repro.sim"} | {
    f"repro.perf.{name}"
    for name in ("bench", "topk", "ingest", "store", "scale", "concurrency", "route")
}


def bench(*args, timeout=170):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_quick_mode_runs_every_workload_and_both_passes(tmp_path):
    out = tmp_path / "record.json"
    started = time.monotonic()
    done = bench("--quick", "--out", str(out))
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 30.0
    record = json.loads(out.read_text())
    assert {"cores", "python", "platform", "commit", "numpy", "loadavg_at_start"} <= set(
        record["environment"]
    )
    assert set(record["workloads"]) == set(WORKLOADS)
    for name, entry in record["workloads"].items():
        assert entry["correct"] and entry["errors"] == [] and entry["failed"] == 0
        assert entry["attempted"] >= 1
        expected = set(workload_metrics(name)) - {"query_p99_us"}  # needs 1,000 samples
        assert expected <= set(entry["metrics"])
        for metric, value in entry["metrics"].items():
            assert {"value", "min", "max", "n", "unit"} <= set(value), metric
            assert value["min"] <= value["value"] <= value["max"]
        for metric in END_TO_END:
            assert entry["metrics"][metric]["value"] > 0, metric
        assert set(PER_LAYER) <= set(entry["layers"])
        layers = entry["layers"]
        rows = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert rows == pytest.approx(layers["harness.wall_s"], rel=1e-9)
        assert entry["trace_missing"] == [] and entry["trace_broken_hooks"] == []
        assert name in done.stdout


@pytest.mark.parametrize("trace, names", [("0", END_TO_END), ("1", PER_LAYER)])
def test_driver_mode_ends_with_the_contract_line(trace, names):
    done = bench("--workload", "ingest_cold", "--seed", "5", "--seconds", "1",
                 "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(names)
    for name, value in line["metrics"].items():
        assert set(value) == {"value", "unit"}
        assert isinstance(value["value"], (int, float)), name
        assert value["unit"] == names[name][0]


def test_bench_never_imports_what_later_changes_may_delete():
    probe = (
        "import sys, bench.__main__, bench.run, bench.compare, bench.workloads;"
        "print('\\n'.join(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "repro.core.system" in loaded
    assert not loaded & FORBIDDEN
