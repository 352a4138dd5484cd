"""Tracked scale-out benchmark (DESIGN.md §13).

Runs the :mod:`repro.perf.scale` sharded harness over a peers × docs ×
workers grid, asserts the determinism invariant (merged checksum
independent of worker count), and records throughput *and memory* into
``benchmarks/BENCH_SCALE.json`` so subsequent PRs have a scale
trajectory to compare against.  Row labels keep their ``-python``
suffix from when a second scoring kernel shared the grid, so the
committed trajectory stays addressable.

Scales (``BENCH_SCALE_SCALE``):

* ``smoke`` (default) — 400 peers / 4 shards, seconds; what CI's
  benchmark smoke job runs (workers 1 vs 2).
* ``paper`` — the tracked grid: the 20k-peer / 25k-doc mid row and the
  100k-peer / 125k-doc / ~1M-posting headline row.

Regression guard: with ``BENCH_SCALE_ENFORCE=1`` the run fails if the
gate row's per-core queries/sec drops more than 30% below the committed
record, or its peak RSS grows more than 50% above it (CI sets this).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List

import pytest

from repro.perf.scale import (
    ScaleWorkloadConfig,
    run_scale_workload,
    scale_paper_config,
    scale_smoke_config,
)

RECORD_PATH = Path(__file__).parent / "BENCH_SCALE.json"
SCALE = os.environ.get("BENCH_SCALE_SCALE", "smoke")
ENFORCE = os.environ.get("BENCH_SCALE_ENFORCE", "") == "1"
#: Max tolerated per-core queries/sec regression vs the committed record.
REGRESSION_FLOOR = 0.7
#: Max tolerated peak-RSS growth vs the committed record (RSS carries
#: interpreter + allocator noise, so the ceiling is generous).
RSS_CEILING = 1.5
#: The row the regression gate watches, per scale.
GATE_ROW = {"smoke": "smoke-w2-python", "paper": "mid-w2-python"}


def _grid(scale: str) -> List[Dict[str, object]]:
    """The (label, config) grid for one scale."""
    if scale == "paper":
        mid = ScaleWorkloadConfig()  # 20k peers / 25k docs / 8 shards
        headline = scale_paper_config()  # 100k peers / 125k docs / 16 shards
        return [
            {"label": "mid-w1-python", "cfg": mid.replaced(workers=1)},
            {"label": "mid-w2-python", "cfg": mid.replaced(workers=2)},
            {"label": "headline-w2-python", "cfg": headline.replaced(workers=2)},
        ]
    smoke = scale_smoke_config()
    return [
        {"label": "smoke-w1-python", "cfg": smoke.replaced(workers=1)},
        {"label": "smoke-w2-python", "cfg": smoke.replaced(workers=2)},
    ]


def _row_record(cfg: ScaleWorkloadConfig, result) -> Dict[str, object]:
    return {
        "num_peers": result.num_peers,
        "num_documents": result.num_documents,
        "num_queries": result.num_queries,
        "num_shards": result.num_shards,
        "workers": result.workers,
        "seed": cfg.seed,
        "build_s": result.build_s,
        "publish_s": result.publish_s,
        "query_s": result.query_s,
        "wall_s": result.wall_s,
        "queries_per_s": result.queries_per_s,
        "docs_per_s": result.docs_per_s,
        "postings_per_s": result.postings_per_s,
        "wall_queries_per_s": result.wall_queries_per_s,
        "postings_published": result.postings_published,
        "peak_rss_kb": result.peak_rss_kb,
        "allocated_blocks_delta": result.allocated_blocks_delta,
        "ranking_checksum": result.ranking_checksum,
    }


def _format_table(rows: Dict[str, Dict[str, object]]) -> str:
    lines = [
        f"scale-out workload [{SCALE}]",
        f"{'row':<20} {'peers':>8} {'docs':>8} {'wk':>3} "
        f"{'q/s·core':>10} {'posts/s':>10} {'wall_s':>8} {'rss_mb':>8}",
    ]
    for label, row in rows.items():
        lines.append(
            f"{label:<20} {row['num_peers']:>8} {row['num_documents']:>8} "
            f"{row['workers']:>3} "
            f"{row['queries_per_s']:>10.1f} {row['postings_per_s']:>10.1f} "
            f"{row['wall_s']:>8.2f} {row['peak_rss_kb'] / 1024:>8.1f}"
        )
    return "\n".join(lines)


@pytest.fixture(scope="module")
def measurements(record_result):
    committed = {}
    if RECORD_PATH.exists():
        committed = json.loads(RECORD_PATH.read_text(encoding="utf-8"))

    rows: Dict[str, Dict[str, object]] = {}
    for spec in _grid(SCALE):
        cfg = spec["cfg"]
        rows[spec["label"]] = _row_record(cfg, run_scale_workload(cfg))

    record = dict(committed)
    record[SCALE] = {"rows": rows}
    RECORD_PATH.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    record_result("scale", _format_table(rows))
    return {"rows": rows, "committed": committed}


def test_bench_scale_workload(benchmark, measurements) -> None:
    """Time one single-shard smoke run for the pytest-benchmark table."""
    cfg = scale_smoke_config().replaced(
        num_peers=150, num_documents=200, num_queries=150, num_shards=1, workers=1
    )
    benchmark.pedantic(run_scale_workload, args=(cfg,), rounds=1, iterations=1)


class TestEquivalence:
    def test_worker_count_invisible_in_results(self, measurements) -> None:
        """Same partitioning, 1 vs 2 workers: identical merged checksum."""
        rows = measurements["rows"]
        one = next(v for k, v in rows.items() if k.endswith("w1-python"))
        two = next(
            v
            for k, v in rows.items()
            if k.endswith("w2-python") and v["num_peers"] == one["num_peers"]
        )
        assert one["ranking_checksum"] == two["ranking_checksum"]
        assert one["postings_published"] == two["postings_published"]

    def test_grid_includes_the_headline_scale(self, measurements) -> None:
        rows = measurements["rows"]
        biggest = max(row["num_peers"] for row in rows.values())
        if SCALE == "paper":
            assert biggest >= 100_000
        else:
            assert biggest >= 400


class TestMemoryAccounting:
    def test_rows_carry_memory_columns(self, measurements) -> None:
        for label, row in measurements["rows"].items():
            assert row["peak_rss_kb"] > 0, label
            assert "allocated_blocks_delta" in row, label


class TestRegressionGuard:
    def _gate(self, measurements):
        committed = measurements["committed"].get(SCALE, {}).get("rows", {})
        label = GATE_ROW[SCALE]
        if label not in committed:
            pytest.skip(f"no committed record for gate row {label!r} yet")
        if not ENFORCE:
            pytest.skip("BENCH_SCALE_ENFORCE not set (informational run)")
        return committed[label], measurements["rows"][label]

    def test_queries_per_s_vs_committed_record(self, measurements) -> None:
        previous, current = self._gate(measurements)
        floor = REGRESSION_FLOOR * previous["queries_per_s"]
        assert current["queries_per_s"] >= floor, (
            f"per-core queries/sec regressed: {current['queries_per_s']:.0f} "
            f"vs committed {previous['queries_per_s']:.0f} "
            f"(floor {REGRESSION_FLOOR:.0%})"
        )

    def test_peak_rss_vs_committed_record(self, measurements) -> None:
        previous, current = self._gate(measurements)
        ceiling = RSS_CEILING * previous["peak_rss_kb"]
        assert current["peak_rss_kb"] <= ceiling, (
            f"peak RSS grew: {current['peak_rss_kb']}kb vs committed "
            f"{previous['peak_rss_kb']}kb (ceiling {RSS_CEILING:.0%})"
        )
