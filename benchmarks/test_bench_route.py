"""Tracked routing benchmark (DESIGN.md §8).

Runs the :mod:`repro.perf.route` arity × peers sweep, asserts
the cross-ring equivalence oracle (bit-identical ranking checksums per
peer count — routing changes where messages go, never what is
returned), and records hop counts, lookup messages, finger-table sizes,
and stabilize traffic into ``benchmarks/BENCH_ROUTE.json`` so the arity
tradeoff numbers in DESIGN.md §8 have a committed source.  The record
holds only what the seeded sweep determines — counts, checksums and the
grid — so a rerun on any machine leaves it unchanged; the build, query
and wall times and the worker count go to the log.

Scales (``BENCH_ROUTE_SCALE``):

* ``smoke`` (default) — 600 peers, chord vs record:8; seconds.  CI's
  benchmark smoke job runs this with enforcement on.
* ``paper`` — the tracked grid: 2k and 10k peers × chord / record:4 /
  record:8 / record:32.

Both scales update their own entry of ``BENCH_ROUTE.json``; the table
``benchmarks/results/route.txt`` is committed at paper scale, so only a
paper run rewrites it — a smoke run prints its table and leaves the
committed one alone.

Gates (``BENCH_ROUTE_ENFORCE=1``): the recursive ring must beat Chord
by at least 20% mean hops at the gate scale (the ReCord claim the PR
reproduces), and the gate cell's mean hops must not regress more than
30% above the committed record.  Checksum equivalence is asserted on
every run — it is an oracle, not a performance number.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.perf.route import (
    route_paper_config,
    route_smoke_config,
    run_route_cell,
    run_route_workload,
)

RECORD_PATH = Path(__file__).parent / "BENCH_ROUTE.json"
SCALE = os.environ.get("BENCH_ROUTE_SCALE", "smoke")
ENFORCE = os.environ.get("BENCH_ROUTE_ENFORCE", "") == "1"
#: Minimum mean-hop reduction of the gate ring vs Chord (the paper-
#: claim gate; measured ~24% at 600 peers, ~27%+ at 10k).
REDUCTION_FLOOR = 0.20
#: Max tolerated mean-hop growth of the gate cell vs the committed
#: record (hop counts are deterministic, so 30% headroom is generous).
HOPS_CEILING = 1.3
#: (peer count, ring label) the gates watch, per scale.
GATE_CELL = {"smoke": (600, "record:8"), "paper": (10_000, "record:8")}
WORKERS = int(os.environ.get("BENCH_ROUTE_WORKERS", "4" if SCALE == "paper" else "1"))


def _config():
    cfg = route_smoke_config() if SCALE == "smoke" else route_paper_config()
    return cfg.replaced(workers=WORKERS)


def _record(result) -> Dict[str, object]:
    """The sweep's deterministic fields: no clock, no worker count."""
    record = result.to_dict()
    del record["wall_s"], record["workers"]
    record["cells"] = [
        {k: v for k, v in cell.items() if k not in ("build_s", "query_s")}
        for cell in result.cells
    ]
    return record


def _format_timings(result) -> str:
    lines = [
        f"route timings [{SCALE}]: {result.wall_s:.2f} s wall "
        f"on {result.workers} worker(s)"
    ]
    for cell in result.cells:
        lines.append(
            f"{cell['num_peers']:>7} {cell['ring']:<10} "
            f"build {cell['build_s']:.3f} s  queries {cell['query_s']:.3f} s"
        )
    return "\n".join(lines)


def _format_table(result) -> str:
    reductions = []
    if "chord" in result.rings:
        for peers in result.peers_grid:
            for ring in result.rings:
                if ring != "chord":
                    reductions.append(
                        f"{ring} vs chord @ {peers}: "
                        f"{result.hop_reduction(peers, ring):.1%} fewer mean hops"
                    )
    return "\n".join(
        [f"routing workload [{SCALE}]", result.summary_table()] + reductions
    )


@pytest.fixture(scope="module")
def measurements(record_result):
    committed = {}
    if RECORD_PATH.exists():
        committed = json.loads(RECORD_PATH.read_text(encoding="utf-8"))

    result = run_route_workload(_config())

    record = dict(committed)
    record[SCALE] = _record(result)
    RECORD_PATH.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if SCALE == "paper":
        record_result("route", _format_table(result))
    else:
        sys.stderr.write(f"\n=== route ===\n{_format_table(result)}\n")
    sys.stderr.write(f"{_format_timings(result)}\n")
    return {"result": result, "committed": committed}


def test_bench_route_cell(benchmark) -> None:
    """Time one tiny chord cell for the pytest-benchmark table."""
    cfg = route_smoke_config().replaced(
        peers_grid=(200,), num_queries=200, num_documents=30
    )
    benchmark.pedantic(
        run_route_cell, args=(cfg, 200, 2), rounds=1, iterations=1
    )


class TestCrossRingOracle:
    def test_checksums_bit_identical_across_rings(self, measurements) -> None:
        """The ``ring-paths`` oracle claim at bench scale: every ring column of a
        peers group returns byte-for-byte the same rankings."""
        result = measurements["result"]
        assert result.checksums_match
        for peers in result.peers_grid:
            sums = {
                result.cell(peers, ring)["ranking_checksum"]
                for ring in result.rings
            }
            assert len(sums) == 1, f"checksum split at {peers} peers"

    def test_grid_covers_the_tracked_shape(self, measurements) -> None:
        result = measurements["result"]
        assert "chord" in result.rings and "record:8" in result.rings
        if SCALE == "paper":
            assert 10_000 in result.peers_grid
            assert "record:32" in result.rings


class TestArityTradeoff:
    def test_recursive_rings_shorten_routes(self, measurements) -> None:
        """Monotone direction check on every grid row: any b>2 column
        beats chord on mean hops while paying more fingers."""
        result = measurements["result"]
        for peers in result.peers_grid:
            chord = result.cell(peers, "chord")
            for ring in result.rings:
                if ring == "chord":
                    continue
                cell = result.cell(peers, ring)
                assert cell["mean_hops"] < chord["mean_hops"], (peers, ring)
                assert cell["finger_table_size"] > chord["finger_table_size"]

    def test_gate_ring_meets_reduction_floor(self, measurements) -> None:
        if not ENFORCE:
            pytest.skip("BENCH_ROUTE_ENFORCE not set (informational run)")
        peers, ring = GATE_CELL[SCALE]
        reduction = measurements["result"].hop_reduction(peers, ring)
        assert reduction >= REDUCTION_FLOOR, (
            f"{ring} @ {peers} peers reduces mean hops by {reduction:.1%}, "
            f"below the {REDUCTION_FLOOR:.0%} floor"
        )


class TestRegressionGuard:
    def _gate(self, measurements):
        committed = measurements["committed"].get(SCALE, {})
        peers, ring = GATE_CELL[SCALE]
        cells = committed.get("cells", [])
        previous = next(
            (
                c
                for c in cells
                if c["num_peers"] == peers and c["ring"] == ring
            ),
            None,
        )
        if previous is None:
            pytest.skip(f"no committed record for gate cell {ring}@{peers} yet")
        if not ENFORCE:
            pytest.skip("BENCH_ROUTE_ENFORCE not set (informational run)")
        return previous, measurements["result"].cell(peers, ring)

    def test_mean_hops_vs_committed_record(self, measurements) -> None:
        previous, current = self._gate(measurements)
        ceiling = HOPS_CEILING * previous["mean_hops"]
        assert current["mean_hops"] <= ceiling, (
            f"mean hops regressed: {current['mean_hops']:.3f} vs committed "
            f"{previous['mean_hops']:.3f} (ceiling {HOPS_CEILING:.0%})"
        )

    def test_lookup_messages_vs_committed_record(self, measurements) -> None:
        previous, current = self._gate(measurements)
        ceiling = HOPS_CEILING * previous["lookup_messages"]
        assert current["lookup_messages"] <= ceiling, (
            f"lookup wire messages regressed: {current['lookup_messages']} "
            f"vs committed {previous['lookup_messages']}"
        )
