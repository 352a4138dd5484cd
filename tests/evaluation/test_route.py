"""The route sweep (DESIGN.md §8, ``benchmarks/test_bench_route.py``)
and the hop-scaling table (``repro hops``, ``benchmarks/test_bench_chord.py``):
cell determinism, the cross-arity checksum oracle and the tables'
shape, on rings small enough for tier-1."""

from __future__ import annotations

import dataclasses

import pytest

from repro.evaluation import (
    format_hops,
    format_route,
    hop_reduction,
    route_checksums_match,
    run_hop_scaling,
    run_route_cell,
)


@pytest.fixture(scope="module")
def small_sweep():
    """Chord and record:8 on a 200-peer ring."""
    return [run_route_cell(200, 2), run_route_cell(200, 8)]


class TestRouteCell:
    def test_cell_is_deterministic(self, small_sweep) -> None:
        assert run_route_cell(200, 8) == small_sweep[1]

    def test_cell_measures_routing(self, small_sweep) -> None:
        cell = small_sweep[0]
        assert (cell.num_peers, cell.arity) == (200, 2)
        assert cell.lookups > 0
        assert cell.mean_hops > 1.0
        assert cell.p99_hops >= cell.mean_hops
        assert cell.lookup_messages > cell.lookups  # multi-hop lookups
        assert cell.build_entries > 0
        assert cell.churn_entries > 0


class TestRouteSweep:
    def test_grid_matches_and_reduces_hops(self, small_sweep) -> None:
        assert route_checksums_match(small_sweep)
        assert hop_reduction(small_sweep, 200, 8) > 0.10
        chord, record = small_sweep
        assert record.fingers > chord.fingers
        assert record.lookup_messages < chord.lookup_messages

    def test_a_split_checksum_reads_mismatch(self, small_sweep) -> None:
        other = dataclasses.replace(small_sweep[1], ranking_checksum="0" * 64)
        split = [small_sweep[0], other]
        assert not route_checksums_match(split)
        assert "cross-ring ranking checksums: MISMATCH" in format_route(split)

    def test_summary_table_shape(self, small_sweep) -> None:
        lines = format_route(small_sweep).splitlines()
        assert lines[0].split() == [
            "peers", "ring", "hops_mean", "hops_p99", "lookup_msgs", "fingers",
            "build_entries", "churn_entries", "checksum",
        ]
        assert lines[1].split()[:2] == ["200", "chord"]
        assert lines[2].split()[:2] == ["200", "record:8"]
        assert lines[3] == "cross-ring ranking checksums: MATCH"
        assert lines[4].startswith("record:8 vs chord @ 200: ")
        assert lines[4].endswith("% fewer mean hops")
        assert len(lines) == 5


class TestHopScaling:
    def test_one_row_per_size_logarithmic(self) -> None:
        rows = run_hop_scaling((16, 64), 100, 5)
        assert [n for n, __ in rows] == [16, 64]
        assert 1.0 < rows[0][1] < rows[1][1] <= 1.5 * 6
        assert run_hop_scaling((16, 64), 100, 5) == rows

    def test_table_shape(self) -> None:
        assert format_hops([(16, 2.4567)]).splitlines() == [
            "  N    mean hops    log2(N)",
            "  16        2.46      4.00",
        ]
