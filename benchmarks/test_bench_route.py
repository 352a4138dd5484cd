"""Finger arity against hops (DESIGN.md §8, ReCord's trade of finger
state for shorter routes).

Runs :func:`repro.evaluation.run_route_sweep` over the committed grid —
2,000 and 10,000 peers × arities 2 (Chord), 4, 8 and 32 — and writes
``benchmarks/results/route.txt``.  Every number in the table is a
seeded count, so CI's ``git diff`` of ``benchmarks/results`` is the
regression gate; the tests below assert the table's shape.
"""

from __future__ import annotations

import pytest

from repro.evaluation import (
    ROUTE_ARITIES,
    ROUTE_PEERS,
    format_route,
    hop_reduction,
    run_route_cell,
    run_route_sweep,
)

#: ReCord's claim at the largest ring: record:8 needs this much fewer
#: mean hops than Chord (28.2 % measured).
REDUCTION_FLOOR = 0.20


@pytest.fixture(scope="module")
def route_table(record_result):
    rows = run_route_sweep()
    record_result("route", "routing workload [paper]\n" + format_route(rows))
    return rows


def test_bench_route_cell(benchmark) -> None:
    """Time one Chord cell at the smaller ring size."""
    benchmark.pedantic(run_route_cell, args=(ROUTE_PEERS[0], 2), rounds=1, iterations=1)


class TestShape:
    def test_rankings_equal_across_arities(self, route_table) -> None:
        for n in ROUTE_PEERS:
            sums = {r.ranking_checksum for r in route_table if r.num_peers == n}
            assert len(sums) == 1, f"checksum split at {n} peers"

    def test_wider_fingers_shorten_routes(self, route_table) -> None:
        cells = {(r.num_peers, r.arity): r for r in route_table}
        for n in ROUTE_PEERS:
            chord = cells[n, 2]
            for arity in ROUTE_ARITIES[1:]:
                assert cells[n, arity].mean_hops < chord.mean_hops, (n, arity)
                assert cells[n, arity].fingers > chord.fingers, (n, arity)

    def test_record8_meets_the_reduction_floor(self, route_table) -> None:
        reduction = hop_reduction(route_table, 10_000, 8)
        assert reduction >= REDUCTION_FLOOR, f"{reduction:.1%} fewer mean hops"
