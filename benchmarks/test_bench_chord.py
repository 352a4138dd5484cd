"""Chord routing sanity: lookups resolve in O(log N) hops (paper §2:
"the lookup function can guarantee a term be found in log N hops").
"""

from __future__ import annotations

import math
import random

import pytest

from repro.config import ChordConfig
from repro.dht import ChordRing
from repro.evaluation import format_hops, run_hop_scaling

RING_SIZES = (16, 32, 64, 128, 256, 512)
LOOKUPS_PER_RING = 400
SEED = 5


@pytest.fixture(scope="module")
def hop_table(record_result):
    rows = run_hop_scaling(RING_SIZES, LOOKUPS_PER_RING, SEED)
    record_result("chord_hops", format_hops(rows))
    return dict(rows)


def test_bench_hop_sweep(benchmark, hop_table) -> None:
    """Generate the hop table (via the fixture) and time one ring's
    sweep; asserts the logarithmic shape inline so it also holds under
    --benchmark-only runs."""
    benchmark.pedantic(
        run_hop_scaling, args=((64,), LOOKUPS_PER_RING, SEED), rounds=1, iterations=1
    )
    for n, hops in hop_table.items():
        assert hops <= 1.5 * math.log2(n)


def test_bench_chord_lookup(benchmark) -> None:
    """Raw lookup latency on a 256-peer ring."""
    ring = ChordRing(ChordConfig(num_peers=256, id_bits=32, seed=9))
    rng = random.Random(11)
    starts = [ring.random_live_id(rng) for __ in range(64)]
    keys = [rng.randrange(ring.space.size) for __ in range(64)]

    def run() -> None:
        for start, key in zip(starts, keys):
            ring.lookup(start, key, record=False)

    benchmark(run)


class TestShape:
    def test_hops_logarithmic_upper_bound(self, hop_table) -> None:
        for n, hops in hop_table.items():
            assert hops <= 1.5 * math.log2(n), f"N={n}: {hops:.2f} hops"

    def test_hops_grow_sublinearly(self, hop_table) -> None:
        """Doubling the ring must add roughly a constant, not double."""
        assert hop_table[512] < hop_table[16] * 4

    def test_hops_increase_with_ring_size(self, hop_table) -> None:
        assert hop_table[512] > hop_table[16]


def test_bench_construction(benchmark) -> None:
    """Ring construction/stabilization cost for a 256-peer network."""
    benchmark.pedantic(
        lambda: ChordRing(ChordConfig(num_peers=256, id_bits=32, seed=3)),
        rounds=3,
        iterations=1,
    )
