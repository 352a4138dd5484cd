"""Tests for the Bloom filter that fronts the SQLite posting store.

Every filter here is built the way the store builds one: the
constructor at a capacity, then ``add`` / ``update``."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.bloom import BloomFilter


class TestBasics:
    def test_members_always_found(self) -> None:
        bloom = BloomFilter(capacity=100)
        keys = [f"doc{i}" for i in range(100)]
        bloom.update(keys)
        for key in keys:
            assert key in bloom

    def test_empty_filter_rejects_everything(self) -> None:
        bloom = BloomFilter(capacity=10)
        assert "anything" not in bloom

    def test_len_counts_insertions(self) -> None:
        bloom = BloomFilter(capacity=10)
        bloom.add("a")
        bloom.add("a")
        assert len(bloom) == 2

    def test_invalid_parameters(self) -> None:
        with pytest.raises(ValueError):
            BloomFilter(capacity=0)
        with pytest.raises(ValueError):
            BloomFilter(capacity=10, error_rate=0.0)
        with pytest.raises(ValueError):
            BloomFilter(capacity=10, error_rate=1.0)


class TestSizing:
    def test_lower_error_rate_bigger_filter(self) -> None:
        loose = BloomFilter(capacity=1000, error_rate=0.1)
        tight = BloomFilter(capacity=1000, error_rate=0.001)
        assert tight.num_bits > loose.num_bits
        assert tight.num_hashes >= loose.num_hashes

    def test_filter_much_smaller_than_posting_list(self) -> None:
        """A 1%-error front over n doc ids takes ~1.2 bytes per id, not
        the 24 of the posting it guards: ``m = -n·ln(p) / ln(2)²`` bits
        and ``k = (m/n)·ln(2)`` hashes."""
        n = 5000
        bloom = BloomFilter(capacity=n, error_rate=0.01)
        bloom.update(f"doc{i}" for i in range(n))
        assert bloom.num_bits == 47926
        assert bloom.num_hashes == 7
        assert (bloom.num_bits + 7) // 8 < n * 24 / 10


class TestFalsePositives:
    def test_empirical_rate_near_target(self) -> None:
        rng = random.Random(7)
        members = [f"m{i}" for i in range(2000)]
        bloom = BloomFilter(capacity=len(members), error_rate=0.02)
        bloom.update(members)
        probes = [f"x{rng.random()}" for __ in range(4000)]
        fp = sum(1 for p in probes if p in bloom)
        assert fp / len(probes) < 0.06  # 3x headroom over target


@settings(max_examples=40)
@given(
    st.sets(st.text(min_size=1, max_size=12), min_size=1, max_size=80),
    st.integers(min_value=1, max_value=80),
)
def test_no_false_negatives_property(keys: set, capacity: int) -> None:
    """Bloom filters may lie about membership but never about
    non-membership of inserted keys, at any fill: under capacity or
    past it."""
    bloom = BloomFilter(capacity=capacity, error_rate=0.05)
    bloom.update(sorted(keys))
    for key in keys:
        assert key in bloom
