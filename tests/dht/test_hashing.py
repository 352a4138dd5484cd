"""Tests for the identifier space and MD5 ring hashing."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.hashing import IdSpace, md5_hash


class TestMd5Hash:
    def test_matches_hashlib(self) -> None:
        full = int.from_bytes(hashlib.md5(b"chord").digest(), "big")
        assert md5_hash("chord", 128) == full
        assert md5_hash("chord", 32) == full >> 96

    def test_within_range(self) -> None:
        for bits in (8, 16, 32, 64):
            value = md5_hash("some term", bits)
            assert 0 <= value < (1 << bits)

    def test_deterministic(self) -> None:
        assert md5_hash("term", 32) == md5_hash("term", 32)

    def test_different_keys_differ(self) -> None:
        assert md5_hash("alpha", 64) != md5_hash("beta", 64)


class TestIdSpace:
    def test_size(self) -> None:
        assert IdSpace(8).size == 256

    def test_invalid_bits(self) -> None:
        with pytest.raises(ValueError):
            IdSpace(0)
        with pytest.raises(ValueError):
            IdSpace(129)

    def test_distance_basic(self) -> None:
        space = IdSpace(8)
        assert space.distance(10, 20) == 10
        assert space.distance(20, 10) == 246   # wraps
        assert space.distance(5, 5) == 0


class TestInterval:
    def test_simple_interval(self) -> None:
        space = IdSpace(8)
        assert space.in_interval(15, 10, 20)
        assert space.in_interval(20, 10, 20)        # right-inclusive
        assert not space.in_interval(10, 10, 20)    # left-exclusive
        assert not space.in_interval(25, 10, 20)

    def test_wrapping_interval(self) -> None:
        space = IdSpace(8)
        assert space.in_interval(5, 250, 10)
        assert space.in_interval(255, 250, 10)
        assert not space.in_interval(100, 250, 10)

    def test_degenerate_interval_is_full_ring(self) -> None:
        space = IdSpace(8)
        assert space.in_interval(123, 7, 7)
        assert space.in_interval(7, 7, 7)
        # Open on the right: the whole ring but the end point itself.
        assert space.in_interval(123, 7, 7, inclusive_right=False)
        assert not space.in_interval(7, 7, 7, inclusive_right=False)

    def test_exclusive_right(self) -> None:
        space = IdSpace(8)
        assert not space.in_interval(20, 10, 20, inclusive_right=False)
        assert space.in_interval(19, 10, 20, inclusive_right=False)


class TestClosestTerm:
    """``closest_term_to_key(key, query terms, owner's term → hash)``."""

    def test_picks_minimal_ring_gap(self) -> None:
        space = IdSpace(8)
        terms = {"near": 100, "far": 200}
        assert space.closest_term_to_key(105, ("far", "near"), terms) == "near"

    def test_wraparound_distance_counts(self) -> None:
        space = IdSpace(8)
        # 250 is 6 backward-steps from 0 (wrap), 50 forward to 200... so
        # "wrap" (at 250) is closer to key 0 than "mid" (at 100).
        terms = {"wrap": 250, "mid": 100}
        assert space.closest_term_to_key(0, ("mid", "wrap"), terms) == "wrap"
        # And forward through zero: 3 ahead of 254 beats 4 behind it.
        terms = {"ahead": 1, "behind": 250}
        assert space.closest_term_to_key(254, ("behind", "ahead"), terms) == "ahead"

    def test_deterministic_tie_break(self) -> None:
        space = IdSpace(8)
        terms = {"b": 110, "a": 90}  # both 10 away from 100
        assert space.closest_term_to_key(100, ("b", "a"), terms) == "a"
        assert space.closest_term_to_key(100, ("a", "b"), terms) == "a"

    def test_empty_candidates_raise(self) -> None:
        with pytest.raises(ValueError):
            IdSpace(8).closest_term_to_key(0, (), {})
        with pytest.raises(ValueError):
            IdSpace(8).closest_term_to_key(0, ("a",), {})


@settings(max_examples=300, deadline=None)
@given(
    key=st.integers(0, 255),
    owner=st.dictionaries(st.text("abcd", min_size=1, max_size=2), st.integers(0, 255), min_size=1),
    query=st.lists(st.text("abcde", min_size=1, max_size=2), max_size=6),
)
def test_closest_term_is_the_brute_force_minimum(key, owner, query) -> None:
    """The one-loop rule ≡ ``min`` over the query's terms the owner
    indexes, by (the smaller of both ring distances, the term)."""
    space = IdSpace(8)
    present = [t for t in query if t in owner]
    expected = None
    if present:
        expected = min(
            present,
            key=lambda t: (min((owner[t] - key) % 256, (key - owner[t]) % 256), t),
        )
    assert space.closest_term_to_key(key, query, owner) == expected


@given(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
)
def test_interval_membership_matches_linear_scan(x: int, a: int, b: int) -> None:
    """in_interval must agree with a brute-force walk around the ring."""
    space = IdSpace(8)
    if a == b:
        expected = True
    else:
        walk = []
        pos = (a + 1) % 256
        while pos != b:
            walk.append(pos)
            pos = (pos + 1) % 256
        walk.append(b)
        expected = x in walk
    assert space.in_interval(x, a, b) == expected


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
def test_distance_antisymmetry(a: int, b: int) -> None:
    space = IdSpace(8)
    if a != b:
        assert space.distance(a, b) + space.distance(b, a) == 256
    else:
        assert space.distance(a, b) == 0
