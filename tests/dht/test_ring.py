"""Tests for the Chord ring simulator."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ChordConfig
from repro.dht import ChordRing
from repro.exceptions import (
    DHTError,
    EmptyRingError,
    NodeFailedError,
    NodeNotFoundError,
)


def make_ring(num_peers: int = 16, seed: int = 7, bits: int = 16) -> ChordRing:
    return ChordRing(
        ChordConfig(num_peers=num_peers, id_bits=bits, successor_list_size=4, seed=seed)
    )


class TestConstruction:
    def test_node_count(self) -> None:
        assert make_ring(16).num_live == 16

    def test_live_ids_sorted_unique(self) -> None:
        ids = make_ring(32).live_ids
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_explicit_node_ids(self) -> None:
        ring = ChordRing(ChordConfig(num_peers=3, id_bits=8), node_ids=[10, 100, 200])
        assert ring.live_ids == [10, 100, 200]

    def test_duplicate_explicit_ids_rejected(self) -> None:
        with pytest.raises(DHTError):
            ChordRing(ChordConfig(num_peers=2, id_bits=8), node_ids=[5, 5])

    def test_deterministic_for_seed(self) -> None:
        assert make_ring(16, seed=3).live_ids == make_ring(16, seed=3).live_ids

    def test_single_node_ring(self) -> None:
        ring = make_ring(1)
        node = ring.node(ring.live_ids[0])
        assert node.successor == node.node_id
        assert node.predecessor == node.node_id


class TestRoutingState:
    def test_successor_pointers_form_cycle(self) -> None:
        ring = make_ring(16)
        start = ring.live_ids[0]
        current = start
        visited = set()
        for __ in range(16):
            visited.add(current)
            current = ring.node(current).successor
        assert current == start
        assert visited == set(ring.live_ids)

    def test_predecessor_is_inverse_of_successor(self) -> None:
        ring = make_ring(16)
        for node_id in ring.live_ids:
            succ = ring.node(node_id).successor
            assert ring.node(succ).predecessor == node_id

    def test_fingers_point_to_correct_successors(self) -> None:
        ring = make_ring(16, bits=16)
        for node_id in ring.live_ids:
            node = ring.node(node_id)
            for i, finger in enumerate(node.fingers):
                start = ring.space.finger_start(node_id, i)
                assert finger == ring.successor_of(start)

    def test_successor_list_lengths(self) -> None:
        ring = make_ring(16)
        for node_id in ring.live_ids:
            assert len(ring.node(node_id).successor_list) == 4


class TestOracle:
    def test_successor_of_wraps(self) -> None:
        ring = ChordRing(ChordConfig(num_peers=3, id_bits=8), node_ids=[10, 100, 200])
        assert ring.successor_of(201) == 10
        assert ring.successor_of(5) == 10
        assert ring.successor_of(10) == 10
        assert ring.successor_of(11) == 100

    def test_predecessor_of(self) -> None:
        ring = ChordRing(ChordConfig(num_peers=3, id_bits=8), node_ids=[10, 100, 200])
        assert ring.predecessor_of(10) == 200
        assert ring.predecessor_of(100) == 10


class TestLookup:
    def test_lookup_agrees_with_oracle(self) -> None:
        ring = make_ring(32)
        rng = random.Random(5)
        for __ in range(200):
            key = rng.randrange(ring.space.size)
            start = ring.random_live_id(rng)
            result = ring.lookup(start, key, record=False)
            assert result.node_id == ring.successor_of(key)

    def test_lookup_from_owner_is_zero_hops(self) -> None:
        ring = make_ring(16)
        node_id = ring.live_ids[0]
        result = ring.lookup(node_id, node_id, record=False)
        assert result.node_id == node_id
        assert result.hops == 0

    def test_hop_counts_logarithmic(self) -> None:
        """Mean hops should stay well under N/2 (linear walking) and in
        the O(log N) ballpark."""
        import math
        ring = make_ring(128, bits=32)
        rng = random.Random(11)
        hops = [
            ring.lookup(ring.random_live_id(rng), rng.randrange(ring.space.size), record=False).hops
            for __ in range(300)
        ]
        mean = sum(hops) / len(hops)
        assert mean <= 2.0 * math.log2(128)

    def test_lookup_records_stats(self) -> None:
        ring = make_ring(16)
        ring.lookup(ring.live_ids[0], 12345)
        assert ring.stats.mean_lookup_hops >= 0
        assert sum(ring.stats.lookup_hop_histogram.values()) == 1

    def test_lookup_path_starts_at_origin(self) -> None:
        ring = make_ring(32)
        start = ring.live_ids[3]
        result = ring.lookup(start, 999, record=False)
        assert result.path[0] == start
        assert result.path[-1] == result.node_id

    def test_lookup_from_dead_node_raises(self) -> None:
        ring = make_ring(16)
        victim = ring.live_ids[0]
        ring.fail(victim)
        with pytest.raises(NodeFailedError):
            ring.lookup(victim, 1)

    def test_lookup_term_uses_md5(self) -> None:
        ring = make_ring(16)
        result = ring.lookup_term(ring.live_ids[0], "chord", record=False)
        assert result.node_id == ring.successor_of(ring.space.hash_key("chord"))


class TestJoin:
    def test_join_increases_membership(self) -> None:
        ring = make_ring(8)
        new_id = ring.join(name="newcomer")
        assert ring.num_live == 9
        assert new_id in ring.live_ids

    def test_join_migrates_keys(self) -> None:
        ring = ChordRing(ChordConfig(num_peers=2, id_bits=8), node_ids=[100, 200])
        # Key 150 belongs to node 200.
        ring.place(150, "payload")
        assert ring.node(200).get(150) == "payload"
        # A node at 160 takes over (100, 160]; key 150 must migrate.
        ring.join(node_id=160)
        assert ring.node(160).get(150) == "payload"
        assert ring.node(200).get(150) is None

    def test_join_existing_live_id_rejected(self) -> None:
        ring = make_ring(4)
        with pytest.raises(DHTError):
            ring.join(node_id=ring.live_ids[0])

    def test_lookup_correct_after_join(self) -> None:
        ring = make_ring(8)
        ring.join(name="fresh")
        rng = random.Random(2)
        for __ in range(50):
            key = rng.randrange(ring.space.size)
            assert ring.lookup(ring.random_live_id(rng), key, record=False).node_id == ring.successor_of(key)


class TestLeave:
    def test_leave_hands_over_keys(self) -> None:
        ring = ChordRing(ChordConfig(num_peers=3, id_bits=8), node_ids=[10, 100, 200])
        ring.place(50, "fifty")          # owned by node 100
        ring.leave(100)
        assert ring.node(200).get(50) == "fifty"
        assert ring.num_live == 2

    def test_leave_removes_node(self) -> None:
        ring = make_ring(8)
        victim = ring.live_ids[0]
        ring.leave(victim)
        assert victim not in ring.live_ids
        with pytest.raises(NodeNotFoundError):
            ring.node(victim)

    def test_cannot_leave_last_node(self) -> None:
        ring = make_ring(1)
        with pytest.raises(EmptyRingError):
            ring.leave(ring.live_ids[0])


class TestFail:
    def test_fail_keeps_data_in_place(self) -> None:
        ring = ChordRing(ChordConfig(num_peers=3, id_bits=8), node_ids=[10, 100, 200])
        ring.place(50, "fifty")
        ring.fail(100)
        # Data is NOT handed over — crash-stop.
        assert ring.node(100).get(50) == "fifty"
        assert ring.node(200).get(50) is None

    def test_fail_is_idempotent(self) -> None:
        ring = make_ring(8)
        victim = ring.live_ids[0]
        ring.fail(victim)
        ring.fail(victim)
        assert ring.num_live == 7

    def test_lookup_routes_around_failure_after_stabilize(self) -> None:
        ring = make_ring(16)
        rng = random.Random(9)
        victims = [ring.live_ids[2], ring.live_ids[7]]
        for v in victims:
            ring.fail(v)
        ring.stabilize()
        for __ in range(100):
            key = rng.randrange(ring.space.size)
            result = ring.lookup(ring.random_live_id(rng), key, record=False)
            assert result.node_id == ring.successor_of(key)
            assert result.node_id not in victims

    def test_responsibility_transfers_to_successor(self) -> None:
        ring = ChordRing(ChordConfig(num_peers=3, id_bits=8), node_ids=[10, 100, 200])
        assert ring.successor_of(50) == 100
        ring.fail(100)
        ring.stabilize()
        assert ring.successor_of(50) == 200


class TestPlace:
    def test_place_at_responsible_node(self) -> None:
        ring = make_ring(16)
        key = 31337 % ring.space.size
        holder = ring.place(key, {"v": 1})
        assert holder == ring.successor_of(key)
        assert ring.node(holder).get(key) == {"v": 1}


@settings(max_examples=30, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=2**16 - 1), min_size=2, max_size=24),
    st.integers(min_value=0, max_value=2**16 - 1),
)
def test_lookup_matches_oracle_property(node_ids: set, key: int) -> None:
    """For arbitrary memberships and keys, finger-table routing finds
    exactly the node the sorted-ring oracle says is responsible."""
    ids = sorted(node_ids)
    ring = ChordRing(
        ChordConfig(num_peers=len(ids), id_bits=16, successor_list_size=2, seed=1),
        node_ids=ids,
    )
    for start in (ids[0], ids[-1], ids[len(ids) // 2]):
        assert ring.lookup(start, key, record=False).node_id == ring.successor_of(key)
