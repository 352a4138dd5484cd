"""Route-cache behaviour: the bounded map itself, and its integration
into ``ChordRing.lookup`` — epoch invalidation, message accounting, and
correctness across joins, leaves, and crashes (ISSUE 2 satellites)."""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ChordConfig
from repro.dht import RouteCache
from repro.dht.messages import MessageKind
from repro.dht.ring import ChordRing
from repro.exceptions import NodeFailedError


def make_ring(num_peers: int = 64, cache: int = 65536, **kwargs) -> ChordRing:
    return ChordRing(
        ChordConfig(num_peers=num_peers, route_cache_size=cache, **kwargs)
    )


class TestRouteCacheUnit:
    def test_rejects_nonpositive_capacity(self) -> None:
        with pytest.raises(ValueError):
            RouteCache(0)

    def test_store_and_get(self) -> None:
        cache = RouteCache(4)
        assert cache.get(1, 10) is None
        cache.store(1, 10, 99, epoch=3)
        assert cache.get(1, 10) == (99, 3)
        assert len(cache) == 1

    def test_fifo_eviction_at_capacity(self) -> None:
        cache = RouteCache(2)
        cache.store(1, 10, 99, 0)
        cache.store(1, 11, 98, 0)
        cache.store(1, 12, 97, 0)
        assert cache.get(1, 10) is None  # oldest evicted
        assert cache.get(1, 12) == (97, 0)
        assert cache.evictions == 1

    def test_restore_of_existing_key_does_not_evict(self) -> None:
        cache = RouteCache(2)
        cache.store(1, 10, 99, 0)
        cache.store(1, 11, 98, 0)
        cache.store(1, 10, 99, 1)  # overwrite, cache is full but key exists
        assert cache.evictions == 0
        assert cache.get(1, 11) == (98, 0)

    def test_refresh_restamps_epoch_and_counts(self) -> None:
        cache = RouteCache(4)
        cache.store(1, 10, 99, 0)
        cache.refresh(1, 10, 99, 5)
        assert cache.get(1, 10) == (99, 5)
        assert cache.revalidations == 1

    def test_invalidate_and_clear(self) -> None:
        cache = RouteCache(4)
        cache.store(1, 10, 99, 0)
        cache.invalidate(1, 10)
        assert cache.get(1, 10) is None
        cache.store(2, 20, 88, 0)
        cache.clear()
        assert len(cache) == 0

    def test_hit_rate_and_stats(self) -> None:
        cache = RouteCache(4)
        assert cache.hit_rate == 0.0
        cache.hits, cache.misses = 3, 1
        assert cache.hit_rate == 0.75
        stats = cache.stats()
        assert stats["hits"] == 3 and stats["capacity"] == 4


def replay_on_model(capacity: int, ops: List[Tuple[str, int]]) -> RouteCache:
    """Run *ops* on a cache and on a list-of-pairs model of first-in
    first-out by insertion, comparing contents, order and the eviction
    count after every op: a store or refresh keeps a present entry's
    place, a new store goes to the back (evicting the front when full),
    an invalidated entry stored again goes to the back, a clear empties
    both."""
    cache = RouteCache(capacity)
    model: List[list] = []
    evictions = 0
    for step, (op, key) in enumerate(ops):
        value = (key * 7, step)
        present = next((pair for pair in model if pair[0] == (1, key)), None)
        if op == "store":
            cache.store(1, key, *value)
            if present is not None:
                present[1] = value
            else:
                if len(model) >= capacity:
                    del model[0]
                    evictions += 1
                model.append([(1, key), value])
        elif op == "refresh" and present is not None:
            cache.refresh(1, key, *value)
            present[1] = value
        elif op == "invalidate":
            cache.invalidate(1, key)
            if present is not None:
                model.remove(present)
        elif op == "clear":
            cache.clear()
            model.clear()
        assert list(cache._entries.items()) == [tuple(pair) for pair in model]
        assert cache.evictions == evictions
    return cache


class TestEvictionOrder:
    """A full cache evicts its oldest entry by first insertion; refreshes,
    re-stores and invalidations move entries exactly as the model does."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["store", "store", "refresh", "invalidate"]),
                st.integers(0, 9),
            ),
            min_size=80,
            max_size=300,
        )
    )
    def test_store_refresh_invalidate_evict_match_the_model(self, ops) -> None:
        replay_on_model(4, ops)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), capacity=st.sampled_from([65, 130]))
    def test_several_capacities_of_evictions_match_the_model(self, seed, capacity) -> None:
        """A full cache evicts from a list of its oldest keys read ahead
        (:class:`~repro.memo.FifoMap`, at least 64 at a time): run long
        enough to use up several such lists and several capacities'
        worth of evictions, with invalidations (which drop the list) in
        between and one clear halfway."""
        rng = random.Random(seed)
        ops = [
            (rng.choices(["store", "refresh", "invalidate"], [8, 1, 1])[0], rng.randrange(3 * capacity))
            for __ in range(16 * capacity)
        ]
        ops[len(ops) // 2] = ("clear", 0)
        cache = replay_on_model(capacity, ops)
        assert cache.evictions >= 5 * capacity


class TestCachePrivateToItsRing:
    """Node ids are deterministic in the seed, so two same-seed rings
    hold the same ids: a route is only meaningful to the ring that
    resolved it.  Each ring therefore constructs its own cache."""

    def test_same_seed_rings_hold_distinct_caches(self) -> None:
        """Two same-id rings churn divergently to equal epochs — the one
        state revalidation could not catch across a shared cache — and
        each still resolves its own owner and counts its own hits."""
        ids = [100, 2000, 40000]
        ring_a, ring_b = (
            ChordRing(
                ChordConfig(num_peers=3, route_cache_size=64), node_ids=list(ids)
            )
            for __ in range(2)
        )
        assert ring_a.route_cache is not ring_b.route_cache
        key = 1500  # owned by node 2000 in both rings initially
        ring_b.join(node_id=1600)  # takes over the key in B only
        assert ring_b.lookup(100, key).node_id == 1600
        ring_a.join(node_id=30000)  # unrelated; A's epoch now equals B's
        assert ring_a.epoch == ring_b.epoch
        assert ring_a.lookup(100, key).node_id == 2000
        assert ring_a.lookup(100, key).hops == 1
        assert (ring_a.route_cache.hits, ring_b.route_cache.hits) == (1, 0)


class TestRingIntegration:
    def test_cache_disabled_when_size_zero(self) -> None:
        ring = make_ring(cache=0)
        assert ring.route_cache is None
        start = ring.live_ids[0]
        assert ring.lookup(start, 12345).node_id == ring.successor_of(12345)

    def test_repeat_lookup_served_from_cache(self) -> None:
        ring = make_ring()
        start = ring.live_ids[0]
        key = 123456789 % ring.space.size
        first = ring.lookup(start, key)
        assert ring.route_cache.hits == 0
        second = ring.lookup(start, key)
        assert second.node_id == first.node_id
        assert ring.route_cache.hits == 1
        # A cache hit is a direct contact: exactly one hop.
        assert second.hops == 1

    def test_cached_hit_accounts_one_lookup_message_and_hop(self) -> None:
        ring = make_ring()
        start = ring.live_ids[0]
        key = 987654321 % ring.space.size
        ring.lookup(start, key)
        before = ring.stats.kind(MessageKind.LOOKUP)
        msgs0, hops0 = before.messages, before.hops
        ring.lookup(start, key)  # cache hit
        after = ring.stats.kind(MessageKind.LOOKUP)
        assert after.messages == msgs0 + 1
        assert after.hops == hops0 + 1

    def test_cache_not_consulted_when_start_owns_key(self) -> None:
        ring = make_ring()
        owner = ring.live_ids[5]
        key = owner  # a node always owns its own id
        for __ in range(2):
            result = ring.lookup(owner, key)
            assert result.node_id == owner
            assert result.hops == 0

    def test_lookup_correct_after_join_takes_over_key(self) -> None:
        """Regression (ISSUE 2 satellite): a join that takes ownership of
        a cached key must invalidate the stale route via the epoch bump."""
        ring = ChordRing(
            ChordConfig(num_peers=3, route_cache_size=64), node_ids=[100, 2000, 40000]
        )
        key = 1500  # owned by 2000
        assert ring.lookup(100, key).node_id == 2000
        ring.join(node_id=1600)  # takes over (100, 1600], including 1500
        assert ring.successor_of(key) == 1600
        assert ring.lookup(100, key).node_id == 1600

    def test_lookup_correct_after_collision_probed_join(self) -> None:
        """A name-hashed join lands via collision probing on a fresh id;
        cached routes into the interval it takes over must not survive."""
        ring = make_ring(num_peers=32)
        start = ring.live_ids[0]
        keys = [(7919 * i) % ring.space.size for i in range(50)]
        for key in keys:
            ring.lookup(start, key)
        new_id = ring.join(name="late-arriving-peer")
        assert ring.is_live(new_id)
        for key in keys:
            assert ring.lookup(start, key).node_id == ring.successor_of(key)

    def test_lookup_correct_after_graceful_leave(self) -> None:
        ring = make_ring(num_peers=32)
        start = ring.live_ids[0]
        key = (ring.live_ids[10] - 1) % ring.space.size
        owner = ring.lookup(start, key).node_id
        if owner == start:
            owner = ring.live_ids[10]
        ring.leave(owner)
        assert ring.lookup(start, key).node_id == ring.successor_of(key)

    def test_cached_route_to_crashed_node_fails_like_routing(self) -> None:
        """A cached route pointing at a crashed, unrepaired owner must
        fail exactly like routed lookup does (Section 7 window), not
        silently return the dead peer."""
        ring = make_ring(num_peers=32)
        start = ring.live_ids[0]
        key = (ring.live_ids[16] + 1) % ring.space.size
        owner = ring.lookup(start, key).node_id
        if owner == start:
            pytest.skip("start owns the probe key for this seed")
        ring.fail(owner)
        with pytest.raises(NodeFailedError):
            ring.lookup(start, key)
        ring.stabilize()
        assert ring.lookup(start, key).node_id == ring.successor_of(key)

    def test_revalidation_survives_unrelated_churn(self) -> None:
        """Epoch changes from membership events elsewhere on the ring
        revalidate (not discard) still-correct routes."""
        ring = make_ring(num_peers=64)
        start = ring.live_ids[0]
        key = (ring.live_ids[32] + 1) % ring.space.size
        owner = ring.lookup(start, key).node_id
        ring.join(name="elsewhere")  # almost surely not in (start, owner]
        result = ring.lookup(start, key)
        assert result.node_id == ring.successor_of(key)
        if result.node_id == owner and result.hops == 1:
            assert ring.route_cache.revalidations >= 1

    def test_oracle_agreement_under_mixed_churn(self) -> None:
        import random

        ring = make_ring(num_peers=48)
        rng = random.Random(11)
        for step in range(6):
            keys = [rng.randrange(ring.space.size) for __ in range(40)]
            starts = [ring.random_live_id(rng) for __ in keys]
            for start, key in zip(starts, keys):
                assert ring.lookup(start, key).node_id == ring.successor_of(key)
            ring.join(name=f"churn-{step}")
            ring.leave(ring.random_live_id(rng))
            ring.stabilize()
            for start, key in zip(starts, keys):
                if ring.is_live(start):
                    assert ring.lookup(start, key).node_id == ring.successor_of(key)
