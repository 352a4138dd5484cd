"""Finger selection by distance ≡ the linear scan (ISSUE 15).

``ChordRing.lookup`` walks the finger tables inline and starts each
hop's far-to-near scan at ``bisect_left(finger_steps, gap) - 1`` instead
of at the far end of the table.  Skipping the entries above that index
is sound only because every table the ring writes satisfies

    finger i is the node itself, or sits at clockwise distance
    >= finger_steps[i].

This module pins three things: a lookup from every node at its probe
keys — the positions where an off-by-one in the start index would show
— resolves exactly as the method-calling reference router of
``tests/dht/reference_router.py`` (built on the linear scan of
``linear_finger_scan.py``) resolves it; the invariant holds after every
membership event at every arity; and whole churn schedules — results,
paths, exceptions, message accounting, transport RNG draws — cannot
tell the two routers apart, with the route cache off, filled by every
lookup, or — the owner cell — with half the lookups an owner's, which
neither read nor write it.  ``ROUTER_DIFF_PROFILE=router-diff-drawn``
replays 50 seeded schedules per cell where tier-1 runs the fixed one.
"""

from __future__ import annotations

import os
import random
from functools import partial

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.config import ChordConfig
from repro.dht import ChordRing
from repro.dht.hashing import IdSpace, recursive_finger_steps
from repro.dht.node import ChordNode
from repro.exceptions import DHTError, NodeFailedError
from repro.net import DeliveryPolicy, FaultInjector, LossyTransport

from .reference_router import reference_lookup

settings.register_profile(
    "router-diff-fixed", phases=[Phase.explicit], deadline=None, database=None
)
settings.register_profile(
    "router-diff-drawn", max_examples=50, deadline=None, database=None, derandomize=True
)

BITS = 10
SIZE = 1 << BITS
#: The arities the route bench sweeps (chord = 2, record:4/8/32).
ARITIES = (2, 4, 8, 32)


def make_ring(ids, arity, bits=BITS, transport=None, route_cache_size=0):
    config = ChordConfig(
        num_peers=len(ids),
        id_bits=bits,
        successor_list_size=3,
        seed=1,
        route_cache_size=route_cache_size,
        finger_arity=arity,
    )
    return ChordRing(config, node_ids=list(ids), transport=transport)


def probe_keys(ring: ChordRing, node: ChordNode):
    """Keys where an off-by-one in the start index would show: the node
    itself (whole-ring gap), the ring's wrap point, and one position
    either side of every finger and of every finger start."""
    n = node.node_id
    keys = {n, (n + 1) % SIZE, (n - 1) % SIZE, 0, SIZE - 1}
    for finger, step in zip(node.fingers, ring.finger_steps):
        for base in (finger, n + step):
            keys.update(((base - 1) % SIZE, base % SIZE, (base + 1) % SIZE))
    return sorted(keys)


def assert_finger_invariant(ring: ChordRing) -> None:
    space = ring.space
    for node in ring.nodes.values():
        assert len(node.fingers) == len(ring.finger_steps)
        for finger, step in zip(node.fingers, ring.finger_steps):
            assert finger == node.node_id or space.distance(node.node_id, finger) >= step


# -- the schedule ----------------------------------------------------------------


@pytest.mark.parametrize("arity", ARITIES)
@pytest.mark.parametrize("bits", [BITS, 32])
def test_finger_steps_strictly_increasing(bits: int, arity: int) -> None:
    steps = recursive_finger_steps(bits, arity)
    assert all(a < b for a, b in zip(steps, steps[1:]))
    assert 0 < steps[0] and steps[-1] < 1 << bits


def test_default_schedule_is_chords() -> None:
    assert ChordRing(ChordConfig(num_peers=4, id_bits=8)).finger_steps == tuple(
        1 << i for i in range(8)
    )
    assert ChordNode(5, IdSpace(8)).fingers == [5] * 8


# -- every node's probe keys: shipped router == reference ------------------------


def lookup_outcome(lookup, ring: ChordRing, start: int, key: int):
    """Everything one lookup shows: ``(owner, hops, path)``, or the
    exception's kind, node and message."""
    try:
        result = lookup(ring, start, key)
    except DHTError as exc:  # NodeFailedError / MessageDroppedError: same node, same kind
        return (type(exc).__name__, getattr(exc, "node_id", None), str(exc))
    return (result.node_id, result.hops, result.path)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_selected_finger_matches_linear_scan(data) -> None:
    ids = sorted(
        data.draw(st.sets(st.integers(0, SIZE - 1), min_size=6, max_size=40), label="ids")
    )
    arity = data.draw(st.sampled_from(ARITIES), label="arity")
    ring = make_ring(ids, arity)
    # Crash some nodes without repair: the survivors' tables go stale.
    crashed = data.draw(st.sets(st.sampled_from(ids), max_size=len(ids) // 2), label="crashed")
    for victim in crashed:
        ring.fail(victim)
    # Then take more nodes down behind the ring's back: liveness the
    # tables know nothing about, as an arbitrary usability predicate.
    dead = data.draw(st.sets(st.sampled_from(ids), max_size=len(ids)), label="dead set")
    extra = data.draw(st.lists(st.integers(0, SIZE - 1), max_size=10), label="keys")
    for down in (set(), dead):
        for node_id in down:
            ring.nodes[node_id].alive = False
        for node in ring.nodes.values():
            if not node.alive:
                continue
            for key in probe_keys(ring, node) + extra:
                assert lookup_outcome(
                    ChordRing.lookup, ring, node.node_id, key
                ) == lookup_outcome(reference_lookup, ring, node.node_id, key)


# -- the invariant, after every event -------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_finger_invariant_holds_after_every_event(data) -> None:
    ids = sorted(
        data.draw(st.sets(st.integers(0, SIZE - 1), min_size=8, max_size=24), label="ids")
    )
    arity = data.draw(st.sampled_from(ARITIES), label="arity")
    ring = make_ring(ids, arity)
    assert_finger_invariant(ring)
    for step in range(data.draw(st.integers(5, 25), label="events")):
        op = data.draw(st.sampled_from(["join", "leave", "fail", "stabilize"]), label=f"op {step}")
        if op == "join":
            candidate = data.draw(st.integers(0, SIZE - 1), label="join id")
            if ring.is_live(candidate):
                continue
            ring.join(node_id=candidate)
        elif op == "stabilize":
            ring.stabilize()
        else:
            if ring.num_live <= 5:
                continue
            victim = data.draw(st.sampled_from(ring.live_ids), label="victim")
            ring.leave(victim) if op == "leave" else ring.fail(victim)
        assert_finger_invariant(ring)


# -- whole lookups cannot tell the routers apart ------------------------------------


def drive(arity: int, lossy: bool, route_cache_size: int, seed=None, owner: bool = False):
    """A churn schedule with lookups between — and inside — the §7 crash
    windows; returns everything an observer of the ring can see.  *seed*
    draws the schedule (``None``: the fixed one, per arity).  With
    *owner*, each lookup is an owner's (``cached=False``) or a read by a
    coin flip."""
    rng = random.Random(1234 + arity if seed is None else seed)
    bits = 16
    size = 1 << bits
    ids = sorted(rng.sample(range(size), 80))
    transport = None
    if lossy:
        transport = LossyTransport(
            faults=FaultInjector(drop_probability=0.25),
            policy=DeliveryPolicy(max_retries=1),
            seed=9,
        )
    ring = make_ring(ids, arity, bits=bits, transport=transport, route_cache_size=route_cache_size)
    log = []

    def lookups(count: int) -> None:
        for _ in range(count):
            start = rng.choice(ring.live_ids)
            key = rng.choice([rng.randrange(size), start, rng.choice(ids), (start - 1) % size])
            cached = not owner or rng.random() < 0.5
            log.append(lookup_outcome(partial(ChordRing.lookup, cached=cached), ring, start, key))

    lookups(150)
    for _ in range(6):
        for victim in rng.sample(ring.live_ids, 6):
            ring.fail(victim)  # consecutive crashes, no repair
        lookups(120)  # inside the down-peer window
        ring.stabilize()
        for _ in range(4):
            joiner = rng.randrange(size)
            if not ring.is_live(joiner):
                ring.join(node_id=joiner)
            ring.leave(rng.choice(ring.live_ids))
        lookups(80)
    net = None
    if lossy:
        net = (ring.transport.rng.getstate(), len(ring.transport.trace))
    cache = ring.route_cache
    routes = None if cache is None else (cache.stats(), dict(cache._entries))
    return log, ring.stats.summary(), ring.stats.lookup_hop_histogram, net, routes


@pytest.mark.parametrize(
    "route_cache_size, owner", [(0, False), (64, False), (64, True)], ids=["0", "64", "64-owner"]
)
@pytest.mark.parametrize("lossy", [False, True], ids=["perfect", "lossy"])
@pytest.mark.parametrize("arity", ARITIES)
@settings(settings.get_profile(os.environ.get("ROUTER_DIFF_PROFILE", "router-diff-fixed")))
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=None)
def test_whole_lookups_equal_under_reference_scan(
    arity: int, lossy: bool, route_cache_size: int, owner: bool, seed
) -> None:
    shipped = drive(arity, lossy, route_cache_size, seed, owner)
    with pytest.MonkeyPatch.context() as patch:
        # The one lookup everything routes through, replaced by the
        # reference router: every hop below comes from the linear scan.
        patch.setattr(ChordRing, "lookup", reference_lookup)
        reference = drive(arity, lossy, route_cache_size, seed, owner)
    assert shipped == reference
    if seed is not None:
        return
    log = shipped[0]
    failures = [entry for entry in log if isinstance(entry[0], str)]
    # The schedule must actually reach the interesting branches.
    assert any(name == "NodeFailedError" for name, *_ in failures)
    if lossy:
        assert any(name == "MessageDroppedError" for name, *_ in failures)
    assert sum(1 for entry in log if not isinstance(entry[0], str)) > len(log) // 2
    if owner:
        # Both kinds ran: reads filled the cache, owner lookups passed it by.
        stats, __ = shipped[4]
        assert stats["entries"] > 0 and stats["hits"] + stats["misses"] < len(log)


# -- the interval tests written out inside ChordRing.lookup --------------------------


class TestLookupIntervalBoundaries:
    """``lookup`` tests ``key ∈ (current, successor]`` and walks the
    successor list with masked arithmetic instead of
    ``IdSpace.in_interval``; pin the closed right end, the open left end
    and the wrap through zero of each."""

    def _ring(self) -> ChordRing:
        return ChordRing(
            ChordConfig(num_peers=8, id_bits=32, successor_list_size=4, seed=1, route_cache_size=0),
            node_ids=[10, 20, 30, 40, 50, 60, 70, 80],
        )

    def test_successor_interval_is_closed_on_the_right(self) -> None:
        result = self._ring().lookup(10, 20, record=False)
        assert (result.node_id, result.hops, result.path) == (20, 1, (10, 20))

    def test_successor_interval_is_open_on_the_left(self) -> None:
        result = self._ring().lookup(10, 10, record=False)
        assert (result.node_id, result.hops, result.path) == (10, 0, (10,))

    def test_successor_interval_wraps_through_zero(self) -> None:
        ring = self._ring()
        for key in (81, 2**32 - 1, 0, 5, 10):
            result = ring.lookup(80, key, record=False)
            assert (result.node_id, result.hops, result.path) == (10, 1, (80, 10))
        assert ring.lookup(80, 11, record=False).node_id == 20

    def test_successor_list_walk_is_closed_on_the_right(self) -> None:
        ring = self._ring()
        ring.fail(20)
        ring.fail(30)
        # The key *is* the second dead successor: its down-peer window.
        with pytest.raises(NodeFailedError) as info:
            ring.lookup(10, 30, record=False)
        assert info.value.node_id == 30
        # One past it belongs to the first live entry of the list.
        result = ring.lookup(10, 31, record=False)
        assert (result.node_id, result.hops, result.path) == (40, 1, (10, 40))
        assert ring.lookup(10, 40, record=False).path == (10, 40)

    def test_successor_list_walk_wraps_through_zero(self) -> None:
        ring = self._ring()
        ring.fail(80)
        ring.fail(10)
        with pytest.raises(NodeFailedError) as info:
            ring.lookup(70, 10, record=False)
        assert info.value.node_id == 10
        with pytest.raises(NodeFailedError) as info:
            ring.lookup(70, 2**32 - 1, record=False)
        assert info.value.node_id == 10
        assert ring.lookup(70, 11, record=False).path == (70, 20)
