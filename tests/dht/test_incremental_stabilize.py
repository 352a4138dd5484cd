"""Incremental repair ≡ full rebuild (ISSUE 2 satellite).

Two rings with identical explicit memberships — the ring as shipped,
which repairs incrementally, and the test-side reference of
``tests/dht/full_rebuild.py``, which rebuilds every table on every
event — are driven through the same random
sequence of joins, graceful leaves, crash failures, data placements, and
explicit stabilizations.  After every event the complete routing state
of every node (successor, predecessor, successor list, finger table,
liveness) and every node's key store must be identical: the two repair
strategies are interchangeable by construction, which is what licenses
the fast path.  Crashes are repaired at ``stabilize`` as leaves when
they are the only events pending; the crash drivers below check that
case, crashes mixed with joins and leaves, and the tiny-ring fallback,
at any arity (``test_record_ring.py`` runs them at arity 8).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ChordConfig
from repro.dht.ring import ChordRing

from .full_rebuild import FullRebuildChordRing

BITS = 12
SIZE = 1 << BITS


def build_pair(ids, arity: int = 2):
    config = ChordConfig(
        num_peers=len(ids),
        id_bits=BITS,
        successor_list_size=3,
        seed=1,
        route_cache_size=0,
        finger_arity=arity,
    )
    full = FullRebuildChordRing(config, node_ids=list(ids))
    inc = ChordRing(config, node_ids=list(ids))
    return full, inc


def ring_state(ring: ChordRing):
    return {
        node_id: (node.alive, node.routing_snapshot(), tuple(sorted(node.store)))
        for node_id, node in sorted(ring.nodes.items())
    }


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_incremental_repair_matches_full_rebuild(data) -> None:
    initial = sorted(
        data.draw(
            st.sets(st.integers(0, SIZE - 1), min_size=8, max_size=20),
            label="initial ids",
        )
    )
    full, inc = build_pair(initial)
    assert ring_state(full) == ring_state(inc)

    num_ops = data.draw(st.integers(5, 30), label="op count")
    for step in range(num_ops):
        op = data.draw(
            st.sampled_from(["join", "join", "leave", "leave", "fail", "stabilize", "place"]),
            label=f"op {step}",
        )
        if op == "join":
            candidate = data.draw(st.integers(0, SIZE - 1), label="join id")
            if candidate in inc.nodes and inc.nodes[candidate].alive:
                continue
            full.join(node_id=candidate)
            inc.join(node_id=candidate)
        elif op == "leave":
            if inc.num_live <= 5:
                continue
            victim = data.draw(st.sampled_from(inc.live_ids), label="leaver")
            full.leave(victim)
            inc.leave(victim)
        elif op == "fail":
            if inc.num_live <= 5:
                continue
            victim = data.draw(st.sampled_from(inc.live_ids), label="crasher")
            full.fail(victim)
            inc.fail(victim)
        elif op == "place":
            key = data.draw(st.integers(0, SIZE - 1), label="placed key")
            full.place(key, "payload")
            inc.place(key, "payload")
        else:
            full.stabilize()
            inc.stabilize()
        assert ring_state(full) == ring_state(inc), f"diverged after {op}"
        assert full.live_ids == inc.live_ids


def test_single_join_repairs_incrementally_without_full_rebuild() -> None:
    """White-box: in a converged large-enough ring a join must take the
    incremental path — it writes far fewer routing entries than the
    fingers alone of one full rebuild — and still match the rebuild."""
    ids = [37 * i + 5 for i in range(30)]
    full, inc = build_pair(ids)
    written_before = inc.routing_entries_written
    full.join(node_id=1000)
    inc.join(node_id=1000)
    written = inc.routing_entries_written - written_before
    assert 0 < written < inc.num_live * len(inc.finger_steps) // 4
    assert ring_state(full) == ring_state(inc)


def test_stabilize_is_noop_when_converged() -> None:
    __, inc = build_pair([101 * i + 3 for i in range(20)])
    epoch = inc.epoch
    inc.stabilize()
    inc.stabilize()
    assert inc.epoch == epoch  # no routing change → caches stay valid


def test_tiny_ring_falls_back_to_full_rebuild() -> None:
    """Below the successor-list threshold every membership change
    reshapes every successor list; the fallback keeps it correct."""
    full, inc = build_pair([100, 900, 1800, 2600])
    inc.join(node_id=3000)
    full.join(node_id=3000)
    assert ring_state(full) == ring_state(inc)
    inc.leave(900)
    full.leave(900)
    assert ring_state(full) == ring_state(inc)


def both(full: ChordRing, inc: ChordRing, op: str, *args) -> None:
    """Apply one membership call to both rings; they must still agree."""
    getattr(full, op)(*args)
    getattr(inc, op)(*args)
    assert ring_state(full) == ring_state(inc), f"diverged after {op}{args}"
    assert full.live_ids == inc.live_ids
    assert full.converged == inc.converged


def draw_crashes(data, ids):
    """1–5 distinct victims, in crash order: an adjacent run or spread."""
    k = data.draw(st.integers(1, 5), label="crashes")
    if data.draw(st.booleans(), label="adjacent"):
        first = data.draw(st.integers(0, len(ids) - 1), label="first victim")
        run = [ids[(first + j) % len(ids)] for j in range(k)]
        return data.draw(st.permutations(run), label="crash order")
    return data.draw(
        st.lists(st.sampled_from(ids), min_size=k, max_size=k, unique=True),
        label="victims",
    )


def crashes_then_stabilize(data, arity: int) -> None:
    ids = sorted(
        data.draw(st.sets(st.integers(0, SIZE - 1), min_size=8, max_size=24), label="ids")
    )
    full, inc = build_pair(ids, arity)
    for victim in draw_crashes(data, ids):
        both(full, inc, "fail", victim)
    both(full, inc, "stabilize")
    assert inc.converged


def crash_then_membership(data, arity: int) -> None:
    ids = sorted(
        data.draw(st.sets(st.integers(0, SIZE - 1), min_size=10, max_size=24), label="ids")
    )
    full, inc = build_pair(ids, arity)
    for victim in draw_crashes(data, ids)[:3]:
        both(full, inc, "fail", victim)
    if data.draw(st.booleans(), label="join"):
        joiner = data.draw(
            st.integers(0, SIZE - 1).filter(lambda i: not inc.is_live(i)), label="joiner"
        )
        both(full, inc, "join", joiner)
    else:
        both(full, inc, "leave", data.draw(st.sampled_from(inc.live_ids), label="leaver"))
    # The event converged the tables; a later crash is pending alone.
    both(full, inc, "fail", data.draw(st.sampled_from(inc.live_ids), label="late crash"))
    both(full, inc, "stabilize")


def crash_below_threshold(arity: int) -> None:
    """Six peers, r = 3: one crash leaves five, where every successor
    list spans the ring; the repair is the full rebuild."""
    full, inc = build_pair([100, 900, 1800, 2600, 3300, 3900], arity)
    both(full, inc, "fail", 1800)
    before = (full.routing_entries_written, inc.routing_entries_written)
    both(full, inc, "stabilize")
    assert (
        full.routing_entries_written - before[0] == inc.routing_entries_written - before[1]
    )


def one_crash_repairs_incrementally(arity: int) -> None:
    """White-box: a crash in a converged 30-node ring is repaired at
    ``stabilize`` like a leave — far fewer writes than the fingers
    alone of one full rebuild."""
    full, inc = build_pair([37 * i + 5 for i in range(30)], arity)
    both(full, inc, "fail", 37 * 11 + 5)
    written_before = inc.routing_entries_written
    both(full, inc, "stabilize")
    written = inc.routing_entries_written - written_before
    assert 0 < written < inc.num_live * len(inc.finger_steps) // 4


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_crashes_then_stabilize_match_full_rebuild(data) -> None:
    crashes_then_stabilize(data, arity=2)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_crash_then_join_or_leave_matches_full_rebuild(data) -> None:
    crash_then_membership(data, arity=2)


def test_crash_below_successor_list_threshold_rebuilds() -> None:
    crash_below_threshold(arity=2)


def test_single_crash_repairs_incrementally_without_full_rebuild() -> None:
    one_crash_repairs_incrementally(arity=2)
