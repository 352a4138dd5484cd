"""The ring at finger arities above 2 (ReCord-style, DESIGN.md §8):
finger schedules, Chord degeneration at b=2 against the textbook ``2^i``
schedule, cross-arity lookup agreement (property-based),
incremental-repair parity, and the consecutive-dead-successor
regression shape on the wider table."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ChordConfig
from repro.dht import ChordRing, recursive_finger_steps
from repro.exceptions import ConfigurationError, NodeFailedError

from .full_rebuild import FullRebuildChordRing
from .test_incremental_stabilize import (
    crash_below_threshold,
    crash_then_membership,
    crashes_then_stabilize,
    one_crash_repairs_incrementally,
)

BITS = 12
SIZE = 1 << BITS


def make_config(ids, **kwargs):
    merged = dict(
        num_peers=len(ids),
        id_bits=BITS,
        successor_list_size=3,
        seed=1,
        route_cache_size=0,
    )
    merged.update(kwargs)
    return ChordConfig(**merged)


def make_ring(ids, arity: int = 2, cls=ChordRing) -> ChordRing:
    return cls(make_config(ids, finger_arity=arity), node_ids=list(ids))


class BinaryFingerRing(ChordRing):
    """The reference for b=2: Chord's schedule written out as ``2^i``,
    not derived from an arity."""

    def _finger_schedule(self):
        return tuple(1 << i for i in range(self.space.bits))


class TestFingerSchedule:
    def test_arity_two_is_exactly_chord(self) -> None:
        assert recursive_finger_steps(BITS, 2) == tuple(1 << i for i in range(BITS))

    @pytest.mark.parametrize("arity", (2, 3, 4, 8, 16, 32))
    def test_schedule_properties(self, arity: int) -> None:
        steps = recursive_finger_steps(BITS, arity)
        assert steps[0] == 1
        assert list(steps) == sorted(set(steps))  # distinct, ascending
        assert all(0 < step < SIZE for step in steps)
        # (b-1) entries per fully-populated level.
        level, expected = 1, 0
        while level < SIZE:
            expected += sum(1 for j in range(1, arity) if j * level < SIZE)
            level *= arity
        assert len(steps) == expected

    def test_larger_arity_means_more_fingers(self) -> None:
        sizes = [len(recursive_finger_steps(BITS, b)) for b in (2, 4, 8, 32)]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]

    def test_rejects_arity_below_two(self) -> None:
        with pytest.raises(ValueError):
            recursive_finger_steps(BITS, 1)
        with pytest.raises(ConfigurationError, match="finger_arity"):
            make_config([10, 500], finger_arity=1)

    def test_ring_takes_its_schedule_from_its_config(self) -> None:
        assert ChordRing(ChordConfig(finger_arity=2)).finger_steps == tuple(
            1 << i for i in range(32)
        )
        ring = make_ring([10, 500, 2000], arity=8)
        assert type(ring) is ChordRing
        assert ring.finger_steps == recursive_finger_steps(BITS, 8)


def ring_state(ring: ChordRing):
    return {
        node_id: (node.alive, node.routing_snapshot(), tuple(sorted(node.store)))
        for node_id, node in sorted(ring.nodes.items())
    }


class TestChordDegeneration:
    """At b=2 the recursive schedule *is* the binary schedule, so the
    whole routing state must be bit-identical to that of a ring on the
    literal ``2^i`` schedule."""

    def test_routing_state_identical_at_arity_two(self) -> None:
        ids = [37 * i + 5 for i in range(30)]
        chord = make_ring(ids, cls=BinaryFingerRing)
        record = make_ring(ids, arity=2)
        assert chord.finger_steps == record.finger_steps
        assert ring_state(chord) == ring_state(record)

    def test_lookup_paths_identical_at_arity_two(self) -> None:
        import random

        ids = [101 * i + 3 for i in range(24)]
        chord = make_ring(ids, cls=BinaryFingerRing)
        record = make_ring(ids, arity=2)
        rng = random.Random(7)
        for __ in range(100):
            start = rng.choice(ids)
            key = rng.randrange(SIZE)
            a = chord.lookup(start, key, record=False)
            b = record.lookup(start, key, record=False)
            assert (a.node_id, a.hops, a.path) == (b.node_id, b.hops, b.path)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_record_and_chord_lookups_agree_with_oracle(data) -> None:
    """Property (ISSUE 10 satellite): for any membership set and key,
    a lookup at any arity and a lookup on Chord's schedule resolve the
    same owner, and that owner is the sorted-membership oracle
    successor."""
    ids = sorted(
        data.draw(
            st.sets(st.integers(0, SIZE - 1), min_size=4, max_size=24),
            label="membership",
        )
    )
    arity = data.draw(st.sampled_from([2, 3, 4, 8, 16]), label="arity")
    chord = make_ring(ids)
    record = make_ring(ids, arity)
    for __ in range(8):
        key = data.draw(st.integers(0, SIZE - 1), label="key")
        start = data.draw(st.sampled_from(ids), label="start")
        expected = min(
            (node for node in ids if node >= key), default=ids[0]
        )  # oracle: first node clockwise from the key
        assert chord.successor_of(key) == expected
        assert chord.lookup(start, key, record=False).node_id == expected
        assert record.lookup(start, key, record=False).node_id == expected


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_record_incremental_repair_matches_full_rebuild(data) -> None:
    """PR 2's incremental-stabilize equivalence, re-run on the recursive
    schedule: join/leave/fail repairs must land the exact state a full
    rebuild computes."""
    ids = sorted(
        data.draw(
            st.sets(st.integers(0, SIZE - 1), min_size=8, max_size=20),
            label="initial ids",
        )
    )
    arity = data.draw(st.sampled_from([3, 4, 8]), label="arity")
    full = make_ring(ids, arity, cls=FullRebuildChordRing)
    inc = make_ring(ids, arity)
    assert ring_state(full) == ring_state(inc)

    for step in range(data.draw(st.integers(5, 20), label="op count")):
        op = data.draw(
            st.sampled_from(["join", "join", "leave", "fail", "stabilize"]),
            label=f"op {step}",
        )
        if op == "join":
            candidate = data.draw(st.integers(0, SIZE - 1), label="join id")
            if candidate in inc.nodes and inc.nodes[candidate].alive:
                continue
            full.join(node_id=candidate)
            inc.join(node_id=candidate)
        elif op in ("leave", "fail"):
            if inc.num_live <= 5:
                continue
            victim = data.draw(st.sampled_from(inc.live_ids), label="victim")
            getattr(full, op)(victim)
            getattr(inc, op)(victim)
        else:
            full.stabilize()
            inc.stabilize()
        assert ring_state(full) == ring_state(inc), f"diverged after {op}"


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_record_crashes_then_stabilize_match_full_rebuild(data) -> None:
    crashes_then_stabilize(data, arity=8)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_record_crash_then_join_or_leave_matches_full_rebuild(data) -> None:
    crash_then_membership(data, arity=8)


def test_record_crash_below_successor_list_threshold_rebuilds() -> None:
    crash_below_threshold(arity=8)


def test_record_single_crash_repairs_incrementally() -> None:
    one_crash_repairs_incrementally(arity=8)


class TestRecordRingProperties:
    def test_finger_table_smaller_hop_count_tradeoff(self) -> None:
        """The arity tradeoff at ring scale: higher arity buys fewer mean
        hops with more fingers per node."""
        import random

        ids = sorted({(7919 * i) % SIZE for i in range(200)})

        def mean_hops(ring) -> float:
            rng = random.Random(3)
            samples = [
                ring.lookup(
                    rng.choice(ids), rng.randrange(SIZE), record=False
                ).hops
                for __ in range(300)
            ]
            return sum(samples) / len(samples)

        chord = make_ring(ids)
        record = make_ring(ids, arity=8)
        assert len(record.finger_steps) > len(chord.finger_steps)
        assert mean_hops(record) < mean_hops(chord)

    def test_routing_entry_accounting_increases_with_arity(self) -> None:
        ids = [53 * i + 11 for i in range(40)]
        chord = make_ring(ids)
        record = make_ring(ids, arity=16)
        assert record.routing_entries_written > chord.routing_entries_written > 0


class TestRecordConsecutiveDeadSuccessors:
    """The PR 5/PR 8 regression shape, re-pinned on the recursive
    router: two consecutive dead successors must neither orbit the ring
    nor silently skip the Section 7 down-peer window."""

    def _ring(self) -> ChordRing:
        return ChordRing(
            ChordConfig(
                num_peers=8, id_bits=32, successor_list_size=4, seed=1, finger_arity=8
            ),
            node_ids=[10, 20, 30, 40, 50, 60, 70, 80],
        )

    def test_dead_owner_behind_dead_successor_raises(self) -> None:
        ring = self._ring()
        ring.fail(20)
        ring.fail(30)  # two consecutive dead successors of node 10
        with pytest.raises(NodeFailedError):
            ring.lookup(10, 25, record=False)

    def test_live_owner_past_dead_pair_terminates(self) -> None:
        ring = self._ring()
        ring.fail(20)
        ring.fail(30)
        result = ring.lookup(10, 35, record=False)
        assert result.node_id == 40
        assert result.path[0] == 10
        assert result.path[-1] == 40

    def test_after_repair_lookup_resolves_to_next_live_owner(self) -> None:
        ring = self._ring()
        ring.fail(20)
        ring.fail(30)
        for __ in range(4):
            ring.stabilize()
        assert ring.lookup(10, 25, record=False).node_id == 40
