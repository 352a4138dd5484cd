"""Stateful property testing of the Chord ring.

A hypothesis rule-based machine drives a ring through arbitrary
interleavings of joins, graceful leaves, crash failures, stabilization,
and data placement, checking after every step that the core invariants
hold:

* lookups from any live node agree with the sorted-membership oracle
  (after stabilization);
* successor/predecessor pointers form a single cycle over live nodes;
* no key placed on the ring is lost by joins or graceful leaves
  (crashes may lose keys — that is what replication is for, so the
  machine only asserts conservation on its non-crash timeline).
"""

from __future__ import annotations

import random

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.config import ChordConfig
from repro.dht import ChordRing
from ..probes import place


class ChordMachine(RuleBasedStateMachine):
    """Joins/leaves/placements with continuous invariant checking."""

    def __init__(self) -> None:
        super().__init__()
        self.ring: ChordRing = None  # type: ignore[assignment]
        self.placed: dict = {}
        self.rng = random.Random(0xC0FFEE)

    @initialize(seed=st.integers(min_value=0, max_value=2**16))
    def setup(self, seed: int) -> None:
        self.ring = ChordRing(
            ChordConfig(num_peers=8, id_bits=16, successor_list_size=3, seed=seed)
        )

    # -- actions ------------------------------------------------------------

    @rule(name=st.integers(min_value=0, max_value=10**6))
    def join(self, name: int) -> None:
        try:
            self.ring.join(name=f"sm-{name}")
        except Exception:
            pass  # duplicate id after probing — acceptable no-op

    @rule()
    @precondition(lambda self: self.ring is not None and self.ring.num_live > 2)
    def leave_random(self) -> None:
        victim = self.ring.random_live_id(self.rng)
        self.ring.leave(victim)

    @rule(key=st.integers(min_value=0, max_value=2**16 - 1))
    def place_key(self, key: int) -> None:
        value = f"v{key}"
        place(self.ring, key, value)
        self.placed[key] = value

    @rule()
    def stabilize(self) -> None:
        self.ring.stabilize()

    # -- invariants -----------------------------------------------------------

    @invariant()
    def lookups_match_oracle(self) -> None:
        if self.ring is None or self.ring.num_live == 0:
            return
        key = self.rng.randrange(self.ring.space.size)
        start = self.ring.random_live_id(self.rng)
        result = self.ring.lookup(start, key, record=False)
        assert result.node_id == self.ring.successor_of(key)

    @invariant()
    def successor_cycle_covers_all_live_nodes(self) -> None:
        if self.ring is None or self.ring.num_live == 0:
            return
        start = self.ring.live_ids[0]
        current = start
        seen = set()
        for __ in range(self.ring.num_live):
            seen.add(current)
            current = self.ring.node(current).successor
        assert current == start
        assert seen == set(self.ring.live_ids)

    @invariant()
    def placed_keys_never_lost(self) -> None:
        if self.ring is None:
            return
        for key, value in self.placed.items():
            holder = self.ring.responsible_node(key)
            assert holder.store.get(key) == value, f"key {key} lost"


ChordMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestChordStateful = ChordMachine.TestCase
