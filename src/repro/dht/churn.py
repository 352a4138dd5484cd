"""Churn modelling: joins, graceful leaves, and crash failures.

The paper's Section 7 discusses peers that "join and leave the network
when some queries are being processed".  :class:`ChurnModel` drives the
ring through reproducible membership-change schedules so the churn
benches can measure retrieval degradation with and without the
replication scheme.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from ..exceptions import EmptyRingError
from .ring import ChordRing


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change applied to the ring."""

    kind: str          # "join" | "leave" | "fail"
    node_id: int


class ChurnModel:
    """Reproducible churn driver for a :class:`ChordRing`.

    All stochastic choices come from the model's own ``random.Random``
    so churn schedules replay identically for a given seed.
    """

    def __init__(self, ring: ChordRing, seed: int = 64317) -> None:
        self.ring = ring
        self.rng = random.Random(seed)
        self.history: List[ChurnEvent] = []

    def fail_random(self) -> int:
        """Crash one uniformly random live node; returns its id."""
        victim = self.ring.random_live_id(self.rng)
        self.ring.fail(victim)
        self.history.append(ChurnEvent("fail", victim))
        return victim

    def leave_random(self) -> int:
        """Gracefully remove one random live node; returns its id."""
        if self.ring.num_live <= 1:
            raise EmptyRingError("cannot remove the last live node")
        victim = self.ring.random_live_id(self.rng)
        self.ring.leave(victim)
        self.history.append(ChurnEvent("leave", victim))
        return victim

    def join_one(self) -> int:
        """Add one new peer with a random identity; returns its id."""
        node_id = self.ring.join(name=f"churn-joiner-{self.rng.randint(0, 1 << 30)}")
        self.history.append(ChurnEvent("join", node_id))
        return node_id
