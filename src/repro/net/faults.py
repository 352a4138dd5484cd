"""Fault injection: message drops, node blackouts, slow nodes.

The injector is consulted by :class:`~repro.net.transport.LossyTransport`
once per delivery for the pair's slow-node factor and whether either
endpoint has any blackout window, and on every transmission attempt for
the drop decision and the windows themselves.  The fault classes
compose:

* **per-message drops** — each attempt is lost with probability
  ``drop_probability`` (the classic packet-loss knob; retries make the
  effective loss rate ``p^(1+retries)``);
* **blackout windows** — a node is unreachable (both as source and as
  destination) during ``[start_ms, end_ms)`` intervals of the simulated
  clock, modelling transient partitions and overloaded peers;
* **slow nodes** — a per-node latency multiplier; a sufficiently slow
  node pushes attempts past the delivery timeout, so degradation shows
  up as retries and timeouts rather than as a separate failure kind,
  exactly as it does in deployed DHTs;
* **flaky responders** — a per-node *extra* drop probability layered on
  the global rate; attempts touching a flaky node are lost as if each
  leg (global, source, destination) failed independently.  This is the
  behaviour the BitTorrent-DHT measurement studies report as endemic:
  peers that answer some fraction of requests and silently eat the
  rest.

All randomness comes from the RNG the transport passes in, so a seeded
run replays identically.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple


class FaultInjector:
    """Composable fault plan for a lossy transport."""

    def __init__(self, drop_probability: float = 0.0) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        self.drop_probability = drop_probability
        self._blackouts: Dict[int, List[Tuple[float, float]]] = {}
        self._slow: Dict[int, float] = {}
        self._flaky: Dict[int, float] = {}

    # -- configuration -----------------------------------------------------

    def blackout(self, node_id: int, start_ms: float, end_ms: float) -> None:
        """Make *node_id* unreachable during ``[start_ms, end_ms)``."""
        if end_ms <= start_ms:
            raise ValueError("blackout window must have end_ms > start_ms")
        self._blackouts.setdefault(node_id, []).append((start_ms, end_ms))

    def mark_slow(self, node_id: int, factor: float) -> None:
        """Multiply every attempt latency touching *node_id* by *factor*."""
        if factor < 1.0:
            raise ValueError("slow factor must be >= 1")
        self._slow[node_id] = factor

    def clear_slow(self, node_id: int) -> None:
        """Restore *node_id* to normal speed."""
        self._slow.pop(node_id, None)

    def mark_flaky(self, node_id: int, drop_probability: float) -> None:
        """Give *node_id* an extra per-attempt drop probability on every
        message it sends or receives (a flaky responder)."""
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("flaky drop probability must be in [0, 1]")
        self._flaky[node_id] = drop_probability

    def clear_flaky(self, node_id: int) -> None:
        """Restore *node_id* to the global loss rate only."""
        self._flaky.pop(node_id, None)

    # -- queries (per delivery, then per transmission attempt) -------------

    def has_blackout(self, src: int, dst: int) -> bool:
        """Whether either endpoint has any blackout window at all — the
        transport asks once per delivery and skips :meth:`in_blackout`
        on every attempt when not."""
        return src in self._blackouts or dst in self._blackouts

    def in_blackout(self, node_id: int, now_ms: float) -> bool:
        """Whether *node_id* is blacked out at simulated time *now_ms*."""
        for start, end in self._blackouts.get(node_id, ()):
            if start <= now_ms < end:
                return True
        return False

    def latency_factor(self, src: int, dst: int) -> float:
        """Combined slow-node multiplier for one src→dst attempt."""
        return self._slow.get(src, 1.0) * self._slow.get(dst, 1.0)

    def drop_probability_for(self, src: int, dst: int) -> float:
        """Effective loss rate of one src→dst attempt: the global rate
        and each endpoint's flaky rate composed as independent legs."""
        survive = 1.0 - self.drop_probability
        survive *= 1.0 - self._flaky.get(src, 0.0)
        if dst != src:
            survive *= 1.0 - self._flaky.get(dst, 0.0)
        return 1.0 - survive

    def should_drop_for(self, src: int, dst: int, rng: random.Random) -> bool:
        """Decide the fate of one src→dst transmission attempt.

        Consumes no randomness when the composed rate is zero, so runs
        without loss or flaky peers replay byte-identically against the
        pre-flaky transport.
        """
        probability = self.drop_probability_for(src, dst)
        if probability <= 0.0:
            return False
        return rng.random() < probability

    @property
    def slow_nodes(self) -> Dict[int, float]:
        """Current per-node latency multipliers (copy)."""
        return dict(self._slow)

    @property
    def flaky_nodes(self) -> Dict[int, float]:
        """Current per-node extra drop probabilities (copy)."""
        return dict(self._flaky)
