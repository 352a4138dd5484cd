"""Fault injection: message drops, node blackouts, slow nodes.

The injector is read by :class:`~repro.net.transport.LossyTransport`
once per delivery: :meth:`FaultInjector.pair_plan` answers the pair's
drop rate, slow-node factor and whether either endpoint has a blackout
window.  Only a pair with a window is asked again per transmission
attempt, for the windows themselves.  The fault classes compose:

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

The injector draws nothing: the transport makes every draw with its own
seeded RNG, so a seeded run replays identically.
"""

from __future__ import annotations

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

    # -- queries (per delivery, then per attempt of a blacked-out pair) ----

    def pair_plan(self, src: int, dst: int) -> Tuple[float, float, bool]:
        """``(drop rate, latency factor, whether either endpoint has a
        blackout window)`` of one src→dst delivery: what the transport
        reads of the plan once per delivery, so an edit made between two
        deliveries is seen by the second.

        The drop rate is the global rate and each endpoint's flaky rate
        composed as independent legs (a self-send counts its leg once);
        a leg with no flaky rate multiplies by exactly 1.0, so skipping
        it when no peer is flaky changes no bit of the rate its draws
        compare against.  A zero rate draws nothing, so runs without
        loss or flaky peers replay byte-identically against the
        pre-flaky transport.
        """
        survive = 1.0 - self.drop_probability
        flaky = self._flaky
        if flaky:
            survive *= 1.0 - flaky.get(src, 0.0)
            if dst != src:
                survive *= 1.0 - flaky.get(dst, 0.0)
        slow = self._slow
        factor = slow.get(src, 1.0) * slow.get(dst, 1.0) if slow else 1.0
        blackouts = self._blackouts
        return (
            1.0 - survive,
            factor,
            bool(blackouts) and (src in blackouts or dst in blackouts),
        )

    def in_blackout(self, node_id: int, now_ms: float) -> bool:
        """Whether *node_id* is blacked out at simulated time *now_ms*."""
        for start, end in self._blackouts.get(node_id, ()):
            if start <= now_ms < end:
                return True
        return False

    @property
    def slow_nodes(self) -> Dict[int, float]:
        """Current per-node latency multipliers (copy)."""
        return dict(self._slow)

    @property
    def flaky_nodes(self) -> Dict[int, float]:
        """Current per-node extra drop probabilities (copy)."""
        return dict(self._flaky)
