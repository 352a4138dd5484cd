"""Per-node route cache: term-key → responsible node, epoch-validated.

Real DHT deployments do not re-route every request through ``O(log N)``
overlay hops: a querying peer remembers which indexing peer answered for
a key and contacts it directly next time (cf. the route caches in
production Kademlia/Chord implementations).  :class:`RouteCache` models
exactly that for the simulator:

* entries are keyed by ``(requesting node, ring key)`` — each peer
  only benefits from routes *it* resolved, matching a real deployment
  where caches are private per node.  A cache belongs to exactly one
  ring, which constructs it: node ids are deterministic in the seed, so
  two same-seed rings hold the *same* ids with potentially different
  memberships, and a route is only meaningful to the ring that
  resolved it;
* every entry carries the ring's **membership epoch** at the time it
  was stored.  The ring bumps its epoch on join/leave/fail/stabilize,
  so a cached route from an older epoch is *revalidated* before use
  (the owner must still be alive and still own the key under the
  current routing state) and refreshed or evicted accordingly;
* capacity is bounded; when full, the oldest entry is evicted (FIFO —
  cheap and good enough for the simulator's access patterns).  "Oldest"
  is by insertion: a refresh or a re-store keeps an entry's place, an
  invalidated entry stored again goes to the back.  The entries are a
  :class:`~repro.memo.FifoMap`, so a store into a full cache costs about
  what one below capacity does.

The cache itself is a dumb bounded map with hit/miss accounting; the
revalidation *policy* lives in :meth:`repro.dht.ring.ChordRing.lookup`,
which also preserves the paper's cost model: a cache hit still accounts
one lookup message (the querying peer contacts the indexing peer
directly), it just skips the multi-hop routing.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..memo import FifoMap


class RouteCache:
    """A bounded ``(node, key) → (target, epoch)`` map with stats."""

    __slots__ = (
        "capacity",
        "hits",
        "misses",
        "revalidations",
        "evictions",
        "_entries",
    )

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("route cache capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        #: Entries successfully revalidated after an epoch change.
        self.revalidations = 0
        self.evictions = 0
        #: ``(node, key) → (target, epoch)``.
        self._entries = FifoMap(capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, node_id: int, key: int) -> Optional[Tuple[int, int]]:
        """The cached ``(target, epoch)`` for this requester/key.

        Does *not* touch the hit/miss counters — the caller decides,
        after validation, whether the entry counts as a hit.
        """
        return self._entries.get((node_id, key))

    def store(self, node_id: int, key: int, target: int, epoch: int) -> None:
        """Remember a resolved route at the current epoch."""
        if self._entries.put((node_id, key), (target, epoch)):
            self.evictions += 1

    def refresh(self, node_id: int, key: int, target: int, epoch: int) -> None:
        """Re-stamp a revalidated entry with the current epoch."""
        self._entries[(node_id, key)] = (target, epoch)
        self.revalidations += 1

    def invalidate(self, node_id: int, key: int) -> None:
        """Drop one stale entry."""
        self._entries.discard((node_id, key))

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Hits / (hits + misses), 0.0 before any traffic."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Plain-dict statistics for reports and JSON records."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "revalidations": self.revalidations,
            "evictions": self.evictions,
        }
