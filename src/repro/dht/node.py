"""A Chord node: identifier, routing state, and key-value storage.

Routing state follows Stoica et al. (SIGCOMM'01): an m-entry finger
table (``finger[i] = successor(n + 2^i)``), a predecessor pointer, and a
successor list of configurable length (the §7 replication substrate).
Application payloads (inverted-list slots, query caches) are opaque
objects kept in ``store`` keyed by ring position; ``replicas`` holds
copies pushed by predecessors.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .hashing import IdSpace


class ChordNode:
    """One peer in the simulated Chord overlay.

    The node knows only its own routing tables; all inter-node knowledge
    flows through the ring simulator, which is what makes the measured
    hop counts meaningful.  The distances its fingers were built for
    are the ring's (``ChordRing.finger_steps``): entry *i* of
    ``fingers`` answers step *i* of that schedule.
    """

    #: The application's RAM-only state at this peer (the indexing
    #: protocol's query-result cache), set on first use.  A class-level
    #: default, so a ring that never caches allocates nothing per node;
    #: on the node, so it is gone when the node is — a crash followed by
    #: a rejoin, or a leave, takes it along.
    result_cache: Optional[object] = None
    #: The querying side's counterpart, on the same terms: ``term → slot
    #: version`` of the posting lists this peer has been sent, which its
    #: next search request names so that an unchanged list is not sent
    #: again.
    held_versions: Optional[Dict[str, int]] = None
    #: And what this peer last ranked from those lists: ``(keyword tuple,
    #: top_k, N) → (slot versions, ranking, candidate count, terms
    #: registered)``, so that a repeated query over unchanged lists is not
    #: scored again, and is named by digest where it registered before.
    held_rankings: Optional[Dict[Tuple, Tuple]] = None

    def __init__(
        self,
        node_id: int,
        space: IdSpace,
        width: Optional[int] = None,
    ) -> None:
        self.node_id = node_id
        self.space = space
        self.alive = True
        self.predecessor: Optional[int] = None
        self.successor: int = node_id
        #: Successor list, nearest first (excludes self unless singleton).
        self.successor_list: List[int] = []
        #: finger[i] = first live node ≥ (node_id + finger_steps[i]) for
        #: the ring's schedule: *width* entries, Chord's m by default,
        #: ReCord's (b-1)·log_b 2^m when the ring routes with arity b.
        self.fingers: List[int] = [node_id] * (width if width is not None else space.bits)
        #: Application payload: ring position → opaque slot object.
        self.store: Dict[int, object] = {}
        #: Replicated payloads received from predecessors.
        self.replicas: Dict[int, object] = {}

    # -- routing -----------------------------------------------------------

    def owns(self, key: int) -> bool:
        """Chord ownership test: key ∈ (predecessor, self]."""
        pred = self.predecessor
        if pred is None:
            return True
        mask = self.space.mask
        span = (self.node_id - pred) & mask
        # span == 0: the node is its own predecessor and owns the ring.
        return not span or 0 < ((key - pred) & mask) <= span

    def first_live_successor(self, is_usable: Callable[[int], bool]) -> Optional[int]:
        """The nearest usable entry of the successor list (or the plain
        successor pointer), used to route around a failed successor."""
        if is_usable(self.successor):
            return self.successor
        for candidate in self.successor_list:
            if candidate != self.node_id and is_usable(candidate):
                return candidate
        return None

    def routing_snapshot(self) -> Tuple:
        """Immutable copy of the complete routing state — successor,
        predecessor, successor list, finger table.  The equivalence
        currency of the incremental-repair tests: two repair strategies
        are interchangeable iff every node's snapshot matches.
        """
        return (
            self.successor,
            self.predecessor,
            tuple(self.successor_list),
            tuple(self.fingers),
        )

    # -- storage ----------------------------------------------------------

    def put(self, key: int, value: object) -> None:
        """Store an application payload at this node."""
        self.store[key] = value

    def get(self, key: int) -> Optional[object]:
        """Fetch a payload (primary copy only)."""
        return self.store.get(key)

    def get_or_replica(self, key: int) -> Optional[object]:
        """Fetch a payload, falling back to a replica copy."""
        value = self.store.get(key)
        if value is not None:
            return value
        return self.replicas.get(key)

    def adopt(self, key: int) -> Optional[object]:
        """Fetch a payload like :meth:`get_or_replica`, but when the
        value exists only as a replica *and this node is responsible for
        the key*, promote it into the primary store first.

        Serving (and mutating) a replica without adopting it is a
        correctness hazard the simulation harness surfaced: a later key
        transfer on join migrates only ``store``, so a replica-resident
        slot silently drops out of the ring even though its holder was
        answering for it.  Adoption makes the responsible node the
        primary the moment it starts serving the key.
        """
        value = self.store.get(key)
        if value is not None:
            return value
        value = self.replicas.get(key)
        if value is not None and self.owns(key):
            self.store[key] = self.replicas.pop(key)
        return value

    def drop(self, key: int) -> Optional[object]:
        """Remove and return a payload."""
        return self.store.pop(key, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self.alive else "failed"
        return f"ChordNode(id={self.node_id}, {state}, keys={len(self.store)})"
