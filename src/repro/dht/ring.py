"""The Chord ring simulator.

Implements the protocol of Stoica et al. as a discrete simulation: the
ring holds every :class:`~repro.dht.node.ChordNode`, delivers messages
through a pluggable :class:`~repro.net.Transport` (instant and perfect
by default; latency/loss/retry semantics with
:class:`~repro.net.LossyTransport`), and repairs routing state on
membership change (the effect of Chord's ``stabilize`` +
``fix_fingers`` having converged).  Lookups are executed
*iteratively using only per-node finger tables*, so the hop counts the
simulator reports are genuine protocol measurements, not ``log N``
formulas.  ``ChordConfig.finger_arity`` sets the finger schedule: 2 is
Chord's, a larger branching factor the wider, shorter-routed table of a
ReCord-style ring (PAPERS.md) — one class, one code path, because only
:meth:`ChordRing._finger_schedule` knows the spacing.

Membership events supported:

* :meth:`join` — a new peer joins; keys it now owns migrate from its
  successor (Chord's key-transfer on join).
* :meth:`leave` — graceful departure; keys hand over to the successor.
* :meth:`fail` — crash-stop; the node's primary keys are lost unless a
  replication manager has pushed copies to its successors (Section 7).
* :meth:`stabilize` — converge all routing tables to the current live
  membership, as Chord's periodic stabilization eventually does.

Three hot-path optimizations (see DESIGN.md §8) keep large rings fast
without changing any observable routing outcome:

* **Incremental repair**: a single join or graceful leave updates
  only the routing entries the event actually affects — the neighbours' successor/predecessor pointers,
  the ``O(r)`` successor lists around the membership change, and the
  ``O(log N)`` finger arcs whose targets moved — instead of rebuilding
  every table.  Crashes are repaired the same way, but only at
  :meth:`stabilize` (preserving the paper's Section 7 "down peer"
  window): each recorded crash is repaired as a leave.  The full
  rebuild remains for the first build, tiny rings, and crashes mixed
  with joins or leaves; tests assert the two produce byte-identical
  routing state.
* **Route caching** (``ChordConfig.route_cache_size``): each node
  remembers ``key → responsible node`` for the read lookups it
  resolved (an owner's lookups pass ``cached=False``).  The
  ring bumps a membership *epoch* on every join/leave/fail/stabilize;
  a cached route from an older epoch is revalidated (owner still alive
  and still responsible) before use.  A cache hit still accounts one
  lookup message — the querying peer contacts the indexing peer
  directly — so message counts are identical with caching on or off.
* **Finger selection by distance**: :meth:`ChordRing.lookup` is one
  loop over ``nodes`` — interval tests in masked arithmetic, liveness a
  ``nodes.get`` — and each hop bisects the sorted finger schedule for
  the clockwise gap to the key and probes the table from there, so a
  hop costs the same on Chord's 32-entry table and on ReCord's 189-entry
  one.  Every hop is the one the method-calling loop with a whole-table
  scan takes (``tests/dht/reference_router.py``; the tests replay churn
  schedules through both).
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..config import ChordConfig
from ..exceptions import (
    DHTError,
    EmptyRingError,
    MessageDroppedError,
    NodeFailedError,
    NodeNotFoundError,
)
from ..net import DeliveryOutcome, DeliveryReceipt, PerfectTransport, Transport
from .hashing import IdSpace, recursive_finger_steps
from .messages import Message, MessageKind, message
from .node import ChordNode
from .route_cache import RouteCache
from .stats import NetworkStats

#: The members this module reads per hop and per send, bound once: on
#: CPython 3.11 reading an enum member through its class costs ~150 ns
#: (``EnumType.__getattr__``), a module global ~15 ns.
_LOOKUP = MessageKind.LOOKUP
_DELIVERED = DeliveryOutcome.DELIVERED
_DEST_DOWN = DeliveryOutcome.DEST_DOWN


class LookupResult(NamedTuple):
    """Outcome of one DHT lookup: responsible node, hop count, path (a
    named tuple: every lookup builds one, with ``tuple.__new__``)."""

    node_id: int
    hops: int
    path: Tuple[int, ...] = ()


def ring_label(finger_arity: int) -> str:
    """What the CLI and the route bench call a ring of this arity:
    ``chord`` at 2, ``record:b`` above."""
    return "chord" if finger_arity == 2 else f"record:{finger_arity}"


def _delivery_failure(dst_id: int, receipt: DeliveryReceipt) -> NodeFailedError:
    """The error an undelivered message's receipt names: the destination
    crashed, or a lossy transport exhausted its retries."""
    if receipt.outcome is _DEST_DOWN:
        return NodeFailedError(dst_id)
    return MessageDroppedError(dst_id, receipt.attempts)


class ChordRing:
    """A complete simulated Chord network.

    Parameters
    ----------
    config:
        Ring parameters (peer count, id bits, successor-list size, the
        finger arity, and the performance knob ``route_cache_size``).
    node_ids:
        Optional explicit node identifiers (for white-box tests);
        normally ids are derived by hashing peer names, as the Chord
        paper hashes IP addresses.
    transport:
        The :class:`~repro.net.Transport` every message and lookup hop
        flows through.  Defaults to the instant, lossless
        :class:`~repro.net.PerfectTransport` (identical behaviour to the
        pre-transport simulator).  The transport owns its own seeded
        RNG, separate from the ring's membership RNG, so fault injection
        and id generation stay independently reproducible.
    """

    def __init__(
        self,
        config: ChordConfig | None = None,
        node_ids: Optional[List[int]] = None,
        transport: Transport | None = None,
    ) -> None:
        self.config = config if config is not None else ChordConfig()
        self.space = IdSpace(self.config.id_bits)
        self.stats = NetworkStats()
        self.transport: Transport = (
            transport if transport is not None else PerfectTransport()
        )
        self.nodes: Dict[int, ChordNode] = {}
        self._live_sorted: List[int] = []
        self._live_view: Optional[List[int]] = None
        self._rng = random.Random(self.config.seed)
        #: Membership epoch: bumped on every routing-state change so
        #: route caches can cheaply detect staleness.
        self.epoch = 0
        #: Whether every routing table matches the current membership
        #: (False inside the post-crash window of Section 7).
        self._converged = False
        #: Crashed ids awaiting repair at :meth:`stabilize`, in crash
        #: order — kept only while crashes are the sole events pending
        #: since the tables last converged.
        self._crashed: List[int] = []
        #: Clockwise finger distances every node's table covers, one
        #: tuple shared by all of them.
        self.finger_steps: Tuple[int, ...] = self._finger_schedule()
        #: Total routing-table entry writes (pointers, successor-list
        #: slots, fingers) performed by stabilization and incremental
        #: repair — the maintenance-traffic proxy the route bench
        #: reports: every written entry is state a real deployment
        #: would have to refresh over the wire.
        self.routing_entries_written = 0
        #: This ring's own route cache, never shared with another ring
        #: (``None`` when ``config.route_cache_size`` is 0).
        self.route_cache: Optional[RouteCache] = (
            RouteCache(self.config.route_cache_size)
            if self.config.route_cache_size > 0
            else None
        )

        ids = node_ids if node_ids is not None else self._generate_ids(self.config.num_peers)
        for node_id in ids:
            self._insert_node(node_id)
        self.stabilize()

    # -- construction -----------------------------------------------------

    def _finger_schedule(self) -> Tuple[int, ...]:
        """The clockwise distances each node keeps a finger for, sorted
        ascending: ``config.finger_arity - 1`` per base-arity digit of
        the id space — at arity 2, Chord's ``2^i`` doubling.  Nothing
        else in the ring depends on the spacing: repair arcs are taken
        per step, and finger selection bisects this tuple."""
        return recursive_finger_steps(self.space.bits, self.config.finger_arity)

    def _generate_ids(self, count: int) -> List[int]:
        """Hash synthetic peer names onto the ring, skipping collisions."""
        ids: List[int] = []
        seen = set()
        salt = self._rng.randint(0, 1 << 30)
        i = 0
        while len(ids) < count:
            node_id = self.space.hash_key(f"peer-{salt}-{i}")
            i += 1
            if node_id in seen:
                continue
            seen.add(node_id)
            ids.append(node_id)
        return ids

    def _insert_node(self, node_id: int) -> ChordNode:
        if node_id in self.nodes:
            raise DHTError(f"duplicate node id: {node_id}")
        node = ChordNode(node_id, self.space, len(self.finger_steps))
        self.nodes[node_id] = node
        insort(self._live_sorted, node_id)
        self._live_view = None
        self._converged = False
        self._crashed.clear()
        return node

    def _bump_epoch(self) -> None:
        """Signal a routing-state change to every route cache."""
        self.epoch += 1

    # -- membership views ----------------------------------------------------

    @property
    def live_ids(self) -> List[int]:
        """Sorted ids of all live nodes.

        The list is a cached view, rebuilt only when membership changes
        — hot loops (churn drivers, replication sweeps, experiments) may
        iterate it every step without paying a per-access copy.  Treat
        it as **read-only**; mutate membership through join/leave/fail.
        """
        view = self._live_view
        if view is None:
            view = self._live_view = list(self._live_sorted)
        return view

    @property
    def num_live(self) -> int:
        return len(self._live_sorted)

    @property
    def converged(self) -> bool:
        """Whether every routing table matches the current membership —
        False inside the §7 post-crash window, True after repair.  The
        invariant checker (:mod:`repro.sim`) gates its topology checks
        on this."""
        return self._converged

    def node(self, node_id: int) -> ChordNode:
        """Fetch a node object by id."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def is_live(self, node_id: int) -> bool:
        """Whether *node_id* is present and has not failed."""
        node = self.nodes.get(node_id)
        return node is not None and node.alive

    def random_live_id(self, rng: random.Random | None = None) -> int:
        """A uniformly random live node (for picking querying peers)."""
        if not self._live_sorted:
            raise EmptyRingError("no live nodes")
        return (rng or self._rng).choice(self._live_sorted)

    # -- global successor oracle (used to *build* routing state only) -----

    def successor_of(self, key: int) -> int:
        """The live node responsible for *key* (global knowledge).

        This oracle is used only to construct routing tables (the state
        Chord's stabilization protocol converges to) and as the ground
        truth in tests; lookups themselves never call it.
        """
        if not self._live_sorted:
            raise EmptyRingError("no live nodes")
        idx = bisect_left(self._live_sorted, key)
        if idx == len(self._live_sorted):
            idx = 0
        return self._live_sorted[idx]

    def predecessor_of(self, node_id: int) -> int:
        """The live node immediately preceding *node_id* on the ring."""
        if not self._live_sorted:
            raise EmptyRingError("no live nodes")
        idx = bisect_left(self._live_sorted, node_id)
        return self._live_sorted[idx - 1] if idx > 0 else self._live_sorted[-1]

    def _ids_in_range(self, a: int, b: int) -> List[int]:
        """Live node ids in the circular interval ``(a, b]``."""
        ids = self._live_sorted
        if not ids:
            return []
        if a == b:
            return list(ids)
        lo = bisect_right(ids, a)
        hi = bisect_right(ids, b)
        if a < b:
            return ids[lo:hi]
        return ids[lo:] + ids[:hi]

    # -- routing-state convergence ------------------------------------------

    def stabilize(self) -> None:
        """Converge every live node's routing state to the current
        membership (the fixed point of Chord's stabilize/fix_fingers).

        When no membership event is outstanding (the tables already
        converged), this is a no-op — periodic stabilization in a
        quiescent ring costs nothing, which is what makes steady churn
        schedules cheap.  When only crashes are outstanding, each is
        repaired as a graceful leave, in crash order: the crashed
        peer's arc goes to its live successor, the same fixed point the
        rebuild below reaches.
        """
        if self._converged or not self._live_sorted:
            return
        crashed, self._crashed = self._crashed, []
        if crashed and self._can_repair_incrementally(True):
            for node_id in crashed:
                self._repair_leave(node_id)
            return
        r = self.config.successor_list_size
        n = len(self._live_sorted)
        size = self.space.size
        steps = self.finger_steps
        written = 0
        for idx, node_id in enumerate(self._live_sorted):
            node = self.nodes[node_id]
            node.successor = self._live_sorted[(idx + 1) % n]
            node.predecessor = self._live_sorted[(idx - 1) % n]
            node.successor_list = [
                self._live_sorted[(idx + 1 + j) % n] for j in range(min(r, n - 1))
            ] or [node_id]
            node.fingers = [
                self.successor_of((node_id + step) % size) for step in steps
            ]
            written += 2 + len(node.successor_list) + len(steps)
        self.routing_entries_written += written
        self._converged = True
        self._bump_epoch()

    def _refresh_neighborhood(self, idx: int) -> None:
        """Recompute successor pointer + successor list for the node at
        position *idx* of the live ring (incremental-repair helper)."""
        ids = self._live_sorted
        n = len(ids)
        r = self.config.successor_list_size
        node = self.nodes[ids[idx]]
        node.successor = ids[(idx + 1) % n]
        node.successor_list = [
            ids[(idx + 1 + t) % n] for t in range(min(r, n - 1))
        ] or [node.node_id]
        self.routing_entries_written += 1 + len(node.successor_list)

    def _repair_join(self, node_id: int) -> None:
        """Incremental routing repair after a single join.

        Only the entries the join can affect are touched: the new
        node's own tables, its successor's predecessor pointer, the
        successor lists of its ``r`` predecessors, and — per finger
        step ``s`` of the ring's schedule — the arc of nodes whose
        finger start ``n + s`` landed in the interval the new node took
        over.  Expected cost ``O(F · log N + r)`` for an ``F``-entry
        finger schedule versus the full rebuild's ``O(N · F)``; the
        same arc argument covers Chord's ``2^i`` steps and ReCord's
        ``j·b^ℓ`` steps alike.
        """
        ids = self._live_sorted
        n = len(ids)
        space = self.space
        idx = bisect_left(ids, node_id)
        pred_id = ids[(idx - 1) % n]
        succ_id = ids[(idx + 1) % n]

        node = self.nodes[node_id]
        node.predecessor = pred_id
        self.nodes[succ_id].predecessor = node_id
        # The new node and its r predecessors see a shifted successor
        # window; recompute their successor pointers + lists.
        r = self.config.successor_list_size
        for k in range(min(r, n - 1) + 1):
            self._refresh_neighborhood((idx - k) % n)
        # The new node's fingers come from the (already updated) oracle.
        size = space.size
        node.fingers = [
            self.successor_of((node_id + step) % size) for step in self.finger_steps
        ]
        self.routing_entries_written += 2 + len(node.fingers)
        # Fingers of other nodes: every start in (pred, new] previously
        # resolved to the old owner (new's successor) and now resolves
        # to the new node.  The nodes carrying such a start for finger
        # step s form the arc (pred - s, new - s].
        for i, step in enumerate(self.finger_steps):
            for nid in self._ids_in_range(
                (pred_id - step) % size, (node_id - step) % size
            ):
                self.nodes[nid].fingers[i] = node_id
                self.routing_entries_written += 1
        self._converged = True
        self._bump_epoch()

    def _repair_leave(self, departed: int) -> None:
        """Incremental routing repair after a single graceful leave or
        crash (called after *departed* is removed from the membership;
        earlier departures it follows must already be removed too)."""
        ids = self._live_sorted
        n = len(ids)
        space = self.space
        idx = bisect_left(ids, departed)
        succ_id = ids[idx % n]
        pred_id = ids[(idx - 1) % n]

        self.nodes[succ_id].predecessor = pred_id
        # The departed node's r predecessors lose it from their
        # successor windows; recompute pointers + lists.
        r = self.config.successor_list_size
        for k in range(min(r, n - 1) + 1):
            self._refresh_neighborhood((idx - 1 - k) % n)
        # Fingers that pointed at the departed node (starts in
        # (pred, departed]) now resolve to its successor.
        size = space.size
        self.routing_entries_written += 1
        for i, step in enumerate(self.finger_steps):
            for nid in self._ids_in_range(
                (pred_id - step) % size, (departed - step) % size
            ):
                self.nodes[nid].fingers[i] = succ_id
                self.routing_entries_written += 1
        self._converged = True
        self._bump_epoch()

    def _can_repair_incrementally(self, was_converged: bool) -> bool:
        """Whether a membership event may use incremental repair: the
        previous tables were converged (at :meth:`stabilize`: only
        crashes are outstanding) and the ring is large enough that
        successor-list lengths are stable (tiny rings full-rebuild — it
        is both simpler and just as fast there)."""
        return (
            was_converged
            and len(self._live_sorted) > self.config.successor_list_size + 2
        )

    # -- lookups (finger-table routing, authentic hop counts) ----------------

    def _deliver_hop(self, src_id: int, dst_id: int, dst_alive: bool) -> None:
        """Route one lookup hop through the transport; *dst_alive* is
        whether *dst_id* is up.

        Only called when the transport is *active* (lossy, or tracing):
        the default perfect transport could neither delay, drop, nor
        observe the hop, so the hot loop skips the Message construction.
        """
        receipt = self.transport.deliver(message(_LOOKUP, src_id, dst_id), dst_alive)
        if receipt.outcome is not _DELIVERED:
            raise _delivery_failure(dst_id, receipt)

    def lookup(
        self, start_id: int, key: int, record: bool = True, cached: bool = True
    ) -> LookupResult:
        """Iteratively resolve the node responsible for *key*, starting
        from *start_id*, using only finger tables and successor lists.

        With a route cache configured, a previously resolved route is
        reused after revalidation against the current membership epoch;
        the hit is accounted as one direct message (hop count 1), since
        the requesting peer already knows the responsible peer's
        address.  Cache misses route normally and populate the cache.
        With *cached* false the cache is neither read nor written: an
        owner's lookups route this way, because the owner keeps the
        peers it reaches itself (``OwnerPeer.peers``) and would never
        read such a route again.  Either way the lookup counts one
        LOOKUP message.

        A routed hop is one pass of the loop below.  Its far-to-near
        finger scan starts just below the first ``finger_steps`` entry
        ≥ the gap to the key: every table the ring writes keeps finger
        i at the node itself or at distance ≥ ``finger_steps[i]``, so
        no entry above can precede the key.

        Raises :class:`NodeFailedError` if routing terminates at a node
        that has crashed but whose failure has not yet been repaired by
        :meth:`stabilize` — the window the paper's Section 7 discusses.
        With a lossy transport, a routing hop whose delivery exhausts its
        retries raises :class:`MessageDroppedError` instead (a subclass,
        so callers degrade the same way).
        """
        if not self._live_sorted:
            raise EmptyRingError("no live nodes")
        current = self.node(start_id)
        if not current.alive:
            raise NodeFailedError(start_id)
        nodes = self.nodes

        cache = self.route_cache if cached else None
        if cache is not None:
            entry = cache.get(start_id, key)
            if entry is not None:
                target, entry_epoch = entry
                if entry_epoch != self.epoch:
                    # Membership changed since this route was resolved:
                    # the cached owner must still be alive and still
                    # responsible, else the entry is stale.
                    tnode = nodes.get(target)
                    if tnode is not None and tnode.alive and tnode.owns(key):
                        cache.refresh(start_id, key, target, self.epoch)
                    else:
                        cache.invalidate(start_id, key)
                        entry = None
                if entry is not None:
                    cache.hits += 1
                    if self.transport.active:
                        self._deliver_hop(start_id, target, self.is_live(target))
                    if record:
                        self.stats.record_lookup(1)
                    return tuple.__new__(LookupResult, (target, 1, (start_id, target)))
            cache.misses += 1

        steps = self.finger_steps
        # x ∈ (a, b] iff 0 < (x - a) & mask <= (b - a) & mask, with
        # a == b (span 0) covering the whole ring: IdSpace.in_interval.
        mask = self.space.mask
        max_steps = 2 * self.space.bits + len(self._live_sorted)
        hop_transport = self.transport.active
        node_id = start_id
        hops = 0
        path = [node_id]

        while True:
            pred = current.predecessor
            if pred is None:
                break
            span = (node_id - pred) & mask
            if not span or 0 < ((key - pred) & mask) <= span:
                break
            gap = (key - node_id) & mask  # > 0: a node owns its own id
            # The routing-state successor (may be stale after failures):
            # if it is this key's owner but has crashed and no repair has
            # run yet, the key is unreachable — the paper's "down" peer
            # window (Section 7).  Intermediate routing, by contrast, may
            # freely skip dead fingers via the successor list.
            nxt = current.successor
            span = (nxt - node_id) & mask
            last = not span or gap <= span
            if not last:
                # The farthest live finger strictly inside (node, key).
                fingers = current.fingers
                for i in range(bisect_left(steps, gap) - 1, -1, -1):
                    nxt = fingers[i]
                    if 0 < ((nxt - node_id) & mask) < gap:
                        hop = nodes.get(nxt)
                        if hop is not None and hop.alive:
                            break
                else:
                    # No finger helps, and the successor test cannot see
                    # past *consecutive* failed successors (routing would
                    # orbit the ring).  The first successor-list entry
                    # at-or-past the key is its routing-state owner: dead
                    # → the Section 7 window, live → the lookup ends
                    # there.  Else route around the dead successor.
                    prev = node_id
                    for nxt in current.successor_list:
                        span = (nxt - prev) & mask
                        if not span or 0 < ((key - prev) & mask) <= span:
                            last = True
                            break
                        prev = nxt
                    else:
                        nxt = current.first_live_successor(self.is_live)
                        if nxt is None or nxt == node_id:
                            raise NodeFailedError(current.successor)
            if last:
                hop = nodes.get(nxt)
                if hop is None or not hop.alive:
                    raise NodeFailedError(nxt)
            if hop_transport:
                # Every branch above leaves nxt live: a finger or the
                # routing-state owner is checked, a successor-list
                # detour is the first live successor.
                self._deliver_hop(node_id, nxt, True)
            hops += 1
            path.append(nxt)
            node_id = nxt
            if last:
                break
            if hops > max_steps:
                raise DHTError(f"lookup did not converge for key {key}")
            current = nodes[nxt]

        if cache is not None and node_id != start_id:
            cache.store(start_id, key, node_id, self.epoch)
        if record:
            self.stats.record_lookup(hops)
        return tuple.__new__(LookupResult, (node_id, hops, tuple(path)))

    def lookup_term(self, start_id: int, term: str, record: bool = True) -> LookupResult:
        """Lookup the indexing peer responsible for a term (MD5-hashed)."""
        return self.lookup(start_id, self.space.hash_key(term), record=record)

    def send(self, message: Message) -> None:
        """Deliver an application message through the transport and
        account for it.

        Raises :class:`NodeFailedError` when the destination crashed and
        :class:`MessageDroppedError` when a lossy transport exhausts its
        retries.  Byte/hop accounting (:class:`NetworkStats`) records the
        message once on success, exactly as before; wire-level attempt
        and timing detail lives in the transport's trace log.
        """
        dst = self.nodes.get(message.dst)
        if dst is None:
            raise NodeNotFoundError(message.dst)
        receipt = self.transport.deliver(message, dst.alive)
        if receipt.outcome is not _DELIVERED:
            raise _delivery_failure(message.dst, receipt)
        self.stats.record(message)

    # -- membership changes -------------------------------------------------

    def join(self, node_id: Optional[int] = None, name: str | None = None) -> int:
        """A new peer joins; keys it now owns migrate from its successor.

        Returns the new node's id.  Routing state is re-converged
        immediately — incrementally when only this join is outstanding,
        via the full rebuild otherwise (call this between, not during,
        lookups).  The membership-epoch bump invalidates every cached
        route into the interval the new node takes over, including ids
        chosen by collision probing.
        """
        if node_id is None:
            base = name if name is not None else f"joiner-{self._rng.randint(0, 1 << 30)}"
            node_id = self.space.hash_key(base)
            while node_id in self.nodes:
                node_id = (node_id + 1) % self.space.size
        if node_id in self.nodes and self.nodes[node_id].alive:
            raise DHTError(f"node id already live: {node_id}")
        self.nodes.pop(node_id, None)
        was_converged = self._converged
        new_node = self._insert_node(node_id)

        # Key transfer: entries in (predecessor(new), new] move from the
        # (old) successor to the new node.
        if len(self._live_sorted) > 1:
            successor = self.nodes[self.successor_of((node_id + 1) % self.space.size)]
            pred = self.predecessor_of(node_id)
            moving = [
                key
                for key in successor.store
                if self.space.in_interval(key, pred, node_id)
            ]
            for key in moving:
                new_node.store[key] = successor.store.pop(key)
        if self._can_repair_incrementally(was_converged):
            self._repair_join(node_id)
        else:
            self.stabilize()
        return node_id

    def leave(self, node_id: int) -> None:
        """Graceful departure: hand all keys to the successor first."""
        node = self.node(node_id)
        if not node.alive:
            raise NodeFailedError(node_id)
        if len(self._live_sorted) <= 1:
            raise EmptyRingError("cannot remove the last live node")
        was_converged = self._converged
        idx = bisect_left(self._live_sorted, node_id)
        successor = self.nodes[self._live_sorted[(idx + 1) % len(self._live_sorted)]]
        successor.store.update(node.store)
        node.store.clear()
        node.alive = False
        self._live_sorted.pop(idx)
        self._live_view = None
        self._converged = False
        self._crashed.clear()
        del self.nodes[node_id]
        if self._can_repair_incrementally(was_converged):
            self._repair_leave(node_id)
        else:
            self.stabilize()

    def fail(self, node_id: int) -> None:
        """Crash-stop failure: no key handover, no immediate repair.

        The node stays in other nodes' routing tables until
        :meth:`stabilize` runs — lookups during that window may raise
        :class:`NodeFailedError`, modelling the paper's "down" peers.
        The membership epoch still advances immediately, so route caches
        revalidate (and drop) entries pointing at the crashed peer.  The
        crash is recorded for incremental repair when the tables were
        converged or only crashes are pending.
        """
        node = self.node(node_id)
        if not node.alive:
            return
        node.alive = False
        idx = bisect_left(self._live_sorted, node_id)
        if idx < len(self._live_sorted) and self._live_sorted[idx] == node_id:
            self._live_sorted.pop(idx)
        self._live_view = None
        if self._converged or self._crashed:
            self._crashed.append(node_id)
        self._converged = False
        self._bump_epoch()

    # -- key placement helpers (application API) -----------------------------

    def responsible_node(self, key: int) -> ChordNode:
        """The live node currently responsible for *key* (post-repair
        ground truth; applications use :meth:`lookup` for routed access)."""
        return self.nodes[self.successor_of(key)]
