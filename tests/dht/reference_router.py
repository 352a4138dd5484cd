"""Test-side reference for routing: the method-calling lookup loop.

:meth:`ChordRing.lookup` in ``src`` walks the finger table inline: the
ownership interval, the bisected finger scan and the liveness probe are
one loop over ``ring.nodes``.  The function here is the loop it
replaced and must keep agreeing with, hop for hop: ownership through
:meth:`ChordNode.owns`, liveness through :meth:`ChordRing.is_live`, and
the next hop from :func:`linear_closest_preceding_finger` — the
far-to-near scan over the whole table, which knows nothing about the
finger schedule.  It has the signature of the method, so a test can
patch it onto :class:`ChordRing` and replay a schedule through it.
"""

from __future__ import annotations

from typing import Optional

from repro.dht.ring import ChordRing, LookupResult
from repro.exceptions import DHTError, EmptyRingError, NodeFailedError

from .linear_finger_scan import linear_closest_preceding_finger


def reference_lookup(
    ring: ChordRing, start_id: int, key: int, record: bool = True, cached: bool = True
) -> LookupResult:
    """Resolve *key* from *start_id* exactly as the shipped lookup must:
    same result, hops, path, exceptions, route-cache traffic, transport
    deliveries and statistics.  With *cached* false (an owner's lookup)
    the route cache is neither read nor written."""
    if not ring._live_sorted:
        raise EmptyRingError("no live nodes")
    start = ring.node(start_id)
    if not start.alive:
        raise NodeFailedError(start_id)

    cache = ring.route_cache if cached else None
    if cache is not None:
        entry = cache.get(start_id, key)
        if entry is not None:
            target, entry_epoch = entry
            if entry_epoch != ring.epoch:
                tnode = ring.nodes.get(target)
                if tnode is not None and tnode.alive and tnode.owns(key):
                    cache.refresh(start_id, key, target, ring.epoch)
                else:
                    cache.invalidate(start_id, key)
                    entry = None
            if entry is not None:
                cache.hits += 1
                if ring.transport.active:
                    ring._deliver_hop(start_id, target, ring.is_live(target))
                if record:
                    ring.stats.record_lookup(1)
                return LookupResult(target, 1, (start_id, target))
        cache.misses += 1

    space = ring.space
    current = start
    hops = 0
    path = [current.node_id]
    max_steps = 2 * space.bits + len(ring._live_sorted)
    hop_transport = ring.transport.active

    while True:
        if current.owns(key):
            result = LookupResult(current.node_id, hops, tuple(path))
            break
        raw_successor = current.successor
        if space.in_interval(key, current.node_id, raw_successor):
            if not ring.is_live(raw_successor):
                raise NodeFailedError(raw_successor)
            if hop_transport:
                ring._deliver_hop(current.node_id, raw_successor, ring.is_live(raw_successor))
            hops += 1
            path.append(raw_successor)
            result = LookupResult(raw_successor, hops, tuple(path))
            break
        nxt = linear_closest_preceding_finger(current, key, ring.is_live)
        if nxt == current.node_id:
            prev = current.node_id
            owner: Optional[int] = None
            for succ in current.successor_list:
                if space.in_interval(key, prev, succ):
                    owner = succ
                    break
                prev = succ
            if owner is not None:
                if not ring.is_live(owner):
                    raise NodeFailedError(owner)
                if hop_transport:
                    ring._deliver_hop(current.node_id, owner, ring.is_live(owner))
                hops += 1
                path.append(owner)
                result = LookupResult(owner, hops, tuple(path))
                break
            live_succ = current.first_live_successor(ring.is_live)
            if live_succ is None or live_succ == current.node_id:
                raise NodeFailedError(raw_successor)
            nxt = live_succ
        if hop_transport:
            ring._deliver_hop(current.node_id, nxt, ring.is_live(nxt))
        hops += 1
        if hops > max_steps:
            raise DHTError(f"lookup did not converge for key {key}")
        path.append(nxt)
        current = ring.node(nxt)

    if cache is not None and result.node_id != start_id:
        cache.store(start_id, key, result.node_id, ring.epoch)
    if record:
        ring.stats.record_lookup(result.hops)
    return result
