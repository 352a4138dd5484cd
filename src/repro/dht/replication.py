"""Successor-list replication (paper Section 7).

"In SPRITE, we can replicate the indexes of a peer in its successor
peers periodically."  :class:`ReplicationManager` implements exactly
that: each live node periodically pushes a copy of its primary store to
its first *r* successors; after failures and a stabilization round,
replicas whose key range a surviving node has inherited are *promoted*
to primary copies.

The payloads replicated here are whatever opaque slot objects the
application placed in ``node.store`` — for SPRITE, per-term inverted
lists plus query caches.  Because SPRITE indexes only a small number of
terms per document, the replicated volume is small ("SPRITE has the
additional advantage that only a small number of terms are replicated").

A round ships *what changed*.  A payload may expose a ``replica_stamp``
— any value that is equal between two copies only when their content is
equal (SPRITE's term slots build it from process-global mutation
counters).  The primary offers every key's stamp and copies only the
entries whose stamp the successor does not already hold; payloads
without a stamp (plain strings, dicts) always ship.  This module never
looks inside a payload beyond that one attribute.
"""

from __future__ import annotations

import copy
from typing import Dict

from ..exceptions import NodeFailedError
from .messages import MessageKind, message
from .ring import ChordRing


def _holds_current_copy(primary: object, replica: object) -> bool:
    """Whether *replica* is provably a copy of *primary*'s present
    content: both carry the same ``replica_stamp``.  Unstamped payloads
    and missing replicas are never current."""
    stamp = getattr(primary, "replica_stamp", None)
    return stamp is not None and stamp == getattr(replica, "replica_stamp", None)


class ReplicationManager:
    """Periodic successor replication over a :class:`ChordRing`.

    Parameters
    ----------
    ring:
        The overlay to replicate on.
    replication_factor:
        Number of successors that receive copies (bounded by the ring's
        successor-list size).

    Replicas are always deep copies, so divergence between primary and
    replica between replication rounds is modelled faithfully (a stale
    replica really is stale).
    """

    def __init__(
        self,
        ring: ChordRing,
        replication_factor: int | None = None,
    ) -> None:
        self.ring = ring
        limit = ring.config.successor_list_size
        factor = replication_factor if replication_factor is not None else limit
        if factor < 1:
            raise ValueError("replication_factor must be >= 1")
        self.replication_factor = min(factor, limit)
        #: Pushes of the most recent round that never arrived (dropped
        #: by the transport, or the successor died mid-round).
        self.undelivered = 0

    def replicate_round(self) -> int:
        """One periodic replication round: every live node offers its
        primary store to its first *r* live successors and ships the
        entries each one does not hold a current copy of.

        Exactly one REPLICATE message per (primary, live successor)
        pair, sized as one stamp-digest entry per key offered plus a
        full entry per key shipped.  A push the transport fails to
        deliver installs nothing and is tallied in :attr:`undelivered`;
        the round carries on (the next one re-offers the same keys).

        Returns the number of replica entries shipped.
        """
        shipped = 0
        self.undelivered = 0
        for node_id in self.ring.live_ids:
            node = self.ring.node(node_id)
            if not node.store:
                continue
            targets = [
                s
                for s in node.successor_list[: self.replication_factor]
                if s != node_id and self.ring.is_live(s)
            ]
            for target_id in targets:
                replicas = self.ring.node(target_id).replicas
                changed = [
                    key
                    for key, value in node.store.items()
                    if not _holds_current_copy(value, replicas.get(key))
                ]
                try:
                    self.ring.send(
                        message(
                            MessageKind.REPLICATE,
                            node_id,
                            target_id,
                            len(node.store),
                            len(changed),
                        )
                    )
                except NodeFailedError:
                    self.undelivered += 1
                    continue
                for key in changed:
                    replicas[key] = copy.deepcopy(node.store[key])
                shipped += len(changed)
        self.prune_stale_replicas()
        return shipped

    def prune_stale_replicas(self) -> int:
        """Drop replica entries no current primary would push here.

        A node legitimately holds a replica of *key* only while it sits
        in the responsible node's replication window (its first *r* live
        successors) — or while it is itself responsible (the entry is
        then promotable and :meth:`promote_replicas` will claim it).
        Churn moves responsibility around; copies left behind at nodes
        that dropped out of the window are never refreshed again, and
        promoting such an ancient copy after a later failure resurrects
        long-deleted postings (a double-counting bug the simulation
        harness surfaced).  Returns the number of entries dropped.
        """
        dropped = 0
        for node_id in self.ring.live_ids:
            node = self.ring.node(node_id)
            if not node.replicas:
                continue
            for key in list(node.replicas):
                owner_id = self.ring.successor_of(key)
                if owner_id == node_id:
                    continue  # promotable: this node is now responsible
                window = self.ring.node(owner_id).successor_list[
                    : self.replication_factor
                ]
                if node_id not in window:
                    node.replicas.pop(key)
                    dropped += 1
        return dropped

    def promote_replicas(self) -> int:
        """After failures + stabilize: every live node promotes replicas
        for keys it is now responsible for into its primary store.

        Returns the number of promoted entries.
        """
        promoted = 0
        for node_id in self.ring.live_ids:
            node = self.ring.node(node_id)
            if not node.replicas:
                continue
            for key in list(node.replicas):
                if key in node.store:
                    node.replicas.pop(key)
                    continue
                if node.owns(key):
                    node.store[key] = node.replicas.pop(key)
                    promoted += 1
        return promoted

    def recover_from_failures(self) -> int:
        """Convenience: stabilize the ring, then promote replicas."""
        self.ring.stabilize()
        return self.promote_replicas()

    def replica_counts(self) -> Dict[int, int]:
        """node id → number of replica entries held (for tests/benches)."""
        return {
            node_id: len(self.ring.node(node_id).replicas)
            for node_id in self.ring.live_ids
        }
