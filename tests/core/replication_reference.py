"""The full-copy replication round, kept as a reference model.

Until replication learned to ship only what changed, every round
re-copied every primary entry to every live successor.  That round is
trivially right — a successor's replica *is* the primary's state at
round time — so the delta round in :mod:`repro.dht.replication` is
tested against it (``test_replication_delta.py``).  It models state
only: no messages, no cost accounting.
"""

from __future__ import annotations

import copy

from repro.dht.replication import ReplicationManager


class FullCopyReplicationManager(ReplicationManager):
    """:class:`ReplicationManager` with the unconditional round."""

    def replicate_round(self) -> int:
        shipped = 0
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
                payload = copy.deepcopy(node.store)
                self.ring.node(target_id).replicas.update(payload)
                shipped += len(payload)
        self.prune_stale_replicas()
        return shipped
