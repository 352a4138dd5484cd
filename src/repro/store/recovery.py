"""Snapshot-assisted indexing-peer recovery (incremental catch-up).

When an indexing peer crashes, Section 7's baseline repair is a *full
resync*: the rejoined peer pulls every slot it is responsible for from
its successor (which holds the promoted replicas).  With a disk-backed
store the peer's last checkpoint survives the crash, so most of that
traffic is redundant — the peer only needs to learn *what changed* since
the snapshot.

:class:`RecoveryManager.recover_peer` implements both modes over the
simulated ring; which one runs is decided by what is on disk:

1. load the peer's newest valid snapshot (disk survived, RAM did not);
2. rejoin the ring (the DHT's key transfer hands back the authoritative
   slots the successor accumulated — promoted replicas and writes that
   landed during the outage), and take over the successor's replicas of
   the rejoining range it has not promoted yet (a rejoin before the
   ``recover`` round that promotes them would otherwise find the range
   only in ``replicas`` and strand every slot the checkpoint lacks);
3. **snapshot mode** (a valid checkpoint was found) — exchange one
   ``SYNC_DIGEST`` round with the successor (per-slot checksums of the
   checkpoint), then ship only a ``SYNC_DELTA`` per changed slot (the
   differing/removed postings) and a ``SYNC_FULL`` per slot the
   checkpoint never saw; slots whose checksum matches cost nothing
   beyond the digest entry;
4. **full mode** (no checkpoint on disk, the baseline) — one
   ``SYNC_FULL`` per transferred slot carrying all its postings;
5. snapshot slots the key-transfer did *not* cover but the oracle still
   places at this peer are rebuilt locally from disk — zero wire cost
   (a later maintenance round retires any posting whose owner
   unpublished during the outage; restoring an over-approximation is
   safe exactly because reconciliation audits it).

Every run appends a :class:`RecoveryReport` to :attr:`RecoveryManager.log`,
and every report carries the full-resync cost of the same state beside
what was shipped; the simulator's ``resync_traffic_bounded`` invariant
audits the log against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dht.messages import Message, MessageKind, message, wire_size
from ..exceptions import NodeFailedError
from .snapshot import PeerSnapshot, restore_slots, slot_checksum


@dataclass
class RecoveryReport:
    """Accounting of one peer recovery, in both currencies (messages and
    postings) plus the full-resync baseline for the same state."""

    peer: int
    mode: str  # "snapshot" (a checkpoint was on disk) | "full"
    slots_transferred: int = 0
    slots_matched: int = 0
    slots_changed: int = 0
    slots_missing: int = 0  # transferred but absent from the snapshot
    slots_restored: int = 0  # rebuilt locally from the snapshot
    postings_authoritative: int = 0
    postings_shipped: int = 0
    bytes_shipped: int = 0
    messages_sent: int = 0
    full_baseline_postings: int = 0
    full_baseline_bytes: int = 0
    full_baseline_messages: int = 0


class RecoveryManager:
    """Drives snapshot-assisted rejoin of crashed indexing peers."""

    def __init__(self, ring, runtime=None) -> None:
        self.ring = ring
        self.runtime = runtime
        self.log: List[RecoveryReport] = []

    def recover_peer(self, node_id: int) -> RecoveryReport:
        """Rejoin a crashed peer and reconcile its slot state.

        With a checkpoint of the peer on disk the recovery is
        incremental; without one every transferred slot ships in full.
        Either way the full-resync cost is computed, so one run yields
        its own baseline comparison.
        """
        from ..core.metadata import TermSlot

        snapshot: Optional[PeerSnapshot] = None
        if self.runtime is not None:
            snapshot = self.runtime.snapshots.load_peer(node_id)

        self.ring.join(node_id=node_id)
        node = self.ring.node(node_id)
        source = node.successor
        replicas = self.ring.node(source).replicas
        for key in [key for key in replicas if node.owns(key)]:
            node.store.setdefault(key, replicas.pop(key))

        incremental = snapshot is not None
        report = RecoveryReport(
            peer=node_id,
            mode="snapshot" if incremental else "full",
        )

        snap_slots: Dict[str, Dict] = {}
        if incremental:
            snap_slots = {s["term"]: s for s in snapshot.slots}

        deltas: List[Tuple[MessageKind, int]] = []  # (kind, postings) to ship
        for slot in node.store.values():
            if not isinstance(slot, TermSlot):
                continue
            report.slots_transferred += 1
            rows = {row[0]: row for row in slot._store.rows()}
            count = len(rows)
            report.postings_authoritative += count
            report.full_baseline_messages += 1
            report.full_baseline_postings += count
            report.full_baseline_bytes += wire_size(MessageKind.SYNC_FULL, count)
            if not incremental:
                deltas.append((MessageKind.SYNC_FULL, count))
                continue
            snap_slot = snap_slots.get(slot.term)
            if snap_slot is None:
                report.slots_missing += 1
                deltas.append((MessageKind.SYNC_FULL, count))
                continue
            if snapshot.slot_checksums.get(slot.term) == slot_checksum(
                rows.values()
            ):
                report.slots_matched += 1
                continue
            report.slots_changed += 1
            snap_rows = {
                row[0]: (row[0], int(row[1]), int(row[2]), int(row[3]))
                for row in snap_slot["postings"]
            }
            changed = sum(
                1 for doc, row in rows.items() if snap_rows.get(doc) != row
            )
            removed = sum(1 for doc in snap_rows if doc not in rows)
            deltas.append((MessageKind.SYNC_DELTA, changed + removed))

        # The digest round only happens in snapshot mode and only when
        # there is something to reconcile.
        if incremental and report.slots_transferred:
            request = message(
                MessageKind.SYNC_DIGEST, node_id, source, len(snapshot.slots) or 1
            )
            reply = message(
                MessageKind.SYNC_DIGEST, source, node_id, report.slots_transferred
            )
            self._send(request, report)
            self._send(reply, report)
        for kind, count in deltas:
            self._send(message(kind, source, node_id, count), report)
            report.postings_shipped += count

        # Rebuild snapshot-only slots the key transfer did not cover —
        # local disk reads, no wire traffic.
        if incremental:
            factory = None
            if self.runtime is not None:
                factory = self.runtime.new_postings
            restored = restore_slots(self.ring, [snapshot], store_factory=factory)
            report.slots_restored = len(restored)

        self.log.append(report)
        return report

    def _send(self, msg: Message, report: RecoveryReport) -> None:
        try:
            self.ring.send(msg)
        except NodeFailedError:  # pragma: no cover - successor died mid-recovery
            return
        report.messages_sent += 1
        report.bytes_shipped += msg.size_bytes
