"""Tests for successor-list replication (paper Section 7)."""

from __future__ import annotations

import pytest

from repro.config import ChordConfig
from repro.dht import ChordRing, ReplicationManager
from repro.dht.messages import MessageKind, POSTING_BYTES, TERM_BYTES, VERSION_BYTES
from repro.net import FaultInjector, LossyTransport
from ..probes import place


def ring_with_data(num_peers: int = 12, seed: int = 21) -> ChordRing:
    ring = ChordRing(
        ChordConfig(num_peers=num_peers, id_bits=16, successor_list_size=3, seed=seed)
    )
    for i in range(40):
        place(ring, (i * 1201) % ring.space.size, f"payload-{i}")
    return ring


class TestReplicationRound:
    def test_copies_land_on_successors(self) -> None:
        ring = ring_with_data()
        manager = ReplicationManager(ring, replication_factor=2)
        shipped = manager.replicate_round()
        assert shipped > 0
        for node_id in ring.live_ids:
            node = ring.node(node_id)
            if not node.store:
                continue
            for succ in node.successor_list[:2]:
                succ_node = ring.node(succ)
                for key in node.store:
                    assert key in succ_node.replicas

    def test_replication_traffic_recorded(self) -> None:
        ring = ring_with_data()
        ReplicationManager(ring, replication_factor=1).replicate_round()
        assert ring.stats.kind(MessageKind.REPLICATE).messages > 0

    def test_factor_bounded_by_successor_list(self) -> None:
        ring = ring_with_data()
        manager = ReplicationManager(ring, replication_factor=99)
        assert manager.replication_factor == ring.config.successor_list_size

    def test_invalid_factor(self) -> None:
        with pytest.raises(ValueError):
            ReplicationManager(ring_with_data(), replication_factor=0)

    def test_deep_copy_isolates_replicas(self) -> None:
        ring = ChordRing(
            ChordConfig(num_peers=3, id_bits=8, successor_list_size=2), node_ids=[10, 100, 200]
        )
        place(ring, 50, {"mutable": 1})       # at node 100
        ReplicationManager(ring, replication_factor=1).replicate_round()
        ring.node(100).store.get(50)["mutable"] = 2
        assert ring.node(200).replicas[50] == {"mutable": 1}


class Stamped:
    """A payload with a replica stamp, as opaque to ``repro.dht`` as a
    string: content and stamp move together."""

    def __init__(self, content: str, stamp: int) -> None:
        self.content = content
        self.replica_stamp = stamp


def three_node_ring(transport=None) -> ChordRing:
    """Nodes 10, 100, 200 with one key each (5, 50, 150); at factor 1
    a round is the three pushes 10→100, 100→200, 200→10, in that order."""
    ring = ChordRing(
        ChordConfig(num_peers=3, id_bits=8, successor_list_size=2),
        node_ids=[10, 100, 200],
        transport=transport,
    )
    for key in (5, 50, 150):
        place(ring, key, Stamped(f"v-{key}", stamp=key))
    return ring


def replicate_bytes(ring: ChordRing) -> int:
    return ring.stats.kind(MessageKind.REPLICATE).bytes


class TestDeltaRound:
    DIGEST = TERM_BYTES + VERSION_BYTES
    ENTRY = TERM_BYTES + POSTING_BYTES

    def test_unchanged_stamped_entries_ship_once(self) -> None:
        ring = three_node_ring()
        manager = ReplicationManager(ring, replication_factor=1)
        assert manager.replicate_round() == 3
        held = {n: dict(ring.node(n).replicas) for n in ring.live_ids}
        assert manager.replicate_round() == 0
        for node_id, replicas in held.items():
            # nothing was re-copied: the very same objects are still held
            assert all(
                ring.node(node_id).replicas[key] is value
                for key, value in replicas.items()
            )

    def test_one_message_per_pair_priced_as_digest_plus_shipped(self) -> None:
        ring = three_node_ring()
        manager = ReplicationManager(ring, replication_factor=1)
        manager.replicate_round()
        assert ring.stats.kind(MessageKind.REPLICATE).messages == 3
        assert replicate_bytes(ring) == 3 * (self.DIGEST + self.ENTRY)
        manager.replicate_round()
        # a quiet round still sends every pair its digest, and only that
        assert ring.stats.kind(MessageKind.REPLICATE).messages == 6
        assert replicate_bytes(ring) == 3 * (self.DIGEST + self.ENTRY) + 3 * self.DIGEST

    def test_only_the_changed_entry_is_reshipped(self) -> None:
        ring = three_node_ring()
        place(ring, 60, Stamped("v-60", stamp=60))  # second key at node 100
        manager = ReplicationManager(ring, replication_factor=1)
        manager.replicate_round()
        untouched = ring.node(200).replicas[60]
        ring.node(100).store[50] = Stamped("v-50b", stamp=51)
        assert manager.replicate_round() == 1
        assert ring.node(200).replicas[50].content == "v-50b"
        assert ring.node(200).replicas[60] is untouched

    def test_a_diverged_replica_is_refreshed(self) -> None:
        """The gate compares against what the successor holds *now*: a
        replica that changed on its own is stale even if the primary
        did not move."""
        ring = three_node_ring()
        manager = ReplicationManager(ring, replication_factor=1)
        manager.replicate_round()
        ring.node(200).replicas[50].replica_stamp = -1
        assert manager.replicate_round() == 1
        assert ring.node(200).replicas[50].replica_stamp == 50

    def test_unstamped_payloads_always_ship(self) -> None:
        ring = ring_with_data()
        manager = ReplicationManager(ring, replication_factor=2)
        first = manager.replicate_round()
        assert first > 0
        assert manager.replicate_round() == first


class DropPair(FaultInjector):
    """Loses every attempt of one src→dst pair and nothing else: the
    pair's plan, which the transport reads once per delivery, drops with
    rate 1."""

    def __init__(self, src: int, dst: int) -> None:
        super().__init__()
        self.pair = (src, dst)

    def pair_plan(self, src, dst):
        if (src, dst) == self.pair:
            return 1.0, 1.0, False
        return super().pair_plan(src, dst)


class TestUndeliveredPush:
    def test_dropped_push_installs_nothing_and_round_continues(self) -> None:
        """Regression: the copy used to be installed *before* the send,
        so a dropped REPLICATE updated the successor anyway, and the
        exception aborted the round before later primaries (and the
        prune) ran."""
        faults = DropPair(10, 100)
        ring = three_node_ring(LossyTransport(faults=faults))
        ring.node(200).replicas[5] = "left behind"  # 200 is outside 10's window
        manager = ReplicationManager(ring, replication_factor=1)

        assert manager.replicate_round() == 2
        assert manager.undelivered == 1
        assert 5 not in ring.node(100).replicas
        assert ring.node(200).replicas[50].content == "v-50"
        assert ring.node(10).replicas[150].content == "v-150"
        assert 5 not in ring.node(200).replicas  # the prune still ran
        assert ring.stats.kind(MessageKind.REPLICATE).messages == 2

        faults.pair = None
        assert manager.replicate_round() == 1
        assert manager.undelivered == 0
        assert ring.node(100).replicas[5].content == "v-5"


class TestRecovery:
    def test_data_survives_failure_with_replication(self) -> None:
        ring = ChordRing(
            ChordConfig(num_peers=3, id_bits=8, successor_list_size=2), node_ids=[10, 100, 200]
        )
        place(ring, 50, "precious")           # primary at node 100
        manager = ReplicationManager(ring, replication_factor=1)
        manager.replicate_round()
        ring.fail(100)
        promoted = manager.recover_from_failures()
        assert promoted >= 1
        # Node 200 now owns key 50 and must serve it as primary.
        assert ring.successor_of(50) == 200
        assert ring.node(200).store.get(50) == "precious"

    def test_data_lost_without_replication(self) -> None:
        ring = ChordRing(
            ChordConfig(num_peers=3, id_bits=8, successor_list_size=2), node_ids=[10, 100, 200]
        )
        place(ring, 50, "precious")
        ring.fail(100)
        ring.stabilize()
        assert ring.node(200).store.get(50) is None

    def test_promote_skips_keys_not_owned(self) -> None:
        ring = ChordRing(
            ChordConfig(num_peers=3, id_bits=8, successor_list_size=2), node_ids=[10, 100, 200]
        )
        place(ring, 50, "v")
        manager = ReplicationManager(ring, replication_factor=1)
        manager.replicate_round()
        # No failure: replicas must NOT be promoted anywhere.
        promoted = manager.promote_replicas()
        assert promoted == 0
        assert ring.node(200).store.get(50) is None

    def test_promote_discards_duplicate_replicas(self) -> None:
        ring = ChordRing(
            ChordConfig(num_peers=2, id_bits=8, successor_list_size=1), node_ids=[100, 200]
        )
        place(ring, 150, "v")                  # at 200
        manager = ReplicationManager(ring, replication_factor=1)
        manager.replicate_round()
        # 100 holds a replica of key 150; 200 is still alive and owns it.
        manager.promote_replicas()
        assert ring.node(100).store.get(150) is None

    def test_multi_failure_survival_rate(self) -> None:
        """With r=3 replication, killing 3 of 12 nodes must preserve all
        data after recovery."""
        ring = ring_with_data(num_peers=12)
        all_keys = {
            key for node_id in ring.live_ids for key in ring.node(node_id).store
        }
        manager = ReplicationManager(ring, replication_factor=3)
        manager.replicate_round()
        for victim in list(ring.live_ids)[:3]:
            ring.fail(victim)
        manager.recover_from_failures()
        surviving = {
            key for node_id in ring.live_ids for key in ring.node(node_id).store
        }
        assert surviving >= all_keys - set()  # every key recovered
        assert all_keys <= surviving

    def test_replica_counts_inspection(self) -> None:
        ring = ring_with_data()
        manager = ReplicationManager(ring, replication_factor=1)
        manager.replicate_round()
        assert sum(len(ring.node(n).replicas) for n in ring.live_ids) > 0
