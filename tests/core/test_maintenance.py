"""Tests for owner-side liveness maintenance."""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.config import ChordConfig, SpriteConfig
from repro.core import MaintenanceDaemon, SpriteSystem
from repro.corpus import Corpus, Document, Query
from repro.dht.messages import MessageKind, units_carried
from repro.evaluation.experiments import build_trained_sprite
from ..probes import ids

CHORD = ChordConfig(num_peers=24, id_bits=32, seed=131)


@pytest.fixture()
def system() -> SpriteSystem:
    corpus = Corpus(
        [
            Document(f"d{i}", f"alpha{i} alpha{i} beta{i} gamma{i} shared shared")
            for i in range(10)
        ]
    )
    system = SpriteSystem(
        corpus,
        sprite_config=SpriteConfig(
            initial_terms=3, terms_per_iteration=0, learning_iterations=0,
            max_index_terms=3,
        ),
        chord_config=CHORD,
    )
    system.share_corpus()
    return system


def peers_of(system: SpriteSystem, owner) -> set:
    """The live peers responsible for *owner*'s published terms."""
    term_hash = system.protocol.term_hash
    return {
        system.ring.successor_of(term_hash(term))
        for state in owner.shared.values()
        for term in state.index_terms
    }


def postings_at(system: SpriteSystem, peer: int) -> int:
    """How many published (document, term) postings *peer* is
    responsible for (by the ring's ownership before any repair)."""
    node = system.ring.nodes[peer]
    term_hash = system.protocol.term_hash
    return sum(
        node.owns(term_hash(term))
        for owner in system.owners.values()
        for state in owner.shared.values()
        for term in state.index_terms
    )


class TestHealthyRound:
    def test_all_postings_intact(self, system: SpriteSystem) -> None:
        report = MaintenanceDaemon(system).run_round()
        assert report.postings_republished == 0
        assert report.peers_unreachable == 0
        assert report.postings_intact == system.total_published_terms()

    def test_heartbeats_counted(self, system: SpriteSystem) -> None:
        """An owner probes the peers its writes located: no lookup, one
        HEARTBEAT per (owner, peer), one unit per posting."""
        stats = system.ring.stats
        lookups = stats.kind(MessageKind.LOOKUP).messages
        MaintenanceDaemon(system).run_round()
        assert stats.kind(MessageKind.LOOKUP).messages == lookups
        heartbeats = stats.kind(MessageKind.HEARTBEAT)
        assert heartbeats.messages == sum(
            len(peers_of(system, owner)) for owner in system.owners.values()
        )
        assert units_carried(
            MessageKind.HEARTBEAT, heartbeats.messages, heartbeats.bytes
        ) == system.total_published_terms()

    def test_two_clean_rounds_report_and_send_alike(self, system: SpriteSystem) -> None:
        daemon = MaintenanceDaemon(system)
        stats = system.ring.stats
        traffic = []
        reports = []
        for __ in range(2):
            before = stats.total_messages, stats.total_bytes
            reports.append(daemon.run_round())
            traffic.append((stats.total_messages - before[0], stats.total_bytes - before[1]))
        assert reports[0] == reports[1] and reports[0].clean
        assert reports[0].probes_sent == system.total_published_terms()
        assert traffic[0] == traffic[1]

    def test_rounds_are_idempotent(self, system: SpriteSystem) -> None:
        daemon = MaintenanceDaemon(system)
        first = daemon.run_round()
        second = daemon.run_round()
        assert second.postings_intact == first.postings_intact

    def test_reconciling_reads_rows_and_leaves_no_entry_view(self, system: SpriteSystem) -> None:
        """The audit walks every slot of every live peer; it retires an
        orphan, then rounds agree, and no slot is left holding a
        materialized list of entries."""
        owner = next(o for o in system.owners.values() if o.shared)
        doc_id, state = next(iter(owner.shared.items()))
        state.index_terms.remove(orphaned := state.index_terms[0])
        daemon = MaintenanceDaemon(system)
        assert daemon.run_round().postings_retired == 1
        assert not system.protocol.slot_snapshot(orphaned).has_posting(doc_id)
        assert daemon.run_round() == daemon.run_round()
        slots = [
            slot
            for node_id in system.ring.live_ids
            for slot in system.ring.node(node_id).store.values()
        ]
        assert slots and all(slot._entries_view == [] for slot in slots)


class TestFailureWindow:
    def test_unreachable_peers_reported_before_repair(self, system: SpriteSystem) -> None:
        victim = system.ring.live_ids[5]
        had_slots = len(system.ring.node(victim).store) > 0
        system.ring.fail(victim)
        report = MaintenanceDaemon(system).run_round()
        if had_slots:
            assert report.peers_unreachable > 0

    def test_republication_after_repair(self, system: SpriteSystem) -> None:
        """After stabilize, lost slots must be healed by republication
        and retrieval must work again."""
        # Find a victim that actually holds slots.
        victim = next(
            n for n in system.ring.live_ids if system.ring.node(n).store
        )
        lost = len(system.ring.node(victim).store)
        system.ring.fail(victim)
        system.ring.stabilize()

        daemon = MaintenanceDaemon(system)
        report = daemon.run_round()
        assert report.postings_republished > 0

        # A second round finds everything intact.
        again = daemon.run_round()
        assert again.postings_republished == 0
        assert again.peers_unreachable == 0

    def test_heal_until_stable(self, system: SpriteSystem) -> None:
        victim = next(
            n for n in system.ring.live_ids if system.ring.node(n).store
        )
        system.ring.fail(victim)
        system.ring.stabilize()
        healed = MaintenanceDaemon(system).heal_until_stable()
        assert healed > 0
        # Full retrieval restored: every document findable via its terms.
        doc = system.corpus.get("d0")
        term = doc.top_terms(1)[0]
        ranked = system.search(Query("probe", (term,)), cache=False)
        assert "d0" in ids(ranked)

    def test_heal_until_stable_validates_budget(self, system: SpriteSystem) -> None:
        with pytest.raises(ValueError):
            MaintenanceDaemon(system).heal_until_stable(max_rounds=0)


class TestInteractionWithJoin:
    def test_join_does_not_trigger_republication(self, system: SpriteSystem) -> None:
        """A joiner takes over keys via Chord's key transfer, so no
        posting goes missing and no republication should happen."""
        system.ring.join(name="fresh-peer")
        report = MaintenanceDaemon(system).run_round()
        assert report.postings_republished == 0


class TestTheProbeReachesKnownPeers:
    """The probe absorbs into the peers an owner knows and looks up only
    keys outside their intervals; what it locates, the owner then knows."""

    @staticmethod
    def _lookups(system: SpriteSystem) -> int:
        return system.ring.stats.kind(MessageKind.LOOKUP).messages

    def test_a_joiner_inside_a_known_peer_is_looked_up_and_healed(
        self, system: SpriteSystem
    ) -> None:
        ring = system.ring
        owner = next(o for o in system.owners.values() if o.shared)
        term = next(iter(owner.shared.values())).index_terms[0]
        key = system.protocol.term_hash(term)
        known = ring.successor_of(key)
        assert known in owner.peers and key != known
        joiner = ring.join(node_id=key)  # takes (predecessor, key] from known
        missing = postings_at(system, joiner)
        assert missing > 0
        ring.node(joiner).store.clear()  # the key transfer lost its slots
        routes = dict(ring.route_cache._entries)
        lookups = self._lookups(system)

        daemon = MaintenanceDaemon(system)
        report = daemon.run_round()
        assert report.postings_republished == missing
        assert report.postings_intact == system.total_published_terms() - missing
        assert report.peers_unreachable == 0
        assert self._lookups(system) > lookups
        assert joiner in owner.peers
        assert ring.route_cache._entries == routes  # an owner stores no route

        lookups = self._lookups(system)
        again = daemon.run_round()
        assert again.clean and again.postings_intact == system.total_published_terms()
        assert self._lookups(system) == lookups  # the joiner is known now

    def test_a_known_peer_that_left_is_routed_around(self, system: SpriteSystem) -> None:
        ring = system.ring
        owner = next(o for o in system.owners.values() if o.shared)
        gone = next(peer for peer in owner.peers if postings_at(system, peer))
        ring.leave(gone)
        report = MaintenanceDaemon(system).run_round()
        assert report.clean
        assert report.probes_sent == report.postings_intact == system.total_published_terms()

    def test_a_crashed_peer_is_unreachable_until_repair(self, system: SpriteSystem) -> None:
        ring = system.ring
        owner = next(o for o in system.owners.values() if o.shared)
        victim = next(
            peer for peer in owner.peers if peer not in system.owners and postings_at(system, peer)
        )
        lost = postings_at(system, victim)
        ring.fail(victim)
        report = MaintenanceDaemon(system).run_round()
        assert not report.clean
        assert report.peers_unreachable == lost
        assert report.probes_sent == report.postings_intact == (
            system.total_published_terms() - lost
        )
        assert report.postings_republished == 0


class TestKnownPeersSkipTheDeparted:
    """A crashed peer stays among an owner's known peers until its next
    poll; once the ring is repaired, the probe and the republish absorb
    its keys into the next live known peer clockwise instead of looking
    them up (paper §7: repair, then republish)."""

    def test_no_lookup_resolves_to_a_known_peer_after_repair(
        self, small_env, monkeypatch
    ) -> None:
        system = build_trained_sprite(small_env)
        ring, protocol = system.ring, system.protocol
        victim = next(peer for peer in ring.live_ids if ring.node(peer).store)
        held, term_hash = ring.node(victim), protocol.term_hash
        lost = sum(  # the victim's own documents are lost with it
            held.owns(term_hash(term))
            for owner in system.owners.values()
            if owner.node_id != victim
            for state in owner.shared.values()
            for term in state.index_terms
        )
        assert lost > 0
        ring.fail(victim)
        ring.stabilize()

        to_known: List[int] = []
        route = protocol._route

        def recording(start_id, key, cached=True):
            node, hops = route(start_id, key, cached)
            owner = system.owners.get(start_id)
            if owner is not None and node.node_id in owner.peers:
                to_known.append(key)
            return node, hops

        republished: List[Tuple[str, str]] = []
        publish_batch = protocol.publish_batch

        def recording_batch(owner_id, postings, near=()):
            republished.extend((term, posting.doc_id) for term, posting in postings)
            return publish_batch(owner_id, postings, near)

        monkeypatch.setattr(protocol, "_route", recording)
        monkeypatch.setattr(protocol, "publish_batch", recording_batch)
        daemon = MaintenanceDaemon(system)
        first = daemon.run_round()
        assert first.postings_republished == len(republished) == lost
        assert first.peers_unreachable == 0
        for term, doc_id in republished:  # each at the peer its key routes to
            key = term_hash(term)
            assert ring.node(ring.successor_of(key)).store[key].has_posting(doc_id)
        lookups = ring.stats.kind(MessageKind.LOOKUP).messages
        again = daemon.run_round()
        assert again.clean and again.postings_republished == 0
        assert ring.stats.kind(MessageKind.LOOKUP).messages == lookups
        assert to_known == []
