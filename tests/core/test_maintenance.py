"""Tests for owner-side liveness maintenance."""

from __future__ import annotations

import pytest

from repro.config import ChordConfig, SpriteConfig
from repro.core import MaintenanceDaemon, SpriteSystem
from repro.corpus import Corpus, Document, Query
from repro.dht.messages import MessageKind

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


class TestHealthyRound:
    def test_all_postings_intact(self, system: SpriteSystem) -> None:
        report = MaintenanceDaemon(system).run_round()
        assert report.postings_republished == 0
        assert report.peers_unreachable == 0
        assert report.postings_intact == system.total_published_terms()

    def test_heartbeats_counted(self, system: SpriteSystem) -> None:
        MaintenanceDaemon(system).run_round()
        heartbeats = system.ring.stats.kind(MessageKind.HEARTBEAT)
        assert heartbeats.messages == system.total_published_terms()

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
        assert "d0" in ranked.ids()

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
