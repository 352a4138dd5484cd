"""Minimal failure interleavings the simulation harness surfaced.

Each test replays a shrunk schedule that broke an invariant before the
corresponding fix landed, as a targeted regression:

* **replica adoption** (``ChordNode.adopt``): a responsible peer serving
  a replica-resident slot must promote it to a primary copy, otherwise
  a later join's key transfer (which moves only ``store``) strands the
  slot and the term becomes unresolvable.
* **deletion by replication** (``OwnerPeer._unpublish``): a deletion
  reaches the replica holders with the next replication round, which
  reships the slot it changed; a replica promoted by a crash before
  that round still holds the posting, and the next maintenance round
  retires it.
* **reconciliation** (``MaintenanceDaemon._reconcile_round``): an
  unpublish that raced the indexing peer's crash leaves a permanent
  orphan in the promoted replica; the indexing-peer-driven audit retires
  it.
* **stale-replica pruning** (``ReplicationManager.prune_stale_replicas``):
  replicas left at nodes that dropped out of the responsible peer's
  successor window are never refreshed and must not survive to be
  promoted later.
"""

from __future__ import annotations

import pytest

from repro.config import ChordConfig, SpriteConfig
from repro.core.maintenance import MaintenanceDaemon
from repro.core.metadata import TermSlot
from repro.core.system import SpriteSystem
from repro.corpus import Corpus, Document
from repro.dht.replication import ReplicationManager
from repro.sim import InvariantChecker

from ..conftest import TINY_DOCS
from ..probes import indexed_df


@pytest.fixture()
def system() -> SpriteSystem:
    corpus = Corpus(
        Document(doc_id=doc_id, text=text) for doc_id, text in TINY_DOCS.items()
    )
    sys_ = SpriteSystem(
        corpus,
        sprite_config=SpriteConfig(
            initial_terms=3,
            max_index_terms=6,
            query_cache_size=50,
            assumed_corpus_size=100,
            top_k_answers=5,
        ),
        chord_config=ChordConfig(
            num_peers=12, id_bits=32, successor_list_size=3, seed=20070415
        ),
    )
    sys_.share_corpus()
    return sys_


def _some_posting(system: SpriteSystem):
    """(owner, doc_id, term, key, primary node id) for one live posting."""
    ring = system.ring
    for owner in system.owners.values():
        if not ring.is_live(owner.node_id):
            continue
        for doc_id, state in owner.shared.items():
            for term in state.index_terms:
                key = system.protocol.term_hash(term)
                primary = ring.successor_of(key)
                if primary != owner.node_id and ring.num_live > 3:
                    return owner, doc_id, term, key, primary
    raise AssertionError("no usable posting in fixture system")


class TestReplicaAdoption:
    def test_join_after_crash_does_not_strand_replica_resident_slot(
        self, system
    ) -> None:
        # shrunk schedule: publish → replicate → crash primary →
        # stabilize → fetch (serves from replica) → join inside the
        # key's range → term must still be resolvable
        ring = system.ring
        owner, doc_id, term, key, primary = _some_posting(system)
        ReplicationManager(ring).replicate_round()
        ring.fail(primary)
        ring.stabilize()

        inheritor = ring.successor_of(key)
        assert key in ring.node(inheritor).replicas  # replica-resident
        postings, __ = system.protocol.fetch_postings(inheritor, term)
        assert any(p.doc_id == doc_id for p in postings)
        # adoption promoted the slot to a primary copy...
        assert key in ring.node(inheritor).store

        # ...so the join's key transfer migrates it instead of
        # stranding it in the old node's replica map.  (Heal the other
        # slots the crash orphaned first, so the final sweep isolates
        # the adoption path.)
        ReplicationManager(ring).promote_replicas()
        joiner = ring.join(node_id=key)
        assert ring.successor_of(key) == joiner
        slot = ring.node(joiner).store.get(key)
        assert isinstance(slot, TermSlot) and slot.has_posting(doc_id)
        report = InvariantChecker(system).check(quiescent=True)
        assert not any(
            v.invariant == "term_resolvability" for v in report.violations
        ), [str(v) for v in report.violations]


class TestDeletionRidesReplication:
    """A deletion takes effect at the indexing peer only; its replica
    holders learn of it from the next replication round, and a replica
    promoted before that round is retired by the next maintenance
    round's reconcile."""

    @staticmethod
    def _withdraw(system: SpriteSystem):
        """Publish → replicate → the owner withdraws one posting.
        Returns (doc_id, key, primary, replication)."""
        ring = system.ring
        owner, doc_id, term, key, primary = _some_posting(system)
        replication = ReplicationManager(ring)
        replication.replicate_round()
        assert any(
            isinstance(slot, TermSlot) and slot.has_posting(doc_id)
            for slot in (ring.node(n).replicas.get(key) for n in ring.live_ids)
        )
        state = owner.shared[doc_id]
        owner._unpublish([(state, [term])])
        assert term not in state.index_terms
        assert not ring.node(primary).store[key].has_posting(doc_id)
        return doc_id, key, primary, replication

    def test_a_replication_round_before_the_crash_leaves_the_posting_gone(
        self, system
    ) -> None:
        # shrunk schedule: unpublish → replicate → crash primary →
        # stabilize + promote → the posting must stay gone
        ring = system.ring
        doc_id, key, primary, replication = self._withdraw(system)
        replication.replicate_round()
        ring.fail(primary)
        replication.recover_from_failures()

        holder = ring.node(ring.successor_of(key))
        slot = holder.store.get(key) or holder.replicas.get(key)
        assert isinstance(slot, TermSlot) and not slot.has_posting(doc_id)

    def test_a_crash_before_the_round_promotes_a_posting_maintenance_retires(
        self, system
    ) -> None:
        # shrunk schedule: unpublish → crash primary → stabilize +
        # promote (the stale replica, posting included) → maintain must
        # retire it and leave owner and index in agreement
        ring = system.ring
        doc_id, key, primary, replication = self._withdraw(system)
        ring.fail(primary)
        replication.recover_from_failures()

        holder = ring.node(ring.successor_of(key))
        assert holder.store[key].has_posting(doc_id)  # the stale promotion
        report = MaintenanceDaemon(system).run_round()
        assert report.postings_retired >= 1
        assert not holder.store[key].has_posting(doc_id)
        check = InvariantChecker(system).check(quiescent=True)
        assert not any(
            v.invariant == "owner_agreement" for v in check.violations
        ), [str(v) for v in check.violations]


class TestReconciliation:
    def test_orphan_from_unpublish_crash_race_is_retired(self, system) -> None:
        # shrunk schedule: publish → replicate → crash primary →
        # unpublish (fails: peer down, owner drops the term anyway) →
        # recover (promotes the stale replica, orphan included) →
        # maintain must retire the orphan
        ring = system.ring
        owner, doc_id, term, key, primary = _some_posting(system)
        replication = ReplicationManager(ring)
        replication.replicate_round()

        ring.fail(primary)
        state = owner.shared[doc_id]
        owner._unpublish([(state, [term])])  # deletion lost: peer is down
        assert term not in state.index_terms
        replication.recover_from_failures()

        holder = ring.node(ring.successor_of(key))
        slot = holder.store.get(key)
        assert isinstance(slot, TermSlot) and slot.has_posting(doc_id)  # the orphan

        daemon = MaintenanceDaemon(system)
        report = daemon.run_round()
        assert report.postings_retired >= 1
        assert report.reconcile_messages >= 1
        assert not holder.store[key].has_posting(doc_id)
        check = InvariantChecker(system).check(quiescent=True)
        assert not any(
            v.invariant == "owner_agreement" for v in check.violations
        ), [str(v) for v in check.violations]

    def test_reconcile_never_deletes_for_dead_owners(self, system) -> None:
        ring = system.ring
        owner, doc_id, term, key, primary = _some_posting(system)
        ReplicationManager(ring).replicate_round()
        ring.fail(owner.node_id)
        ring.stabilize()
        before = indexed_df(system.protocol, term)
        report = MaintenanceDaemon(system).run_round()
        # the dead owner's postings are orphans-by-death, not deletions
        assert indexed_df(system.protocol, term) == before


class TestStaleReplicaPruning:
    def test_replica_outside_successor_window_is_dropped(self, system) -> None:
        ring = system.ring
        owner, doc_id, term, key, primary = _some_posting(system)
        replication = ReplicationManager(ring)
        replication.replicate_round()

        # plant a replica at a node far outside the primary's window
        window = ring.node(primary).successor_list[: replication.replication_factor]
        outsider = next(
            nid
            for nid in ring.live_ids
            if nid not in window and nid != primary and ring.successor_of(key) != nid
        )
        ring.node(outsider).replicas[key] = TermSlot(
            term=term, cache=ring.node(primary).store[key].cache
        )

        dropped = replication.prune_stale_replicas()
        assert dropped >= 1
        assert key not in ring.node(outsider).replicas
        # legitimate window replicas survive
        assert any(
            key in ring.node(nid).replicas
            for nid in window
            if ring.is_live(nid) and nid != primary
        )

    def test_promotable_replica_is_kept(self, system) -> None:
        ring = system.ring
        owner, doc_id, term, key, primary = _some_posting(system)
        replication = ReplicationManager(ring)
        replication.replicate_round()
        ring.fail(primary)
        ring.stabilize()
        inheritor = ring.successor_of(key)
        assert key in ring.node(inheritor).replicas
        replication.prune_stale_replicas()
        # the inheritor is now responsible: its copy is promotable, kept
        assert key in ring.node(inheritor).replicas


class TestConsecutiveDeadSuccessorLookup:
    """Shrunk schedule for the ``ring.lookup`` orbit fix.

    The one-deep ``(current, successor]`` ownership test cannot see past
    *consecutive* failed successors: when a key's unrepaired owner is
    the second dead entry in the successor list, the pre-fix router
    skipped both corpses via ``first_live_successor`` and orbited the
    ring until the step limit blew up as ``DHTError`` — instead of
    reporting the Section 7 down-peer window (``NodeFailedError``) or
    terminating at the key's live owner.  Pinned here on an explicit
    8-node ring so the interval walk is auditable by eye.
    """

    def _ring(self) -> "ChordRing":
        from repro.dht import ChordRing

        return ChordRing(
            ChordConfig(
                num_peers=8, id_bits=32, successor_list_size=4, seed=1
            ),
            node_ids=[10, 20, 30, 40, 50, 60, 70, 80],
        )

    def test_dead_owner_behind_dead_successor_raises(self) -> None:
        from repro.exceptions import NodeFailedError

        ring = self._ring()
        ring.fail(20)
        ring.fail(30)  # two consecutive dead successors of node 10
        # Key 25's owner is node 30 — dead, unrepaired: the down-peer
        # window must surface as NodeFailedError, not a routing orbit.
        with pytest.raises(NodeFailedError):
            ring.lookup(10, 25, record=False)

    def test_live_owner_past_dead_pair_terminates(self) -> None:
        ring = self._ring()
        ring.fail(20)
        ring.fail(30)
        # Key 35's owner is node 40 — alive past the dead pair; the
        # successor-list interval walk must terminate there directly.
        result = ring.lookup(10, 35, record=False)
        assert result.node_id == 40
        assert result.path[0] == 10
        assert result.path[-1] == 40

    def test_after_repair_lookup_resolves_to_next_live_owner(self) -> None:
        ring = self._ring()
        ring.fail(20)
        ring.fail(30)
        for __ in range(4):
            ring.stabilize()
        # Once stabilization absorbs the failures, key 25 belongs to
        # the next live node on the ring.
        assert ring.lookup(10, 25, record=False).node_id == 40
