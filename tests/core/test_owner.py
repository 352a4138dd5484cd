"""Tests for the owner peer: sharing and learning."""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.config import ChordConfig, SpriteConfig
from repro.core.indexer import IndexingProtocol
from repro.core.metadata import PostingEntry
from repro.core.owner import OwnerPeer
from repro.corpus import Document
from repro.dht import ChordRing
from repro.dht.messages import TERM_BYTES, VERSION_BYTES, MessageKind
from repro.exceptions import LearningError, NodeFailedError
from repro.net.trace import DROPPED
from repro.net.transport import DeliveryOutcome, DeliveryReceipt, LossyTransport, PerfectTransport
from ..probes import indexed_df, posting


@pytest.fixture()
def ring() -> ChordRing:
    return ChordRing(ChordConfig(num_peers=16, id_bits=32, seed=29))


@pytest.fixture()
def protocol(ring: ChordRing) -> IndexingProtocol:
    return IndexingProtocol(ring, query_cache_size=32)


CONFIG = SpriteConfig(
    initial_terms=2,
    terms_per_iteration=2,
    learning_iterations=2,
    max_index_terms=4,
    query_cache_size=32,
    top_k_answers=5,
)


@pytest.fixture()
def config() -> SpriteConfig:
    return CONFIG


@pytest.fixture()
def owner(ring: ChordRing, protocol: IndexingProtocol, config: SpriteConfig) -> OwnerPeer:
    return OwnerPeer(ring.live_ids[0], protocol, config)


DOC = Document(
    "d1",
    "alpha alpha alpha beta beta gamma gamma delta epsilon zeta zeta zeta zeta",
)


class TestShare:
    def test_initial_terms_published(self, owner: OwnerPeer, protocol: IndexingProtocol) -> None:
        state = owner.share(DOC)
        # top-2 by frequency: zeta (4), alpha (3).
        assert state.index_terms == ["zeta", "alpha"]
        for term in state.index_terms:
            assert indexed_df(protocol, term) == 1

    def test_user_supplied_terms(self, owner: OwnerPeer) -> None:
        state = owner.share(Document("d2", DOC.text), first_terms=["gamma", "beta"])
        assert state.index_terms == ["gamma", "beta"]

    def test_double_share_rejected(self, owner: OwnerPeer) -> None:
        owner.share(DOC)
        with pytest.raises(LearningError):
            owner.share(DOC)

    def test_the_published_posting_is_the_documents_row(
        self, owner: OwnerPeer, protocol: IndexingProtocol
    ) -> None:
        """A slot receives (doc id, owner, raw tf, length); a supplied
        first term the document lacks is published with tf 0."""
        owner.share(Document("d3", DOC.text), first_terms=["zeta", "omega"])
        assert posting(protocol.slot_snapshot("zeta"), "d3") == (
            PostingEntry("d3", owner.node_id, 4, 13)
        )
        assert posting(protocol.slot_snapshot("omega"), "d3") == (
            PostingEntry("d3", owner.node_id, 0, 13)
        )

    def test_a_bulk_share_rejects_a_document_already_shared(self, owner: OwnerPeer) -> None:
        owner.share(DOC)
        with pytest.raises(LearningError):
            owner.share_bulk([Document("d9", DOC.text), DOC])
        assert len(owner.shared) == 1

    def test_unshare_removes_postings(self, owner: OwnerPeer, protocol: IndexingProtocol) -> None:
        owner.share(DOC)
        owner.unshare("d1")
        assert indexed_df(protocol, "zeta") == 0
        assert len(owner.shared) == 0

    def test_index_terms_of_unknown_doc(self, owner: OwnerPeer) -> None:
        with pytest.raises(LearningError):
            owner.index_terms("ghost")


class TestLearning:
    def test_learning_grows_index(self, owner: OwnerPeer, protocol: IndexingProtocol, ring: ChordRing) -> None:
        owner.share(DOC)
        issuer = ring.live_ids[2]
        # Repeated queries on (beta, gamma): terms in doc, not yet indexed.
        for __ in range(5):
            protocol.register_query(issuer, ("beta", "gamma"))
        [terms] = owner.learn_document("d1")
        assert len(terms) == 4
        assert "beta" in terms and "gamma" in terms
        # The new terms are actually published.
        assert indexed_df(protocol, "beta") == 1
        assert indexed_df(protocol, "gamma") == 1

    def test_learning_without_queries_pads_by_frequency(self, owner: OwnerPeer) -> None:
        owner.share(DOC)
        [terms] = owner.learn_document("d1")
        # No evidence → padded with next most frequent doc terms.
        assert len(terms) == 4
        assert set(terms) >= {"zeta", "alpha"}

    def test_cap_respected(self, owner: OwnerPeer, protocol: IndexingProtocol, ring: ChordRing) -> None:
        owner.share(DOC)
        issuer = ring.live_ids[2]
        for t in ("beta", "gamma", "delta", "epsilon"):
            for __ in range(4):
                protocol.register_query(issuer, (t, "alpha"))
        for __ in range(4):
            owner.learn_document("d1")
        assert len(owner.index_terms("d1")) == 4  # max_index_terms

    def test_replacement_unpublishes_displaced_terms(
        self, owner: OwnerPeer, protocol: IndexingProtocol, ring: ChordRing
    ) -> None:
        owner.share(DOC)  # zeta, alpha published
        issuer = ring.live_ids[2]
        # Queries must contain an indexed term ("alpha") to be observed
        # at all (the paper's peer-12 awareness argument).  They bring
        # evidence for beta/gamma/delta/epsilon; all six scored terms
        # compete for 4 slots and zeta (never queried) is evicted.
        for __ in range(6):
            protocol.register_query(issuer, ("alpha", "beta", "gamma"))
            protocol.register_query(issuer, ("alpha", "delta", "epsilon"))
        owner.learn_document("d1", target_size=4)
        terms = set(owner.index_terms("d1"))
        assert "alpha" in terms            # strongest evidence (QF 12)
        assert "zeta" not in terms         # frequent but never queried
        assert len(terms & {"beta", "gamma", "delta", "epsilon"}) == 3
        assert indexed_df(protocol, "zeta") == 0

    def test_incremental_polling_no_double_count(
        self, owner: OwnerPeer, protocol: IndexingProtocol, ring: ChordRing
    ) -> None:
        owner.share(DOC)
        issuer = ring.live_ids[2]
        for __ in range(3):
            protocol.register_query(issuer, ("zeta", "beta"))
        owner.learn_document("d1")
        qf_after_first = owner.shared["d1"].learner.stats["zeta"].query_frequency
        # No new queries → second poll must not re-count old ones.
        owner.learn_document("d1")
        assert owner.shared["d1"].learner.stats["zeta"].query_frequency == qf_after_first

    def test_learn_unshared_doc_raises(self, owner: OwnerPeer) -> None:
        with pytest.raises(LearningError):
            owner.learn_document("ghost")

    def test_learn_all(self, owner: OwnerPeer) -> None:
        owner.share(DOC)
        owner.share(Document("d2", "one one two two three"))
        owner.learn_all()
        assert owner.shared["d1"].learning_iterations_run == 1
        assert owner.shared["d2"].learning_iterations_run == 1

    def test_force_publish_requires_indexed_term(self, owner: OwnerPeer) -> None:
        owner.share(DOC)
        state = owner.shared["d1"]
        with pytest.raises(LearningError):
            owner._publish_terms_force(state, "epsilon")  # not indexed

    def test_force_publish_restores_lost_posting(
        self, owner: OwnerPeer, protocol: IndexingProtocol
    ) -> None:
        owner.share(DOC)
        state = owner.shared["d1"]
        term = state.index_terms[0]
        slot = protocol.slot_snapshot(term)
        slot.remove_posting("d1")
        assert indexed_df(protocol, term) == 0
        assert owner._publish_terms_force(state, term) is True
        assert indexed_df(protocol, term) == 1

    def test_target_bounded_by_document_vocabulary(self, owner: OwnerPeer) -> None:
        tiny = Document("tiny", "rock sand")   # both stem-stable words
        owner.share(tiny)
        [terms] = owner.learn_document("tiny", target_size=50)
        assert set(terms) == {"rock", "sand"}


#: A second document of the owner: it shares "zeta" with DOC, and its
#: other terms are its own.
DOC2 = Document("d2", "zeta zeta zeta rock rock sand")


def observing(owner: OwnerPeer) -> Dict[str, List[Tuple[str, ...]]]:
    """Record what each shared document's learner observes next."""
    seen: Dict[str, List[Tuple[str, ...]]] = {}
    for doc_id, state in owner.shared.items():

        def observe(queries, doc_id=doc_id, learner=state.learner):
            seen[doc_id] = list(queries)
            type(learner).observe(learner, queries)

        state.learner.observe = observe
    return seen


class LosesReplies(LossyTransport):
    """A lossy transport that loses nothing but the QUERY_BATCH replies
    the peer ``victim`` sends."""

    victim = None

    def deliver(self, message, dst_alive: bool = True) -> DeliveryReceipt:
        lost = message.kind is MessageKind.QUERY_BATCH and message.src == self.victim
        self.faults.drop_probability = 1.0 if lost else 0.0
        return super().deliver(message, dst_alive)


class Unreachable(PerfectTransport):
    """A perfect network on which every message to or from the peer
    ``victim`` is lost (lookups route as before)."""

    victim = None

    def deliver(self, message, dst_alive: bool = True) -> DeliveryReceipt:
        if self.victim in (message.src, message.dst):
            return DeliveryReceipt(DeliveryOutcome.DROPPED, attempts=1, latency_ms=0.0)
        return super().deliver(message, dst_alive)


def stack(transport=None) -> Tuple[ChordRing, IndexingProtocol, OwnerPeer]:
    """The fixtures' ring, protocol and owner, on *transport*."""
    ring = ChordRing(ChordConfig(num_peers=16, id_bits=32, seed=29), transport=transport)
    protocol = IndexingProtocol(ring, query_cache_size=32)
    return ring, protocol, OwnerPeer(ring.live_ids[0], protocol, CONFIG)


class TestLearningRound:
    """One round per owner: one poll for all its documents, Algorithm 1
    per document, one withdrawal and one publication pass."""

    def test_a_shared_term_is_polled_once_and_each_learner_keeps_its_own_queries(
        self, owner: OwnerPeer, protocol: IndexingProtocol, ring: ChordRing
    ) -> None:
        owner.share(DOC)  # zeta, alpha
        owner.share(DOC2, first_terms=["zeta"])
        issuer = ring.live_ids[2]
        protocol.register_query(issuer, ("zeta", "rock"))
        owner.poll_queries("d2")  # d2's zeta cursor moves to the latest arrival
        protocol.register_query(issuer, ("zeta", "sand"))
        cursors = {doc_id: owner.shared[doc_id].poll_cursors["zeta"] for doc_id in ("d1", "d2")}
        assert cursors["d1"] == -1 < cursors["d2"]

        seen = observing(owner)
        before = ring.stats.snapshot()
        owner.learn_all()
        polls = ring.stats.delta_since(before)[MessageKind.POLL_BATCH]
        # zeta and alpha, each requested once.
        assert polls.bytes == (
            MessageKind.POLL_BATCH.fixed_bytes * polls.messages + 2 * (TERM_BYTES + VERSION_BYTES)
        )
        zeta = protocol.slot_snapshot("zeta").cache
        assert seen["d1"] == [c.terms for c in zeta.since(cursors["d1"])]
        assert seen["d2"] == [c.terms for c in zeta.since(cursors["d2"])] == [("zeta", "sand")]
        for doc_id in ("d1", "d2"):
            assert owner.shared[doc_id].poll_cursors["zeta"] == zeta.latest_sequence

    def test_a_lost_query_batch_leaves_every_cursor_of_its_peer(self) -> None:
        transport = LosesReplies()
        ring, protocol, owner = stack(transport)
        owner.share(DOC)
        owner.share(DOC2, first_terms=["zeta", "rock"])
        for terms in (("zeta", "rock"), ("alpha",), ("rock",)):
            protocol.register_query(ring.live_ids[2], terms)
        transport.victim = ring.responsible_node(protocol.term_hash("zeta")).node_id
        peer_of = {
            term: ring.responsible_node(protocol.term_hash(term)).node_id
            for term in ("zeta", "alpha", "rock")
        }
        assert len(set(peer_of.values())) > 1

        owner.learn_all()
        assert transport.trace.filtered(kind=MessageKind.QUERY_BATCH.value, outcome=DROPPED)
        for state in owner.shared.values():
            for term, cursor in state.poll_cursors.items():
                if term not in peer_of:
                    continue
                lost = peer_of[term] == transport.victim
                assert (cursor == -1) == lost, (state.document.doc_id, term)

    def test_an_unreachable_peer_loses_only_its_own_terms(self) -> None:
        transport = Unreachable()
        ring, protocol, owner = stack(transport)
        owner.share(DOC)
        owner.share(DOC2, first_terms=["zeta", "rock"])
        for terms in (("zeta", "rock"), ("alpha",), ("rock", "sand")):
            for __ in range(3):
                protocol.register_query(ring.live_ids[2], terms)
        peer_of = lambda term: ring.responsible_node(protocol.term_hash(term)).node_id
        transport.victim = peer_of("zeta")
        assert transport.victim not in (owner.node_id, peer_of("alpha"))
        indexed = {doc_id: list(state.index_terms) for doc_id, state in owner.shared.items()}

        seen = observing(owner)
        owner.learn_all()
        assert ("alpha",) in seen["d1"]  # the reachable peers answered
        for doc_id, state in owner.shared.items():
            assert state.learning_iterations_run == 1
            for term in state.index_terms:
                if term in indexed[doc_id]:  # polled: only the victim's stay put
                    assert (state.poll_cursors[term] == -1) == (peer_of(term) == transport.victim)
                else:  # published: only where the peer took it
                    assert peer_of(term) != transport.victim

    def test_withdrawals_cost_no_lookup_on_a_stable_ring(
        self, owner: OwnerPeer, protocol: IndexingProtocol, ring: ChordRing
    ) -> None:
        owner.share(DOC)  # zeta, alpha
        owner.share(DOC2, first_terms=["zeta", "rock"])
        issuer = ring.live_ids[2]
        for __ in range(6):
            protocol.register_query(issuer, ("alpha", "beta", "gamma"))
            protocol.register_query(issuer, ("alpha", "delta", "epsilon"))
            protocol.register_query(issuer, ("rock", "sand"))
        unpublish_batch, withdrawals = protocol.unpublish_batch, []

        def counting(owner_id, removals, near=()):
            before = ring.stats.snapshot()
            result = unpublish_batch(owner_id, removals, near)
            withdrawals.append((removals, ring.stats.delta_since(before)))
            return result

        protocol.unpublish_batch = counting
        owner.learn_all(target_size=4)
        [(removals, delta)] = withdrawals
        assert ("zeta", "d1") in removals  # frequent but never queried
        assert delta[MessageKind.UNPUBLISH_BATCH].messages >= 1
        assert MessageKind.LOOKUP not in delta

    def test_learn_document_is_the_round_over_that_document_alone(self) -> None:
        def run(shared):
            ring, protocol, owner = stack()
            for document in shared:
                owner.share(document)
            for terms in (("alpha", "beta"), ("zeta", "gamma"), ("rock", "sand")):
                for __ in range(3):
                    protocol.register_query(ring.live_ids[2], terms)
            before = ring.stats.snapshot()
            [terms] = owner.learn_document("d1")
            state = owner.shared["d1"]
            return (
                terms,
                dict(state.poll_cursors),
                state.learning_iterations_run,
                {t: (s.max_qscore, s.query_frequency) for t, s in state.learner.stats.items()},
                ring.stats.delta_since(before),
            ), owner

        alone, __ = run([DOC])
        beside, owner = run([DOC, Document("d2", "rock rock sand sand one")])
        assert beside == alone
        untouched = owner.shared["d2"]
        assert untouched.learning_iterations_run == 0
        assert set(untouched.poll_cursors.values()) == {-1}

    def test_a_document_named_twice_is_rejected(self, owner: OwnerPeer) -> None:
        owner.share(DOC)
        with pytest.raises(LearningError):
            owner.learn_document("d1", "d1")


def polls(protocol: IndexingProtocol) -> list:
    """Record ``(poll_batch result, its traffic)`` for every poll."""
    ring, poll_batch, recorded = protocol.ring, protocol.poll_batch, []

    def recording(owner_id, documents, near=()):
        before = ring.stats.snapshot()
        result = poll_batch(owner_id, documents, near)
        recorded.append((result, ring.stats.delta_since(before)))
        return result

    protocol.poll_batch = recording
    return recorded


def term_at(ring: ChordRing, protocol: IndexingProtocol, node_id: int) -> str:
    """A term whose key the live peer *node_id* owns."""
    return next(
        term
        for term in (f"w{i}" for i in range(10_000))
        if ring.successor_of(protocol.term_hash(term)) == node_id
    )


class TestKnownPeers:
    """An owner reaches the peers it already knows without a lookup; a
    membership change between two rounds is met as a lookup meets it."""

    def test_a_round_after_a_bulk_share_polls_without_a_lookup(self, micro) -> None:
        system = micro.build()
        system.bulk_share()
        system.register_queries(micro.train)
        recorded = polls(system.protocol)
        system.run_learning_iteration()
        assert len(recorded) == len(system.owners)
        for (results, failed, located), traffic in recorded:
            assert results and not failed and located
            assert MessageKind.LOOKUP not in traffic
            assert traffic[MessageKind.POLL_BATCH].hops == traffic[MessageKind.POLL_BATCH].messages

    def test_a_joiner_inside_a_known_peers_interval_takes_its_terms(self) -> None:
        ring, protocol, owner = stack()
        owner.share(DOC)  # zeta, alpha
        key = protocol.term_hash("zeta")
        known = ring.successor_of(key)
        assert known in owner.peers
        joiner = ring.join(node_id=key)  # (predecessor, key] is the joiner's now
        assert ring.successor_of(key) == joiner != known
        protocol.register_query(ring.live_ids[2], ("zeta", "beta"))
        seen, recorded = observing(owner), polls(protocol)
        owner.learn_all()
        [((__, failed, located), traffic)] = recorded
        assert not failed and joiner in located
        assert traffic[MessageKind.LOOKUP].messages == 1  # zeta's, to the joiner
        assert ("zeta", "beta") in seen["d1"]
        for term in owner.index_terms("d1"):
            node = ring.nodes[ring.successor_of(protocol.term_hash(term))]
            assert node.store[protocol.term_hash(term)].has_posting("d1"), term

    def test_a_known_peer_that_left_is_routed_around(self) -> None:
        ring, protocol, owner = stack()
        owner.share(DOC)
        key = protocol.term_hash("zeta")
        departed = ring.successor_of(key)
        assert departed in owner.peers and departed != owner.node_id
        ring.leave(departed)
        assert departed not in ring.nodes
        protocol.register_query(ring.live_ids[2], ("zeta", "beta"))
        seen, recorded = observing(owner), polls(protocol)
        owner.learn_all()  # no KeyError on the departed id
        [((__, failed, located), traffic)] = recorded
        assert not failed and ring.successor_of(key) in located
        assert traffic[MessageKind.LOOKUP].messages >= 1
        assert ("zeta", "beta") in seen["d1"]
        assert departed not in owner.peers

    def test_a_known_peer_that_crashed_fails_as_a_lookup_then_hands_over(self) -> None:
        ring, protocol, owner = stack()
        owner.share(DOC)
        key = protocol.term_hash("zeta")
        crashed = ring.successor_of(key)
        heir = ring.successor_of((crashed + 1) % ring.space.size)
        assert owner.node_id not in (crashed, heir)
        # The owner knows the crashed peer's successor too.
        owner.share(Document("d3", "rock sand"), first_terms=[term_at(ring, protocol, heir)])
        assert {crashed, heir} <= set(owner.peers)
        terms = [t for state in owner.shared.values() for t in state.index_terms]

        def lookup_fails(term: str) -> bool:
            try:
                ring.lookup(owner.node_id, protocol.term_hash(term))
            except NodeFailedError:
                return True
            return False

        ring.fail(crashed)
        recorded = polls(protocol)
        owner.learn_all(target_size=2)  # d1 keeps zeta and alpha
        [((__, failed, __), __)] = recorded
        assert failed == {t for t in terms if lookup_fails(t)} == {"zeta"}

        ring.stabilize()
        assert heir in owner.peers
        owner.learn_all(target_size=2)
        ((__, failed, located), traffic) = recorded[-1]
        assert not failed and heir in located
        assert MessageKind.LOOKUP not in traffic  # zeta absorbed into the heir
