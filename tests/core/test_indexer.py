"""Tests for the indexing-peer protocol."""

from __future__ import annotations

import pytest

from repro.config import ChordConfig
from repro.core.indexer import IndexingProtocol
from repro.core.metadata import PostingEntry
from repro.dht import ChordRing, MessageKind
from repro.exceptions import NodeFailedError


@pytest.fixture()
def ring() -> ChordRing:
    return ChordRing(ChordConfig(num_peers=16, id_bits=32, seed=13))


@pytest.fixture()
def protocol(ring: ChordRing) -> IndexingProtocol:
    return IndexingProtocol(ring, query_cache_size=8)


def posting(doc_id: str = "d1", tf: int = 3, length: int = 30) -> PostingEntry:
    return PostingEntry(doc_id=doc_id, owner_peer=0, raw_tf=tf, doc_length=length)


class TestHashing:
    def test_term_hash_memoized_and_stable(self, protocol: IndexingProtocol, ring: ChordRing) -> None:
        assert protocol.term_hash("chord") == ring.space.hash_key("chord")
        assert protocol.term_hash("chord") == protocol.term_hash("chord")

    def test_query_hash_order_invariant(self, protocol: IndexingProtocol) -> None:
        assert protocol.query_hash(("b", "a")) == protocol.query_hash(("a", "b"))

    def test_query_hash_differs_from_terms(self, protocol: IndexingProtocol) -> None:
        assert protocol.query_hash(("a", "b")) != protocol.query_hash(("a",))


class TestPublish:
    def test_publish_places_posting_at_responsible_peer(
        self, protocol: IndexingProtocol, ring: ChordRing
    ) -> None:
        owner = ring.live_ids[0]
        protocol.publish(owner, "chord", posting())
        slot = protocol.slot_snapshot("chord")
        assert slot is not None
        assert slot.get_posting("d1").raw_tf == 3
        holder = ring.successor_of(protocol.term_hash("chord"))
        assert ring.node(holder).get(protocol.term_hash("chord")) is slot

    def test_publish_counts_traffic(self, protocol: IndexingProtocol, ring: ChordRing) -> None:
        protocol.publish(ring.live_ids[0], "chord", posting())
        assert ring.stats.kind(MessageKind.PUBLISH_TERM).messages == 1
        assert ring.stats.kind(MessageKind.LOOKUP).messages == 1

    def test_indexed_document_frequency(self, protocol: IndexingProtocol, ring: ChordRing) -> None:
        owner = ring.live_ids[0]
        protocol.publish(owner, "chord", posting("d1"))
        protocol.publish(owner, "chord", posting("d2"))
        assert protocol.indexed_document_frequency("chord") == 2
        assert protocol.indexed_document_frequency("never") == 0


class TestUnpublish:
    def test_unpublish_removes_posting(self, protocol: IndexingProtocol, ring: ChordRing) -> None:
        owner = ring.live_ids[0]
        protocol.publish(owner, "chord", posting("d1"))
        assert protocol.unpublish(owner, "chord", "d1") is True
        assert protocol.indexed_document_frequency("chord") == 0

    def test_unpublish_missing_is_false(self, protocol: IndexingProtocol, ring: ChordRing) -> None:
        assert protocol.unpublish(ring.live_ids[0], "ghost", "d1") is False


class TestRegisterQuery:
    def test_cached_at_every_term_peer(self, protocol: IndexingProtocol, ring: ChordRing) -> None:
        issuer = ring.live_ids[0]
        count = protocol.register_query(issuer, ("alpha", "beta"))
        assert count == 2
        for term in ("alpha", "beta"):
            slot = protocol.slot_snapshot(term)
            assert slot is not None
            assert len(slot.cache) == 1

    def test_cache_respects_capacity(self, protocol: IndexingProtocol, ring: ChordRing) -> None:
        issuer = ring.live_ids[0]
        for i in range(20):
            protocol.register_query(issuer, (f"term{i}", "shared"))
        slot = protocol.slot_snapshot("shared")
        assert len(slot.cache) == 8  # capacity


class TestFetchPostings:
    def test_roundtrip(self, protocol: IndexingProtocol, ring: ChordRing) -> None:
        owner = ring.live_ids[0]
        protocol.publish(owner, "chord", posting("d1"))
        postings, df = protocol.fetch_postings(ring.live_ids[1], "chord")
        assert df == 1
        assert postings[0].doc_id == "d1"

    def test_unindexed_term_empty(self, protocol: IndexingProtocol, ring: ChordRing) -> None:
        postings, df = protocol.fetch_postings(ring.live_ids[0], "nothing")
        assert postings == [] and df == 0

    def test_failed_peer_raises(self, protocol: IndexingProtocol, ring: ChordRing) -> None:
        owner = ring.live_ids[0]
        protocol.publish(owner, "chord", posting("d1"))
        responsible = ring.successor_of(protocol.term_hash("chord"))
        ring.fail(responsible)
        issuer = next(n for n in ring.live_ids if n != responsible)
        with pytest.raises(NodeFailedError):
            protocol.fetch_postings(issuer, "chord")

    def test_traffic_recorded(self, protocol: IndexingProtocol, ring: ChordRing) -> None:
        owner = ring.live_ids[0]
        protocol.publish(owner, "chord", posting("d1"))
        protocol.fetch_postings(ring.live_ids[1], "chord")
        assert ring.stats.kind(MessageKind.SEARCH_TERM).messages == 1
        assert ring.stats.kind(MessageKind.POSTINGS).messages == 1


class TestPollDeduplication:
    """The Section 3 closest-hash rule: a query cached at several of a
    document's index-term peers is returned by exactly one of them."""

    def _hashes(self, protocol: IndexingProtocol, terms) -> dict:
        return {t: protocol.term_hash(t) for t in terms}

    def test_query_returned_exactly_once(self, protocol: IndexingProtocol, ring: ChordRing) -> None:
        issuer = ring.live_ids[0]
        owner = ring.live_ids[1]
        index_terms = ("alpha", "beta", "gamma")
        protocol.register_query(issuer, ("alpha", "beta"))
        hashes = self._hashes(protocol, index_terms)
        total = []
        for term in index_terms:
            fresh, __ = protocol.poll_term(owner, term, hashes, since=-1)
            total.extend(fresh)
        assert len(total) == 1
        assert total[0].terms == ("alpha", "beta")

    def test_dedup_respects_query_membership(self, protocol: IndexingProtocol, ring: ChordRing) -> None:
        """A query not containing the globally closest index term must
        still be returned — by the closest term it DOES contain."""
        issuer = ring.live_ids[0]
        owner = ring.live_ids[1]
        protocol.register_query(issuer, ("beta",))
        hashes = self._hashes(protocol, ("alpha", "beta"))
        collected = []
        for term in ("alpha", "beta"):
            fresh, __ = protocol.poll_term(owner, term, hashes, since=-1)
            collected.extend(fresh)
        assert len(collected) == 1

    def test_since_cursor_advances(self, protocol: IndexingProtocol, ring: ChordRing) -> None:
        issuer, owner = ring.live_ids[0], ring.live_ids[1]
        protocol.register_query(issuer, ("solo",))
        hashes = self._hashes(protocol, ("solo",))
        first, latest = protocol.poll_term(owner, "solo", hashes, since=-1)
        assert len(first) == 1
        again, __ = protocol.poll_term(owner, "solo", hashes, since=latest)
        assert again == []

    def test_poll_unindexed_term(self, protocol: IndexingProtocol, ring: ChordRing) -> None:
        fresh, latest = protocol.poll_term(
            ring.live_ids[0], "ghost", {"ghost": protocol.term_hash("ghost")}, since=-1
        )
        assert fresh == [] and latest == -1

    def test_poll_of_a_term_without_a_slot_is_answered(
        self, protocol: IndexingProtocol, ring: ChordRing
    ) -> None:
        """A request gets its reply (§11): the peer answers an empty
        QUERY_BATCH, so under loss this term can fail on the reply leg
        like any other."""
        protocol.poll_term(
            ring.live_ids[0], "ghost", {"ghost": protocol.term_hash("ghost")}, since=-1
        )
        assert ring.stats.kind(MessageKind.POLL_QUERIES).messages == 1
        replies = ring.stats.kind(MessageKind.QUERY_BATCH)
        assert (replies.messages, replies.bytes) == (1, 16)

    def test_poll_ships_every_candidate_and_the_owner_keeps_the_closest(
        self, protocol: IndexingProtocol, ring: ChordRing
    ) -> None:
        """The peer answers every query cached since the cursor; the §3
        rule runs on the owner's side of the reply."""
        issuer, owner = ring.live_ids[0], ring.live_ids[1]
        protocol.register_query(issuer, ("alpha", "beta"))
        hashes = self._hashes(protocol, ("alpha", "beta"))
        closest = ring.space.closest_term_to_key(
            protocol.query_hash(("alpha", "beta")), ("alpha", "beta"), hashes
        )
        other = "beta" if closest == "alpha" else "alpha"
        fresh, latest = protocol.poll_term(owner, other, hashes, since=-1)
        assert fresh == [] and latest == 0
        # The duplicate was shipped all the same: 16 + 16 + 2·8.
        assert ring.stats.kind(MessageKind.QUERY_BATCH).bytes == 48
        fresh, __ = protocol.poll_term(owner, closest, hashes, since=-1)
        assert [c.terms for c in fresh] == [("alpha", "beta")]

    def test_poll_traffic_recorded(self, protocol: IndexingProtocol, ring: ChordRing) -> None:
        issuer, owner = ring.live_ids[0], ring.live_ids[1]
        protocol.register_query(issuer, ("solo",))
        protocol.poll_term(owner, "solo", self._hashes(protocol, ("solo",)), since=-1)
        assert ring.stats.kind(MessageKind.POLL_QUERIES).messages == 1
        assert ring.stats.kind(MessageKind.QUERY_BATCH).messages == 1

    def test_query_batch_reply_counts_queries_and_their_terms(
        self, protocol: IndexingProtocol, ring: ChordRing
    ) -> None:
        """Three queries of 3 + 3 + 2 terms: 16 + 3·16 + 8·8 = 128.
        Priced from their mean length (8/3, a float) it read 127."""
        issuer, owner = ring.live_ids[0], ring.live_ids[1]
        for query in (("solo", "a", "b"), ("solo", "c", "d"), ("solo", "e")):
            protocol.register_query(issuer, query)
        fresh, __ = protocol.poll_term(
            owner, "solo", self._hashes(protocol, ("solo",)), since=-1
        )
        assert len(fresh) == 3
        assert ring.stats.kind(MessageKind.QUERY_BATCH).bytes == 128
