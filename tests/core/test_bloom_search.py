"""Tests for Bloom-compressed conjunctive query processing."""

from __future__ import annotations

import pytest

from repro.config import ChordConfig
from repro.core.bloom_search import BloomQueryProcessor
from repro.core.indexer import IndexingProtocol
from repro.core.metadata import PostingEntry
from repro.corpus import Query
from repro.dht import ChordRing
from repro.dht.messages import MessageKind, wire_size


@pytest.fixture()
def ring() -> ChordRing:
    return ChordRing(ChordConfig(num_peers=16, id_bits=32, seed=97))


@pytest.fixture()
def protocol(ring: ChordRing) -> IndexingProtocol:
    return IndexingProtocol(ring)


@pytest.fixture()
def processor(protocol: IndexingProtocol) -> BloomQueryProcessor:
    return BloomQueryProcessor(protocol, assumed_corpus_size=1_000_000)


def publish(protocol, ring, term: str, doc_ids, tf: int = 2, length: int = 20) -> None:
    for doc_id in doc_ids:
        protocol.publish(
            ring.live_ids[0],
            term,
            PostingEntry(doc_id=doc_id, owner_peer=ring.live_ids[0], raw_tf=tf, doc_length=length),
        )


class TestConjunctiveSemantics:
    def test_intersection_only(self, processor, protocol, ring) -> None:
        publish(protocol, ring, "alpha", ["d1", "d2", "d3"])
        publish(protocol, ring, "beta", ["d2", "d3", "d4"])
        ranked, __ = processor.execute(ring.live_ids[1], Query("q", ("alpha", "beta")))
        assert set(ranked.ids()) == {"d2", "d3"}

    def test_empty_intersection(self, processor, protocol, ring) -> None:
        publish(protocol, ring, "alpha", ["d1"])
        publish(protocol, ring, "beta", ["d2"])
        ranked, execution = processor.execute(
            ring.live_ids[1], Query("q", ("alpha", "beta"))
        )
        assert len(ranked) == 0
        assert execution.candidates_after_chain <= 1  # FPs possible, tiny

    def test_single_term_passthrough(self, processor, protocol, ring) -> None:
        publish(protocol, ring, "solo", ["d1", "d2"])
        ranked, execution = processor.execute(ring.live_ids[1], Query("q", ("solo",)))
        assert set(ranked.ids()) == {"d1", "d2"}
        assert execution.bytes_shipped > 0

    def test_unindexed_query(self, processor, ring) -> None:
        ranked, execution = processor.execute(ring.live_ids[0], Query("q", ("ghost",)))
        assert len(ranked) == 0
        assert execution.naive_bytes == 0

    def test_three_way_intersection(self, processor, protocol, ring) -> None:
        publish(protocol, ring, "a", [f"d{i}" for i in range(20)])
        publish(protocol, ring, "b", [f"d{i}" for i in range(5, 20)])
        publish(protocol, ring, "c", ["d7", "d8", "d50"])
        ranked, __ = processor.execute(ring.live_ids[1], Query("q", ("a", "b", "c")))
        assert set(ranked.ids()) == {"d7", "d8"}


class TestCompression:
    def test_bloom_beats_naive_on_large_lists(self, processor, protocol, ring) -> None:
        """With big posting lists and a small intersection, shipping
        Bloom filters is much cheaper than shipping the lists."""
        big_a = [f"d{i}" for i in range(800)]
        big_b = [f"d{i}" for i in range(780, 1600)]
        publish(protocol, ring, "biga", big_a)
        publish(protocol, ring, "bigb", big_b)
        __, execution = processor.execute(ring.live_ids[1], Query("q", ("biga", "bigb")))
        assert execution.compression_ratio > 3.0

    def test_recall_preserved_despite_compression(self, processor, protocol, ring) -> None:
        """No true conjunctive answer is ever lost to the Bloom chain."""
        shared = [f"s{i}" for i in range(30)]
        publish(protocol, ring, "x", shared + [f"xa{i}" for i in range(200)])
        publish(protocol, ring, "y", shared + [f"ya{i}" for i in range(200)])
        ranked, __ = processor.execute(ring.live_ids[1], Query("q", ("x", "y")), top_k=None)
        assert set(ranked.ids()) == set(shared)

    def test_false_positives_filtered_from_ranking(self, processor, protocol, ring) -> None:
        """Even when the chain lets false positives through, the final
        ranking only contains true members of the intersection."""
        loose = BloomQueryProcessor(
            protocol, assumed_corpus_size=1_000_000, error_rate=0.3
        )
        publish(protocol, ring, "m", [f"d{i}" for i in range(100)])
        publish(protocol, ring, "n", [f"d{i}" for i in range(90, 200)])
        ranked, execution = loose.execute(ring.live_ids[1], Query("q", ("m", "n")))
        assert set(ranked.ids()) == {f"d{i}" for i in range(90, 100)}

    def test_the_filter_hop_is_its_own_kind_at_one_price(self, processor, protocol, ring) -> None:
        """The chain's filter hop used to travel as a SEARCH_TERM priced
        header + filter bytes, so that kind's byte total mixed two
        formulas.  It is a BLOOM_FILTER now, at the same price, and
        every SEARCH_TERM left is the one-term fetch request — one term,
        no version held yet, nothing registered.  The estimates price a
        POSTINGS reply as the read path sends one: its postings and one
        version per slot it answers."""
        publish(protocol, ring, "m", [f"d{i}" for i in range(100)])
        publish(protocol, ring, "n", [f"d{i}" for i in range(90, 200)])
        publish(protocol, ring, "o", [f"d{i}" for i in range(95, 300)])
        before = ring.stats.snapshot()
        __, execution = processor.execute(ring.live_ids[1], Query("q", ("m", "n", "o")))
        delta = ring.stats.delta_since(before)
        search, filters = delta[MessageKind.SEARCH_TERM], delta[MessageKind.BLOOM_FILTER]
        assert (search.messages, search.bytes) == (
            3, 3 * wire_size(MessageKind.SEARCH_TERM, 1, 0, 0, 0)
        )
        assert filters.messages == 2
        final_hop = wire_size(MessageKind.POSTINGS, 3 * execution.candidates_after_chain, 3, 0)
        assert execution.bytes_shipped == filters.bytes + final_hop
        assert execution.naive_bytes == sum(
            wire_size(MessageKind.POSTINGS, n, 1, 0) for n in (100, 110, 205)
        )
        assert execution.naive_bytes == delta[MessageKind.POSTINGS].bytes

    def test_invalid_error_rate(self, protocol) -> None:
        with pytest.raises(ValueError):
            BloomQueryProcessor(protocol, 1000, error_rate=1.5)


class TestRanking:
    def test_scores_consistent_with_lee_formula(self, processor, protocol, ring) -> None:
        publish(protocol, ring, "p", ["d1"], tf=8, length=16)
        publish(protocol, ring, "q", ["d1"], tf=4, length=16)
        ranked, __ = processor.execute(ring.live_ids[1], Query("qq", ("p", "q")))
        assert ranked.ids() == ["d1"]
        assert ranked[0].score > 0

    def test_top_k(self, processor, protocol, ring) -> None:
        docs = [f"d{i}" for i in range(30)]
        publish(protocol, ring, "u", docs)
        publish(protocol, ring, "v", docs)
        ranked = processor.search(ring.live_ids[1], Query("q", ("u", "v")), top_k=5)
        assert len(ranked) == 5
