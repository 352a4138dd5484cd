"""Tests for distributed query processing (paper Section 4)."""

from __future__ import annotations

import math

import pytest

from repro.config import ChordConfig
from repro.core.indexer import IndexingProtocol
from repro.core.metadata import PostingEntry, TermSlot
from repro.core.query_processing import QueryProcessor
from repro.corpus import Query
from repro.dht import ChordRing
from repro.ir.ranking import RankedList
from ..probes import ids, scores

ASSUMED_N = 1_000_000


@pytest.fixture()
def ring() -> ChordRing:
    return ChordRing(ChordConfig(num_peers=16, id_bits=32, seed=41))


@pytest.fixture()
def protocol(ring: ChordRing) -> IndexingProtocol:
    return IndexingProtocol(ring, query_cache_size=16)


@pytest.fixture()
def processor(protocol: IndexingProtocol) -> QueryProcessor:
    return QueryProcessor(protocol, assumed_corpus_size=ASSUMED_N)


def publish(protocol: IndexingProtocol, ring: ChordRing, term: str, doc: str, tf: int, length: int) -> None:
    protocol.publish(
        ring.live_ids[0],
        term,
        PostingEntry(doc_id=doc, owner_peer=ring.live_ids[0], raw_tf=tf, doc_length=length),
    )


class TestExecution:
    def test_single_term_ranking(self, processor, protocol, ring) -> None:
        publish(protocol, ring, "chord", "heavy", tf=8, length=16)
        publish(protocol, ring, "chord", "light", tf=1, length=16)
        ranked = processor.search(ring.live_ids[1], Query("q", ("chord",)))
        assert ids(ranked) == ["heavy", "light"]

    def test_similarity_matches_paper_formula(self, processor, protocol, ring) -> None:
        """sim = (w_Q · w_D) / sqrt(|D|) with w from the assumed-N IDF
        and indexed document frequency."""
        publish(protocol, ring, "chord", "d1", tf=4, length=16)
        ranked = processor.search(ring.live_ids[1], Query("q", ("chord",)))
        idf = math.log(ASSUMED_N / 1)           # indexed df = 1
        expected = (idf * (4 / 16) * idf) / math.sqrt(16)
        assert ranked[0].score == pytest.approx(expected)

    def test_multi_term_consolidation(self, processor, protocol, ring) -> None:
        publish(protocol, ring, "alpha", "both", tf=2, length=10)
        publish(protocol, ring, "beta", "both", tf=2, length=10)
        publish(protocol, ring, "alpha", "single", tf=2, length=10)
        ranked = processor.search(ring.live_ids[1], Query("q", ("alpha", "beta")))
        assert ranked.top_ids(1) == ["both"]

    def test_unindexed_terms_skipped(self, processor, ring) -> None:
        ranked, execution = processor.execute(
            ring.live_ids[0], Query("q", ("ghost",)), cache=False
        )
        assert len(ranked) == 0
        assert execution.terms_visited == 1
        assert execution.candidate_documents == 0

    def test_top_k_truncation(self, processor, protocol, ring) -> None:
        for i in range(6):
            publish(protocol, ring, "term", f"d{i}", tf=i + 1, length=20)
        ranked = processor.search(ring.live_ids[1], Query("q", ("term",)), top_k=3)
        assert len(ranked) == 3

    def test_scoring_builds_no_posting_objects(self, processor, protocol, ring) -> None:
        """Queries score from the slot's columnar view: a slot's first
        query must leave neither a PostingEntry list nor any other
        per-posting container behind (per-posting objects built inside a
        timed stream move the collector, see DESIGN §10)."""
        for i in range(6):
            publish(protocol, ring, "term", f"d{i}", tf=i + 1, length=20)
        processor.search(ring.live_ids[1], Query("q", ("term",)), top_k=3)
        processor.search(ring.live_ids[1], Query("q", ("term",)))
        slots = [
            slot
            for node_id in ring.live_ids
            for slot in ring.node(node_id).store.values()
            if isinstance(slot, TermSlot)
        ]
        assert len(slots) == 1
        view = slots[0]._scoring_view
        assert [len(column) for column in view] == [6, 6, 6]
        assert {type(x) for column in view for x in column} == {str, float}
        assert slots[0]._entries_view == []


    def test_weighting_is_per_term_not_per_posting(
        self, processor, protocol, ring, monkeypatch
    ) -> None:
        """Structural guard: IDF is a per-term constant.  One execute
        over a 500-posting slot may take it at most twice per scored
        term (query side, document side) — a logarithm per posting is
        what the read path used to spend a third of its time on."""
        from repro.ir import weighting

        for i in range(500):
            publish(protocol, ring, "hot", f"d{i:03d}", tf=1 + i % 7, length=40 + i)
        publish(protocol, ring, "rare", "d007", tf=2, length=47)
        calls = []
        idf = weighting.idf
        monkeypatch.setattr(
            weighting, "idf", lambda *args: calls.append(args) or idf(*args)
        )
        ranked, execution = processor.execute(
            ring.live_ids[1], Query("q", ("hot", "rare", "ghost")), top_k=20
        )
        assert execution.postings_retrieved == 501 and len(ranked) == 20
        scored_terms = 2  # "ghost" has no postings and is never weighted
        assert 0 < len(calls) <= 2 * scored_terms
        assert {df for __, df in calls} == {500, 1}

    def test_a_ranking_is_per_slot_version_not_per_query(
        self, processor, protocol, ring, monkeypatch
    ) -> None:
        """Structural guard, one rung up: a repeated query over unchanged
        slots neither reads a scoring view nor ranks — it takes the
        ranking the querying peer holds — and one posting published to
        one of its terms makes the next execution score again."""
        for i in range(50):
            publish(protocol, ring, "hot", f"d{i:03d}", tf=1 + i % 7, length=40 + i)
        publish(protocol, ring, "rare", "d007", tf=2, length=47)
        query, issuer = Query("q", ("hot", "rare", "ghost")), ring.live_ids[1]
        first, __ = processor.execute(issuer, query, top_k=20)

        calls = []
        scoring_view, top_k = TermSlot.scoring_view, RankedList.top_k
        monkeypatch.setattr(
            TermSlot, "scoring_view", lambda slot: calls.append("view") or scoring_view(slot)
        )
        monkeypatch.setattr(
            RankedList,
            "top_k",
            classmethod(lambda cls, scored, k: calls.append("rank") or top_k(scored, k)),
        )
        again, execution = processor.execute(issuer, query, top_k=20)
        assert calls == [] and execution.ranking_reused
        assert again is first and execution.candidate_documents == 50

        publish(protocol, ring, "rare", "d999", tf=5, length=10)
        changed, execution = processor.execute(issuer, query, top_k=20)
        assert calls.count("view") == 2 and calls.count("rank") == 1
        assert not execution.ranking_reused and changed.top_ids(1) == ["d999"]


class TestQueryCachingSideChannel:
    def test_search_registers_query(self, processor, protocol, ring) -> None:
        processor.search(ring.live_ids[0], Query("q", ("alpha", "beta")), cache=True)
        for term in ("alpha", "beta"):
            slot = protocol.slot_snapshot(term)
            assert slot is not None and len(slot.cache) == 1

    def test_cache_false_leaves_no_trace(self, processor, protocol, ring) -> None:
        processor.search(ring.live_ids[0], Query("q", ("alpha",)), cache=False)
        slot = protocol.slot_snapshot("alpha")
        assert slot is None or len(slot.cache) == 0


class TestFailureDegradation:
    def test_failed_term_dropped_not_fatal(self, processor, protocol, ring) -> None:
        """Section 7 option 1: when a term's peer is down, the term is
        discarded from the ranked-list computation."""
        publish(protocol, ring, "alive", "d1", tf=3, length=9)
        publish(protocol, ring, "dead", "d2", tf=3, length=9)
        victim = ring.successor_of(protocol.term_hash("dead"))
        ring.fail(victim)
        issuer = next(n for n in ring.live_ids if n != victim)
        ranked, execution = processor.execute(
            issuer, Query("q", ("alive", "dead")), cache=False
        )
        assert execution.terms_failed == 1
        assert execution.dropped_terms == ["dead"]
        assert ids(ranked) == ["d1"]

    def test_all_terms_failed_empty_answer(self, processor, protocol, ring) -> None:
        publish(protocol, ring, "gone", "d1", tf=1, length=5)
        victim = ring.successor_of(protocol.term_hash("gone"))
        ring.fail(victim)
        issuer = next(n for n in ring.live_ids if n != victim)
        ranked, execution = processor.execute(issuer, Query("q", ("gone",)), cache=False)
        assert len(ranked) == 0
        assert execution.terms_failed == 1


class TestDocumentFrequencyOverride:
    def test_override_changes_weights(self, protocol, ring) -> None:
        """The ablation hook substitutes true document frequencies: a
        much larger df shrinks the score."""
        publish(protocol, ring, "term", "d1", tf=2, length=10)
        plain = QueryProcessor(protocol, assumed_corpus_size=ASSUMED_N)
        overridden = QueryProcessor(
            protocol,
            assumed_corpus_size=ASSUMED_N,
            document_frequency_override={"term": 5000},
        )
        q = Query("q", ("term",))
        score_plain = scores(plain.search(ring.live_ids[1], q, cache=False))["d1"]
        score_over = scores(overridden.search(ring.live_ids[1], q, cache=False))["d1"]
        assert score_over < score_plain

    def test_override_missing_term_falls_back(self, protocol, ring) -> None:
        publish(protocol, ring, "other", "d1", tf=2, length=10)
        overridden = QueryProcessor(
            protocol,
            assumed_corpus_size=ASSUMED_N,
            document_frequency_override={"unrelated": 7},
        )
        ranked = overridden.search(ring.live_ids[1], Query("q", ("other",)), cache=False)
        assert ids(ranked) == ["d1"]


class TestIndexedDocumentFrequency:
    def test_idf_uses_indexed_df_not_true_df(self, processor, protocol, ring) -> None:
        """Two terms with equal TF in one doc: the one indexed by more
        documents gets the smaller weight — n'_k drives IDF."""
        publish(protocol, ring, "rare", "target", tf=2, length=10)
        publish(protocol, ring, "common", "target", tf=2, length=10)
        for i in range(8):
            publish(protocol, ring, "common", f"filler{i}", tf=1, length=10)
        ranked_rare = processor.search(ring.live_ids[1], Query("q1", ("rare",)), cache=False)
        ranked_common = processor.search(ring.live_ids[1], Query("q2", ("common",)), cache=False)
        assert scores(ranked_rare)["target"] > scores(ranked_common)["target"]
