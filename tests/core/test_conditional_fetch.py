"""What a held slot version and a held ranking mean, at the edges.

A querying peer keeps the slot version of every posting list it has been
sent (``ChordNode.held_versions``) and names it when it asks for the
term again; the indexing peer answers an unchanged slot with its version
alone.  Slot versions come from one process-global counter, drawn on
every mutation and kept by replica copies, so an equal version is the
identical list.  It also keeps the ranking it last computed per query
(``ChordNode.held_rankings``) and reuses it while every fetched slot is
at the version it was ranked from.

That both move bytes and nothing else is two rows of the twin table
(``always_ship`` and ``forget_rankings`` in ``tests/twins.py``).  Here:
a replica promoted after a crash is withheld, a slot restored from a
SQLite snapshot is re-sent, a lost reply moves nothing; what a held
ranking is keyed on; and both maps' bounds and lifetimes.
"""

from __future__ import annotations

import pytest

from repro.config import ChordConfig
from repro.core import indexer, query_processing
from repro.core.indexer import HELD_VERSIONS, IndexingProtocol
from repro.core.metadata import PostingEntry
from repro.core.query_processing import QueryProcessor
from repro.core.system import SpriteSystem
from repro.corpus.relevance import Query
from repro.dht import ChordRing
from repro.dht.messages import MessageKind, wire_size
from repro.dht.replication import ReplicationManager
from repro.exceptions import NodeFailedError
from repro.store import RecoveryManager

from ..twins import Wire, always_ship, assert_agree, pairs, read_delta
from .legacy_executor import execute_legacy
from .test_fused_visit import DropKinds
from .test_topk_equivalence import _RawQuery


def remote_indexed_term(system: SpriteSystem, queries):
    """``(query, issuer, term, indexing peer)`` for the first indexed
    term of *queries* whose indexing peer is not the issuer of its query."""
    for query in queries:
        issuer = system._issuer_for(query)
        for term in query.terms:
            peer = system.ring.successor_of(system.protocol.term_hash(term))
            if peer != issuer and system.protocol.indexed_document_frequency(term) > 0:
                return query, issuer, term, peer
    raise AssertionError("no indexed term away from its issuer")


class TestWhatAHeldVersionMeans:
    def test_a_promoted_replica_is_withheld_and_ranks_as_for_a_fresh_issuer(
        self, micro
    ) -> None:
        default, shipped = micro.build(), always_ship(micro.build())
        wire = Wire(default.protocol)
        rankings = []
        for system in (default, shipped):
            system.bulk_share()
            replication = ReplicationManager(system.ring)
            replication.replicate_round()
            first = [pairs(system.search(q, cache=False)) for q in micro.test]
            # Crash the indexing peer of a term some other peer asked for.
            __, issuer, term, victim = remote_indexed_term(system, micro.test)
            system.ring.fail(victim)
            replication.recover_from_failures()
            key = system.protocol.term_hash(term)
            promoted = system.ring.responsible_node(key).store[key]
            if system is default:
                assert system.ring.nodes[issuer].held_versions[term] == promoted.version
                wire.not_modified.clear()
            again = [pairs(system.search(q, cache=False)) for q in micro.test]
            assert again == first
            rankings.append(again)
        assert wire.not_modified[term] >= 1
        assert rankings[0] == rankings[1]
        assert_agree(default, shipped, read_delta(wire))

    def test_a_snapshot_rejoin_reships_the_slots_it_restored(self, micro) -> None:
        system = micro.build({"sprite": {"store_backend": "sqlite"}})
        runtime = system.store_runtime
        try:
            ring, protocol = system.ring, system.protocol
            wire = Wire(protocol)
            system.bulk_share()
            runtime.flush_retired()
            for node_id in ring.live_ids:
                runtime.snapshots.save_peer(ring.node(node_id))
            query, issuer, term, victim = remote_indexed_term(system, micro.test)
            first = pairs(system.search(query, cache=False))
            held = ring.nodes[issuer].held_versions[term]
            # No replica: the crash takes the slot out of the ring, and
            # the rejoin rebuilds it from the snapshot under a new version.
            ring.fail(victim)
            ring.stabilize()
            report = RecoveryManager(ring, runtime).recover_peer(victim)
            assert report.slots_restored > 0
            restored = protocol.slot_snapshot(term)
            assert restored.version != held
            wire.not_modified.clear()
            withheld = wire.withheld
            assert pairs(system.search(query, cache=False)) == first
            assert term not in wire.not_modified
            assert ring.nodes[issuer].held_versions[term] == restored.version
            # The query's other terms did not move: withheld, the
            # restored one re-sent.
            assert wire.withheld - withheld == sum(
                protocol.indexed_document_frequency(t)
                for t in dict.fromkeys(query.terms)
                if t != term and ring.successor_of(protocol.term_hash(t)) != victim
            )
        finally:
            runtime.close()

    def test_a_query_seen_once_pays_a_version_per_slot_and_a_repeat_only_versions(self) -> None:
        """The registering fetch ``execute`` sends: the first time, the
        postings plus one version per slot answered, and the keyword
        tuple in every request; from the same peer again, one more
        version per term in the requests and versions alone back."""
        ring, protocol = small_stack()
        processor = QueryProcessor(protocol, assumed_corpus_size=1000)
        query = Query("q", ("kw1", "kw3", "kw5", "ghost"))
        traffic, rankings = [], []
        for __ in range(2):
            before = ring.stats.snapshot()
            ranked, __ = processor.execute(ring.live_ids[3], query)
            traffic.append(ring.stats.delta_since(before))
            rankings.append(pairs(ranked))
        (first, again), (search, reply) = traffic, (MessageKind.SEARCH_TERM, MessageKind.POSTINGS)
        n = first[search].messages
        assert n == first[reply].messages == again[search].messages == again[reply].messages
        assert first[search].bytes == 16 * n + 8 * 4 + 8 * 4 * n
        assert first[reply].bytes == 16 * n + 24 * (2 + 4 + 6) + 8 * 4
        assert again[search].bytes == first[search].bytes + 8 * 4
        assert again[reply].bytes == 16 * n + 8 * 4
        assert rankings[0] == rankings[1] and rankings[0]

    def test_a_lost_reply_leaves_the_held_version_where_it_was(self) -> None:
        transport = DropKinds()
        ring = ChordRing(ChordConfig(num_peers=16, seed=5), transport=transport)
        protocol = IndexingProtocol(ring)
        owner, issuer = ring.live_ids[0], ring.live_ids[1]
        term = next(
            f"kw{i}" for i in range(100)
            if ring.successor_of(protocol.term_hash(f"kw{i}")) != issuer
        )
        protocol.publish(owner, term, PostingEntry("d1", owner, 2, 40))
        protocol.fetch_postings(issuer, term)
        held = ring.nodes[issuer].held_versions
        before = held[term]
        protocol.publish(owner, term, PostingEntry("d2", owner, 3, 50))

        transport.kinds = frozenset({MessageKind.POSTINGS})
        with pytest.raises(NodeFailedError):
            protocol.fetch_postings(issuer, term)
        assert held[term] == before  # the peer answered; the issuer never heard
        __, failed = protocol.fetch_postings_batch(issuer, ["never-sent"])
        assert failed == ["never-sent"] and "never-sent" not in held

        transport.kinds = frozenset()
        replies = ring.stats.kind(MessageKind.POSTINGS).bytes
        postings, df = protocol.fetch_postings(issuer, term)
        assert [p.doc_id for p in postings] == ["d1", "d2"] and df == 2
        # Still named the version before d2, so the answer is the diff
        # from it: d2 alone.
        assert ring.stats.kind(MessageKind.POSTINGS).bytes - replies == wire_size(
            MessageKind.POSTINGS, 1, 1, 0
        )
        assert held[term] == protocol.slot_snapshot(term).version != before


def small_stack(seed: int = 5):
    ring = ChordRing(ChordConfig(num_peers=16, seed=seed))
    protocol = IndexingProtocol(ring)
    owner = ring.live_ids[0]
    for i in range(6):
        for d in range(i + 1):
            protocol.publish(owner, f"kw{i}", PostingEntry(f"d{d}", owner, 2, 30 + d))
    return ring, protocol


def reply_bytes(ring, fetch) -> int:
    """POSTINGS bytes delivered while *fetch* runs."""
    before = ring.stats.kind(MessageKind.POSTINGS).bytes
    fetch()
    return ring.stats.kind(MessageKind.POSTINGS).bytes - before


class TestTheHeldMapIsBoundedAndDiesWithItsPeer:
    def test_a_stream_of_distinct_terms_never_grows_it_past_the_bound(self) -> None:
        ring, protocol = small_stack()
        issuer = ring.live_ids[3]
        terms = [f"stream{i:05d}" for i in range(HELD_VERSIONS + 200)]
        for start in range(0, len(terms), 32):
            protocol.fetch_postings_batch(issuer, terms[start : start + 32])
            assert len(ring.nodes[issuer].held_versions) <= HELD_VERSIONS
        # First in, first out, batch by batch (a batch records its terms
        # in the order its peers answered): the 200 terms recorded first
        # are the first six batches of 32 and 8 terms of the seventh.
        held = ring.nodes[issuer].held_versions
        assert len(held) == HELD_VERSIONS
        assert not held.keys() & set(terms[: 6 * 32])
        assert held.keys() >= set(terms[7 * 32 :])

    def test_an_evicted_term_only_costs_a_reship(self, monkeypatch) -> None:
        monkeypatch.setattr(indexer, "HELD_VERSIONS", 3)
        ring, protocol = small_stack()
        issuer = ring.live_ids[3]
        first = {f"kw{i}": protocol.fetch_postings(issuer, f"kw{i}") for i in range(2, 6)}
        held = ring.nodes[issuer].held_versions
        assert list(held) == ["kw3", "kw4", "kw5"]
        # kw2 (three postings) was evicted: sent again in full, same answer.
        result = []
        assert reply_bytes(ring, lambda: result.append(protocol.fetch_postings(issuer, "kw2"))) == (
            wire_size(MessageKind.POSTINGS, 3, 1, 0)
        )
        assert result == [first["kw2"]]
        # kw5 is still held: its version alone.
        assert reply_bytes(ring, lambda: result.append(protocol.fetch_postings(issuer, "kw5"))) == (
            wire_size(MessageKind.POSTINGS, 0, 1, 0)
        )
        assert result[1] == first["kw5"]
        assert len(held) == 3

    def test_an_issuer_that_crashes_and_rejoins_starts_with_an_empty_map(self) -> None:
        ring, protocol = small_stack()
        issuer = next(
            n for n in ring.live_ids
            if n != ring.live_ids[0]
            and n != ring.successor_of(protocol.term_hash("kw4"))
        )
        protocol.fetch_postings(issuer, "kw4")
        assert reply_bytes(ring, lambda: protocol.fetch_postings(issuer, "kw4")) == (
            wire_size(MessageKind.POSTINGS, 0, 1, 0)
        )
        ring.fail(issuer)
        ring.stabilize()
        ring.join(node_id=issuer)
        assert ring.nodes[issuer].held_versions is None
        assert reply_bytes(ring, lambda: protocol.fetch_postings(issuer, "kw4")) == (
            wire_size(MessageKind.POSTINGS, 5, 1, 0)
        )

    def test_registering_alone_holds_nothing(self) -> None:
        """The register-only paths send no message and rank nothing, so
        they learn no version, hold no ranking and allocate no map."""
        ring, protocol = small_stack()
        protocol.register_query(ring.live_ids[3], ("kw1", "kw2"))
        protocol.register_query_observing(ring.live_ids[3], ("kw1", "kw2"))
        for node in ring.nodes.values():
            assert "held_versions" not in vars(node) and "held_rankings" not in vars(node)


def scored_issuer(ring, protocol, terms) -> int:
    """A peer that neither published the small stack nor indexes *terms*."""
    indexing = {ring.successor_of(protocol.term_hash(t)) for t in terms}
    return next(n for n in ring.live_ids[1:] if n not in indexing)


class TestWhatAHeldRankingIsKeyedOn:
    """A held ranking is reused only for the same keyword tuple, ``top_k``,
    N and slot versions, a failed term marked failed.  Each case is one a
    narrower key gets wrong; in each, every answer is the reference
    executor's, score bits included."""

    @staticmethod
    def reused(processor, issuer, query, top_k=20) -> bool:
        ranked, execution = processor.execute(issuer, query, top_k=top_k, cache=False)
        expected, reference = execute_legacy(processor, issuer, query, top_k=top_k, cache=False)
        assert pairs(ranked) == pairs(expected)
        assert execution.dropped_terms == reference.dropped_terms
        assert execution.candidate_documents == reference.candidate_documents
        return execution.ranking_reused

    def test_two_processors_with_different_n_on_one_ring(self) -> None:
        ring, protocol = small_stack()
        query = Query("q", ("kw2", "kw4"))
        issuer = scored_issuer(ring, protocol, query.terms)
        small, large = QueryProcessor(protocol, 1000), QueryProcessor(protocol, 1_000_000)
        runs = [self.reused(p, issuer, query) for p in (small, large, small, large)]
        assert runs == [False, False, True, True]

    def test_an_override_or_an_unbounded_top_k_always_scores_and_holds_nothing(self) -> None:
        ring, protocol = small_stack()
        query = Query("q", ("kw2", "kw4"))
        issuer = scored_issuer(ring, protocol, query.terms)
        plain = QueryProcessor(protocol, 1000)
        override = QueryProcessor(protocol, 1000, document_frequency_override={"kw2": 40})
        assert [self.reused(override, issuer, query) for __ in range(2)] == [False, False]
        assert [self.reused(plain, issuer, query, top_k=None) for __ in range(2)] == [False] * 2
        assert ring.nodes[issuer].held_rankings is None
        runs = [self.reused(p, issuer, query) for p in (plain, override, plain)]
        assert runs == [False, False, True]

    def test_the_same_keywords_in_another_order(self) -> None:
        ring, protocol = small_stack()
        processor = QueryProcessor(protocol, 1000)
        forward = _RawQuery("q", ("kw1", "kw3", "kw5"))
        backward = _RawQuery("q", ("kw5", "kw3", "kw1"))
        issuer = scored_issuer(ring, protocol, forward.terms)
        runs = [self.reused(processor, issuer, q) for q in (forward, backward, forward, backward)]
        assert runs == [False, False, True, True]

    def test_another_top_k(self) -> None:
        ring, protocol = small_stack()
        processor = QueryProcessor(protocol, 1000)
        query = Query("q", ("kw3", "kw5"))
        issuer = scored_issuer(ring, protocol, query.terms)
        runs = [self.reused(processor, issuer, query, top_k=k) for k in (3, 5, 3, 5)]
        assert runs == [False, False, True, True]

    def test_a_dropped_term_scores_again_and_is_held_as_dropped(self) -> None:
        """Every list that did arrive is unchanged, so a key on what the
        fetch did *not* modify would serve the ranking that still had the
        lost term in it."""
        ring, protocol = small_stack()
        processor = QueryProcessor(protocol, 1000)
        query = Query("q", ("kw2", "kw5"))
        issuer = scored_issuer(ring, protocol, query.terms)
        victim = ring.successor_of(protocol.term_hash("kw5"))
        assert victim != ring.successor_of(protocol.term_hash("kw2"))
        assert [self.reused(processor, issuer, query) for __ in range(2)] == [False, True]
        ring.fail(victim)
        assert [self.reused(processor, issuer, query) for __ in range(2)] == [False, True]
        __, execution = processor.execute(issuer, query, top_k=20, cache=False)
        assert execution.dropped_terms == ["kw5"] and execution.ranking_reused

    def test_one_publish_to_one_query_term(self) -> None:
        ring, protocol = small_stack()
        processor = QueryProcessor(protocol, 1000)
        query = Query("q", ("kw1", "kw3", "kw5"))
        issuer = scored_issuer(ring, protocol, query.terms)
        assert [self.reused(processor, issuer, query) for __ in range(2)] == [False, True]
        owner = ring.live_ids[0]
        protocol.publish(owner, "kw3", PostingEntry("fresh", owner, 9, 10))
        assert [self.reused(processor, issuer, query) for __ in range(2)] == [False, True]
        assert processor.search(issuer, query, top_k=20).top_ids(1) == ["fresh"]

    def test_an_issuer_that_crashes_and_rejoins_starts_empty(self) -> None:
        ring, protocol = small_stack()
        processor = QueryProcessor(protocol, 1000)
        query = Query("q", ("kw4",))
        issuer = scored_issuer(ring, protocol, query.terms)
        assert [self.reused(processor, issuer, query) for __ in range(2)] == [False, True]
        ring.fail(issuer)
        ring.stabilize()
        ring.join(node_id=issuer)
        assert ring.nodes[issuer].held_rankings is None
        assert [self.reused(processor, issuer, query) for __ in range(2)] == [False, True]

    def test_the_map_is_first_in_first_out_at_its_bound(self, monkeypatch) -> None:
        monkeypatch.setattr(query_processing, "HELD_RANKINGS", 3)
        ring, protocol = small_stack()
        processor = QueryProcessor(protocol, 1000)
        queries = [Query(f"q{i}", (f"kw{i}",)) for i in range(1, 5)]
        issuer = scored_issuer(ring, protocol, [q.terms[0] for q in queries])
        assert not any(self.reused(processor, issuer, q) for q in queries)
        held = ring.nodes[issuer].held_rankings
        assert [terms for terms, __, __ in held] == [("kw2",), ("kw3",), ("kw4",)]
        assert not self.reused(processor, issuer, queries[0])  # evicted: scored again
        assert self.reused(processor, issuer, queries[3])
        assert len(held) == 3
