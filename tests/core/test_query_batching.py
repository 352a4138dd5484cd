"""Equivalence of the optimized query path (ISSUE 2).

Two independent claims, each load-bearing for the perf layer:

* **batched ≡ legacy** — ``QueryProcessor.execute`` (per-peer merged
  fetches + one-pass flat-dict scoring) returns bit-identical ranked
  lists to the seed executor kept in ``tests/core/legacy_executor.py``
  (per-term fetches + nested-dict scoring), including under peer
  failures, while sending no more SEARCH/POSTINGS messages and routing
  to each term once instead of twice;
* **cache-on ≡ cache-off** (satellite) — with the route cache enabled
  vs disabled, identical rankings *and* identical per-kind
  ``NetworkStats`` message counts under the perfect transport, across a
  churning ring.
"""

from __future__ import annotations

import random

import pytest

from repro.config import ChordConfig
from repro.core.indexer import IndexingProtocol
from repro.core.metadata import PostingEntry
from repro.core.query_processing import QueryProcessor
from repro.corpus.relevance import Query
from repro.dht.messages import MessageKind
from repro.dht.ring import ChordRing

from .legacy_executor import execute_legacy

VOCAB = [f"kw{i:03d}" for i in range(40)]


def build_stack(route_cache: int = 65536, seed: int = 7):
    ring = ChordRing(
        ChordConfig(num_peers=64, seed=seed, route_cache_size=route_cache)
    )
    protocol = IndexingProtocol(ring)
    processor = QueryProcessor(protocol, assumed_corpus_size=10_000)
    rng = random.Random(seed)
    for d in range(30):
        doc_id = f"d{d:03d}"
        owner = ring.random_live_id(rng)
        length = 50 + 7 * d
        for term in sorted(rng.sample(VOCAB, 6)):
            protocol.publish(
                owner,
                term,
                PostingEntry(doc_id, owner, rng.randint(1, 9), length),
            )
    return ring, protocol, processor


def query_stream(count: int = 40, seed: int = 23):
    rng = random.Random(seed)
    queries = []
    for i in range(count):
        k = rng.randint(1, 3)
        queries.append(Query(f"q{i:03d}", tuple(sorted(rng.sample(VOCAB, k)))))
    return queries


def run_stream(ring, processor, queries, churn=False, execute=QueryProcessor.execute):
    """Run *queries* through ``processor.execute`` — or, given
    ``execute=execute_legacy``, through the seed reference executor."""
    rankings = []
    for i, query in enumerate(queries):
        if churn and i and i % 10 == 0:
            ring.join(name=f"late-{i}")
            ring.leave(ring.live_ids[(i * 13) % ring.num_live])
            ring.stabilize()
        issuer = ring.live_ids[(i * 5) % ring.num_live]
        ranked, __ = execute(processor, issuer, query, top_k=10)
        rankings.append([(e.doc_id, e.score) for e in ranked])
    return rankings


class TestBatchedEqualsLegacy:
    def test_identical_rankings_bit_for_bit(self) -> None:
        ring_b, __, proc_batched = build_stack()
        ring_l, __, proc_legacy = build_stack()
        queries = query_stream()
        batched = run_stream(ring_b, proc_batched, queries)
        legacy = run_stream(ring_l, proc_legacy, queries, execute=execute_legacy)
        # Exact equality, scores included: the one-pass scorer performs
        # the same float operations in the same order.
        assert batched == legacy

    def test_batching_never_sends_more_search_traffic(self) -> None:
        ring_b, __, proc_batched = build_stack()
        ring_l, __, proc_legacy = build_stack()
        queries = query_stream()
        built = ring_b.stats.kind(MessageKind.LOOKUP).messages
        assert built == ring_l.stats.kind(MessageKind.LOOKUP).messages
        run_stream(ring_b, proc_batched, queries)
        run_stream(ring_l, proc_legacy, queries, execute=execute_legacy)
        for kind in (MessageKind.SEARCH_TERM, MessageKind.POSTINGS):
            assert (
                ring_b.stats.kind(kind).messages
                <= ring_l.stats.kind(kind).messages
            )
        # Batching merges message pairs, not routing work: every term is
        # still routed to — once, by the SEARCH_TERM that also registers
        # the query (tests/core/test_fused_visit.py), where the reference
        # routes twice, to register and again to fetch.
        term_visits = sum(len(query.terms) for query in queries)
        assert ring_b.stats.kind(MessageKind.LOOKUP).messages == built + term_visits
        assert ring_l.stats.kind(MessageKind.LOOKUP).messages == built + 2 * term_visits

    def test_terms_sharing_a_peer_share_one_message_pair(self) -> None:
        ring, protocol, __ = build_stack()
        # Find two vocabulary terms resolving to the same indexing peer.
        by_peer = {}
        pair = None
        for term in VOCAB:
            peer = ring.successor_of(protocol.term_hash(term))
            if peer in by_peer:
                pair = (by_peer[peer], term)
                break
            by_peer[peer] = term
        if pair is None:
            pytest.skip("no colliding terms for this seed")
        before_s = ring.stats.kind(MessageKind.SEARCH_TERM).messages
        before_p = ring.stats.kind(MessageKind.POSTINGS).messages
        results, failed = protocol.fetch_postings_batch(ring.live_ids[0], pair)
        assert not failed and set(results) == set(pair)
        assert ring.stats.kind(MessageKind.SEARCH_TERM).messages == before_s + 1
        assert ring.stats.kind(MessageKind.POSTINGS).messages == before_p + 1

    def test_identical_failure_degradation(self) -> None:
        """Both paths drop exactly the terms whose peer crashed
        (Section 7), in query order, and rank the remainder equally."""
        ring_b, proto_b, proc_batched = build_stack()
        ring_l, proto_l, proc_legacy = build_stack()
        probe = Query("probe", (VOCAB[0], VOCAB[7], VOCAB[21]))
        victim = ring_b.successor_of(proto_b.term_hash(VOCAB[7]))
        ring_b.fail(victim)
        ring_l.fail(victim)
        issuer = next(n for n in ring_b.live_ids if n != victim)
        ranked_b, exec_b = proc_batched.execute(issuer, probe, cache=False)
        ranked_l, exec_l = execute_legacy(proc_legacy, issuer, probe, cache=False)
        assert exec_b.dropped_terms == exec_l.dropped_terms
        assert exec_b.terms_failed == exec_l.terms_failed
        assert [(e.doc_id, e.score) for e in ranked_b] == [
            (e.doc_id, e.score) for e in ranked_l
        ]

    def test_unindexed_terms_return_empty_like_legacy(self) -> None:
        ring, __, proc = build_stack()
        ranked, execution = proc.execute(
            ring.live_ids[0], Query("ghost", ("nosuchterm",)), cache=False
        )
        assert len(ranked) == 0
        assert execution.terms_visited == 1
        assert execution.candidate_documents == 0


class TestRouteCacheEquivalence:
    def test_identical_rankings_and_message_counts(self) -> None:
        """ISSUE 2 satellite: cache on vs off — same ranked lists, same
        per-kind message counts, under perfect transport with churn."""
        ring_on, __, proc_on = build_stack(route_cache=65536)
        ring_off, __, proc_off = build_stack(route_cache=0)
        assert ring_on.route_cache is not None and ring_off.route_cache is None
        queries = query_stream(count=60)
        rankings_on = run_stream(ring_on, proc_on, queries, churn=True)
        rankings_off = run_stream(ring_off, proc_off, queries, churn=True)
        assert rankings_on == rankings_off
        assert ring_on.route_cache.hits > 0  # the fast path actually ran
        counts_on = {
            kind: stats.messages for kind, stats in ring_on.stats.snapshot().items()
        }
        counts_off = {
            kind: stats.messages for kind, stats in ring_off.stats.snapshot().items()
        }
        assert counts_on == counts_off
        # Bytes match too for everything but LOOKUP (whose per-kind
        # accounting carries hops, not bytes — and cached hits are
        # allowed to take fewer hops).
        for kind, stats in ring_on.stats.snapshot().items():
            if kind is not MessageKind.LOOKUP:
                assert stats.bytes == ring_off.stats.kind(kind).bytes
        assert (
            ring_on.stats.kind(MessageKind.LOOKUP).hops
            <= ring_off.stats.kind(MessageKind.LOOKUP).hops
        )
