"""A repeat query registers by an 8-byte digest of its keyword tuple.

Once a querying peer has seen a peer take a query's registration (a
reply to a registering SEARCH_TERM came back), its next SEARCH_TERM to
that peer names the ordered keyword tuple by
:func:`~repro.core.metadata.query_digest` instead of carrying it.  The
indexing peer resolves the digest against the addressed slot's query
cache and registers the very arrival it finds — the same
``CachedQuery(terms, query hash, sequence)`` the tuple would have left.
A slot that cannot resolve it flags its answer, and the querying peer
sends that peer one REGISTER with the tuple.

Each test runs the same operations on a twin that always ships the
tuple (``by_tuple``, the ``send_tuple`` row of ``tests/twins.py``) and
requires every query cache to come out equal:
a digest may cost a fallback, never a wrong or missing registration —
except where a REGISTER itself is lost, which leaves the term answered
and cached nowhere, as a lost SEARCH_TERM leaves it unregistered.
"""

from __future__ import annotations

import copy

import pytest

from repro.config import ChordConfig
from repro.core import metadata
from repro.core.indexer import IndexingProtocol
from repro.core.metadata import CachedQuery, PostingEntry, QueryCache, TermSlot, query_digest
from repro.core.query_processing import QueryProcessor
from repro.corpus.relevance import Query
from repro.dht import ChordRing
from repro.dht.messages import DIGEST_BYTES, TERM_BYTES, MessageKind
from repro.dht.replication import ReplicationManager
from repro.net.faults import FaultInjector
from repro.net.transport import DeliveryPolicy, LossyTransport

from ..twins import by_tuple

K = MessageKind
VOCAB = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


def stack(cache_size: int = 2000, transport=None):
    ring = ChordRing(ChordConfig(num_peers=16, id_bits=32, seed=3), transport=transport)
    protocol = IndexingProtocol(ring, query_cache_size=cache_size)
    for d in range(12):
        owner = ring.live_ids[d % ring.num_live]
        for term in VOCAB[d % 3 : d % 3 + 4]:
            protocol.publish(owner, term, PostingEntry(f"d{d:02d}", owner, 1 + d % 4, 40 + d))
    return ring, protocol, QueryProcessor(protocol, assumed_corpus_size=1000)


def caches(ring):
    """Every query cache in the system, entry for entry, by ``(holding
    peer, term)``."""
    return {
        (node.node_id, slot.term): tuple(slot.cache)
        for node in ring.nodes.values()
        for slot in node.store.values()
        if isinstance(slot, TermSlot)
    }


def sent(ring, kind: MessageKind) -> int:
    return ring.stats.kind(kind).messages


def run_twins(queries, cache_size: int = 2000, issuer_index: int = 0):
    """Execute *queries* in order on a default stack and its by-tuple
    twin: ``(default ring, twin ring, default executions)``."""
    ring, __, processor = stack(cache_size)
    twin_ring, twin_protocol, twin_processor = stack(cache_size)
    by_tuple(twin_protocol)
    executions = []
    for query in queries:
        issuer = ring.live_ids[issuer_index]
        ranked, execution = processor.execute(issuer, query, top_k=10)
        twin_ranked, twin_execution = twin_processor.execute(issuer, query, top_k=10)
        assert [(e.doc_id, e.score) for e in ranked] == [(e.doc_id, e.score) for e in twin_ranked]
        assert execution == twin_execution
        executions.append(execution)
    return ring, twin_ring, executions


class TestDigest:
    def test_ordered_not_sorted_and_eight_bytes(self) -> None:
        assert query_digest(("a", "b")) != query_digest(("b", "a"))
        assert query_digest(("a", "b")) == query_digest(["a", "b"])
        assert 0 <= query_digest(("a",)) < 1 << (8 * DIGEST_BYTES) == 1 << metadata.QUERY_DIGEST_BITS

    def test_a_repeat_names_its_query_by_digest(self) -> None:
        query = Query("q", ("alpha", "beta", "gamma"))
        ring, twin_ring, __ = run_twins([query, query])
        search, twin_search = ring.stats.kind(K.SEARCH_TERM), twin_ring.stats.kind(K.SEARCH_TERM)
        requests = search.messages // 2
        assert search.messages == twin_search.messages
        # The repeat's requests each carried a digest for the three keywords.
        assert twin_search.bytes - search.bytes == requests * (3 * TERM_BYTES - DIGEST_BYTES)
        assert sent(ring, K.REGISTER) == 0
        assert caches(ring) == caches(twin_ring)
        assert all(len(entries) == 2 for entries in caches(ring).values() if entries)

    def test_an_execution_that_did_not_register_records_nothing(self) -> None:
        """What a peer took is recorded from replies to registering
        requests only: after an uncached execution, the first cached one
        still carries the tuple everywhere."""
        query = Query("q", ("alpha", "beta"))
        rings = []
        for twin in (False, True):
            ring, protocol, processor = stack()
            if twin:
                by_tuple(protocol)
            processor.execute(ring.live_ids[0], query, top_k=10, cache=False)
            processor.execute(ring.live_ids[0], query, top_k=10)
            rings.append(ring)
        ring, twin_ring = rings
        assert ring.stats.summary() == twin_ring.stats.summary()
        assert caches(ring) == caches(twin_ring)


class TestFallback:
    def test_an_evicted_arrival_costs_one_register_and_nothing_else(self) -> None:
        """``query_cache_size=1``: a second query through the same slot
        evicts the first, whose repeat then cannot resolve there."""
        first, second = Query("a", ("alpha",)), Query("b", ("alpha", "beta"))
        ring, twin_ring, executions = run_twins([first, second, first], cache_size=1)
        assert sent(ring, K.REGISTER) == 1
        assert ring.stats.kind(K.REGISTER).bytes == 16 + TERM_BYTES
        assert sent(ring, K.SEARCH_TERM) == sent(twin_ring, K.SEARCH_TERM)
        assert ring.stats.kind(K.POSTINGS).bytes - twin_ring.stats.kind(K.POSTINGS).bytes == 1
        assert caches(ring) == caches(twin_ring)
        assert executions[-1].terms_failed == 0

    def test_a_digest_two_cached_tuples_share_falls_back_to_the_tuple(self, monkeypatch) -> None:
        monkeypatch.setattr(metadata, "QUERY_DIGEST_BITS", 2)
        others = [t for t in VOCAB if t != "alpha"]
        pairs = {}
        for other in others:
            pairs.setdefault(query_digest(tuple(sorted(("alpha", other)))), []).append(other)
        clash = next(group for group in pairs.values() if len(group) > 1)[:2]
        first, second = (Query(f"q{i}", ("alpha", other)) for i, other in enumerate(clash))
        assert query_digest(first.terms) == query_digest(second.terms)
        ring, twin_ring, __ = run_twins([first, second, first])
        # The alpha slot holds both tuples under one digest: it cannot
        # tell which is meant, so the repeat falls back there.
        assert sent(ring, K.REGISTER) >= 1
        assert caches(ring) == caches(twin_ring)
        (alpha,) = [entries for (__, term), entries in caches(ring).items() if term == "alpha"]
        assert [entry.terms for entry in alpha] == [first.terms, second.terms, first.terms]

    def test_a_lost_register_leaves_the_term_answered_and_cached_nowhere(self) -> None:
        class LoseRegisters(LossyTransport):
            """A loss-free lossy transport that loses every REGISTER."""

            lose = True

            def deliver(self, message, dst_alive=True):
                if message.kind is not K.REGISTER or not self.lose:
                    return super().deliver(message, dst_alive)
                self.faults.mark_flaky(message.dst, 1.0)
                try:
                    return super().deliver(message, dst_alive)
                finally:
                    self.faults.clear_flaky(message.dst)

        transport = LoseRegisters(
            faults=FaultInjector(0.0), policy=DeliveryPolicy(max_retries=0), seed=1
        )
        ring, protocol, processor = stack(cache_size=1, transport=transport)
        issuer = ring.live_ids[0]
        first, second = Query("a", ("alpha",)), Query("b", ("alpha", "beta"))
        processor.execute(issuer, first, top_k=10)
        processor.execute(issuer, second, top_k=10)
        before = caches(ring)
        __, execution = processor.execute(issuer, first, top_k=10)
        # Answered, yet registered nowhere: what a lost SEARCH_TERM leaves
        # of the registration, without dropping the term.
        assert execution.terms_failed == 0
        assert caches(ring) == before
        assert transport.trace.filtered(kind="register")
        # The next repeat falls back again, and this REGISTER arrives.
        transport.lose = False
        processor.execute(issuer, first, top_k=10)
        assert sent(ring, K.REGISTER) == 1
        assert protocol.slot_snapshot("alpha").cache.since(-1)[-1].terms == first.terms

    @pytest.mark.parametrize("fresh", [True, False], ids=["replica-saw-it", "stale-replica"])
    def test_a_promoted_replica_resolves_what_it_copied(self, fresh) -> None:
        query = Query("q", ("gamma",))
        ring, protocol, processor = stack()
        issuer = ring.live_ids[0]
        if not fresh:
            ReplicationManager(ring, replication_factor=1).replicate_round()
        processor.execute(issuer, query, top_k=10)
        if fresh:
            ReplicationManager(ring, replication_factor=1).replicate_round()
        victim = ring.successor_of(protocol.term_hash("gamma"))
        assert victim != issuer
        ring.fail(victim)
        ring.stabilize()
        __, execution = processor.execute(issuer, query, top_k=10)
        assert execution.terms_failed == 0
        assert sent(ring, K.REGISTER) == (0 if fresh else 1)
        cached = [entry.terms for entry in protocol.slot_snapshot("gamma").cache]
        assert cached == [query.terms] * (2 if fresh else 1)


class TestIndex:
    @staticmethod
    def filled(capacity: int = 4) -> QueryCache:
        cache = QueryCache(capacity)
        for query_hash, terms in enumerate((("a",), ("b", "c"), ("a",))):
            cache.add(terms, query_hash)
        return cache

    def test_the_latest_arrival_answers_until_the_last_one_goes(self) -> None:
        cache = self.filled(capacity=3)
        assert cache.digests.get(query_digest(("a",))).sequence == 2
        cache.add(("d",), 1)
        cache.add(("e",), 2)  # evicts the first ("a",) and ("b", "c")
        assert cache.digests.get(query_digest(("b", "c"))) is None
        assert cache.digests.get(query_digest(("a",))).sequence == 2
        cache.add(("f",), 3)  # evicts the last ("a",)
        assert cache.digests.get(query_digest(("a",))) is None
        assert len(cache.digests) == len(cache) == 3

    def test_a_shared_digest_resolves_to_neither_until_one_is_evicted(self, monkeypatch) -> None:
        monkeypatch.setattr(metadata, "QUERY_DIGEST_BITS", 1)
        zero, one = [], []
        for i in range(20):
            (zero if query_digest((f"t{i}",)) == 0 else one).append((f"t{i}",))
        cache = QueryCache(capacity=2)
        cache.add(zero[0], 1)
        cache.add(zero[1], 2)
        assert cache.digests.get(0) is None
        cache.add(one[0], 3)  # evicts zero[0]: zero[1] alone has digest 0
        assert cache.digests.get(0) == CachedQuery(zero[1], 2, 1)
        assert cache.digests.get(1) == CachedQuery(one[0], 3, 2)

    def test_a_clone_keeps_the_index_and_shares_nothing_mutable(self) -> None:
        cache = self.filled()
        clone = copy.deepcopy(cache)
        assert clone.digests == cache.digests
        cache.add(("x",), 9)
        cache.add(("y",), 9)  # evicts ("a",), the first, in the original only
        assert query_digest(("x",)) not in clone.digests
        assert clone.digests.get(query_digest(("b", "c"))) == cache.digests.get(query_digest(("b", "c")))
        assert clone.digests.get(query_digest(("a",))).sequence == 2

    def test_a_snapshot_round_trip_rebuilds_the_index(self) -> None:
        cache = self.filled(capacity=2)
        rebuilt = QueryCache.from_state(
            2, [(e.terms, e.query_hash, e.sequence) for e in cache], cache.latest_sequence + 1
        )
        assert dict(rebuilt.digests) == dict(cache.digests)
        assert len(rebuilt.digests) == 2
