"""The query-result cache (ISSUE 4 layer 3).

Validation is version-based, never time-based: an entry answers a
request only if the exact ordered keyword tuple matches, the cached
depth covers the requested ``top_k``, every term slot's globally-unique
version is unchanged, and the same set of terms was dropped to
failures.  Any publish/unpublish (including learning replacement) bumps
a slot version and must invalidate dependent results on next probe.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ChordConfig
from repro.core.indexer import IndexingProtocol
from repro.core.metadata import CachedResult, PostingEntry, QueryResultCache
from repro.core.query_processing import QueryProcessor
from repro.corpus.relevance import Query
from repro.dht.messages import MessageKind
from repro.dht.ring import ChordRing
from repro.ir.ranking import RankedList
from ..probes import ids, result_cache_stats, scores

VOCAB = [f"rc{i:02d}" for i in range(12)]


def build_stack(result_cache: int = 64, seed: int = 3):
    ring = ChordRing(ChordConfig(num_peers=24, seed=seed, route_cache_size=4096))
    protocol = IndexingProtocol(ring, result_cache_size=result_cache)
    processor = QueryProcessor(protocol, assumed_corpus_size=10_000)
    rng = random.Random(seed)
    for d in range(20):
        doc_id = f"d{d:03d}"
        owner = ring.random_live_id(rng)
        length = 30 + 11 * d
        for term in sorted(rng.sample(VOCAB, 4)):
            protocol.publish(
                owner,
                term,
                PostingEntry(doc_id, owner, rng.randint(1, 9), length),
            )
    return ring, protocol, processor


def execute(ring, processor, terms, top_k=5, cache=True):
    query = Query("rcq", tuple(terms))
    return processor.execute(ring.live_ids[0], query, top_k=top_k, cache=cache)


class TestCachedResultMatching:
    def _entry(self) -> CachedResult:
        return CachedResult(
            terms=("a", "b"),
            top_k=10,
            slot_versions={"a": 4, "b": 9},
            failed_terms=frozenset(),
            ranked=RankedList({"d1": 1.0}),
        )

    def test_exact_match(self) -> None:
        entry = self._entry()
        assert entry.matches(("a", "b"), 10, {"a": 4, "b": 9}, frozenset())

    def test_shallower_request_is_served(self) -> None:
        assert self._entry().matches(("a", "b"), 3, {"a": 4, "b": 9}, frozenset())

    def test_deeper_request_misses(self) -> None:
        assert not self._entry().matches(
            ("a", "b"), 11, {"a": 4, "b": 9}, frozenset()
        )

    def test_term_order_mismatch_misses(self) -> None:
        # Same keyword set, different order: scores would accumulate in
        # a different float order, so the entry must not be served.
        assert not self._entry().matches(
            ("b", "a"), 5, {"a": 4, "b": 9}, frozenset()
        )

    def test_version_mismatch_misses(self) -> None:
        assert not self._entry().matches(
            ("a", "b"), 5, {"a": 4, "b": 10}, frozenset()
        )

    def test_failed_set_mismatch_misses(self) -> None:
        assert not self._entry().matches(
            ("a", "b"), 5, {"a": 4, "b": 9}, frozenset({"a"})
        )


class TestQueryResultCacheLRU:
    def test_capacity_floor(self) -> None:
        with pytest.raises(ValueError):
            QueryResultCache(0)

    def test_least_recently_used_is_evicted(self) -> None:
        cache = QueryResultCache(2)
        entries = {
            h: CachedResult((str(h),), 1, {}, frozenset(), RankedList({}))
            for h in (1, 2, 3)
        }
        cache.put(1, entries[1])
        cache.put(2, entries[2])
        cache.get(1)  # refresh 1 → 2 becomes LRU
        cache.put(3, entries[3])
        assert cache.get(2) is None
        assert cache.get(1) is entries[1]
        assert cache.get(3) is entries[3]
        assert len(cache) == 2

    def test_invalidate(self) -> None:
        cache = QueryResultCache(2)
        cache.put(1, CachedResult(("x",), 1, {}, frozenset(), RankedList({})))
        assert cache.invalidate(1)
        assert not cache.invalidate(1)


class TestEndToEnd:
    def test_repeat_query_is_served_from_cache(self) -> None:
        ring, protocol, processor = build_stack()
        terms = (VOCAB[0], VOCAB[5])
        first, exec_first = execute(ring, processor, terms)
        again, exec_again = execute(ring, processor, terms)
        assert not exec_first.cache_hit
        assert exec_again.cache_hit
        assert [(e.doc_id, e.score) for e in again] == [
            (e.doc_id, e.score) for e in first
        ]
        entries, hits, misses = result_cache_stats(protocol)
        assert (entries, hits, misses) == (1, 1, 1)

    def test_shallower_repeat_served_truncated(self) -> None:
        ring, __, processor = build_stack()
        terms = (VOCAB[0], VOCAB[5])
        deep, __ = execute(ring, processor, terms, top_k=8)
        shallow, execution = execute(ring, processor, terms, top_k=3)
        assert execution.cache_hit
        assert [(e.doc_id, e.score) for e in shallow] == [
            (e.doc_id, e.score) for e in deep
        ][:3]

    def test_deeper_repeat_rescans(self) -> None:
        ring, __, processor = build_stack()
        terms = (VOCAB[0],)
        execute(ring, processor, terms, top_k=2)
        __, execution = execute(ring, processor, terms, top_k=9)
        assert not execution.cache_hit

    def test_publish_invalidates(self) -> None:
        ring, protocol, processor = build_stack()
        terms = (VOCAB[1], VOCAB[2])
        execute(ring, processor, terms)
        owner = ring.live_ids[1]
        # High impact (tf 9, length 10) so the new document must rank.
        protocol.publish(
            owner, VOCAB[2], PostingEntry("fresh-doc", owner, 9, 10)
        )
        fresh, execution = execute(ring, processor, terms)
        assert not execution.cache_hit
        assert "fresh-doc" in ids(fresh)
        # The refreshed result is re-cached and hit on the next repeat.
        __, execution = execute(ring, processor, terms)
        assert execution.cache_hit

    def test_unpublish_invalidates(self) -> None:
        ring, protocol, processor = build_stack()
        terms = (VOCAB[1], VOCAB[2])
        first, __ = execute(ring, processor, terms)
        victim_doc = first[0].doc_id
        protocol.unpublish(ring.live_ids[0], VOCAB[2], victim_doc)
        after, execution = execute(ring, processor, terms)
        assert not execution.cache_hit
        # A positive contribution was removed: strictly lower score now.
        assert scores(after).get(victim_doc, 0.0) < first[0].score

    def test_failure_set_change_invalidates(self) -> None:
        ring, protocol, processor = build_stack()
        terms = (VOCAB[3], VOCAB[7])
        execute(ring, processor, terms)
        victim = ring.successor_of(protocol.term_hash(VOCAB[7]))
        if victim == ring.live_ids[0]:
            pytest.skip("issuer is the indexing peer for this seed")
        result_home = ring.successor_of(protocol.query_hash(terms))
        if victim == result_home:
            pytest.skip("result home is the indexing peer for this seed")
        ring.fail(victim)
        __, execution = execute(ring, processor, terms)
        assert not execution.cache_hit
        assert execution.terms_failed == 1

    def test_cache_disabled_sends_no_result_messages(self) -> None:
        ring, __, processor = build_stack(result_cache=0)
        execute(ring, processor, (VOCAB[0],))
        execute(ring, processor, (VOCAB[0],))
        for kind in (
            MessageKind.RESULT_PROBE,
            MessageKind.RESULT_VALUE,
            MessageKind.RESULT_STORE,
        ):
            assert ring.stats.kind(kind).messages == 0

    def test_unbounded_query_sends_no_result_messages(self) -> None:
        """``top_k=None`` ranks everything: there is no depth a cached
        entry could cover, so the enabled cache is neither probed nor
        fed, and an unregistered query needs no version probe."""
        ring, protocol, processor = build_stack()
        for cache in (True, False, True):
            ranked, execution = execute(
                ring, processor, (VOCAB[0], VOCAB[1]), top_k=None, cache=cache
            )
            assert not execution.cache_hit and len(ranked) > 5
        for kind in (
            MessageKind.RESULT_PROBE,
            MessageKind.RESULT_VALUE,
            MessageKind.RESULT_STORE,
            MessageKind.VERSION_PROBE,
            MessageKind.VERSION_VALUE,
        ):
            assert ring.stats.kind(kind).messages == 0
        assert result_cache_stats(protocol) == (0, 0, 0)

    def test_unregistered_probe_uses_version_messages(self) -> None:
        """cache=False still validates freshness — via the batched
        version probe instead of registration piggybacking."""
        ring, __, processor = build_stack()
        execute(ring, processor, (VOCAB[0],), cache=False)
        assert ring.stats.kind(MessageKind.VERSION_PROBE).messages > 0
        __, execution = execute(ring, processor, (VOCAB[0],), cache=False)
        assert execution.cache_hit

    def test_frequency_override_bypasses_cache(self) -> None:
        ring, protocol, __ = build_stack()
        processor = QueryProcessor(
            protocol,
            assumed_corpus_size=10_000,
            document_frequency_override={VOCAB[0]: 5},
        )
        execute(ring, processor, (VOCAB[0],))
        __, execution = execute(ring, processor, (VOCAB[0],))
        assert not execution.cache_hit
        assert result_cache_stats(protocol) == (0, 0, 0)


class TestCacheLivesOnItsPeer:
    """A result cache is RAM at its home peer: it goes when the peer
    does, and the protocol keeps nothing for an id that left the ring."""

    @staticmethod
    def cached_query(ring, protocol, processor):
        """Run a query twice (miss + store, then hit) whose result home
        is neither the issuer nor the indexing peer of one of its terms;
        returns ``(terms, home id, first ranking)``."""
        issuer = ring.live_ids[0]
        for a in VOCAB:
            for b in VOCAB:
                terms = (a, b)
                home = ring.successor_of(protocol.query_hash(terms))
                holders = {ring.successor_of(protocol.term_hash(t)) for t in terms}
                if a != b and home != issuer and home not in holders:
                    first, __ = execute(ring, processor, terms)
                    __, again = execute(ring, processor, terms)
                    assert again.cache_hit
                    return terms, home, [(e.doc_id, e.score) for e in first]
        raise AssertionError("no query with a third-party result home")

    def test_crash_and_rejoin_starts_empty(self) -> None:
        ring, protocol, processor = build_stack(result_cache=8)
        terms, home, first = self.cached_query(ring, protocol, processor)
        ring.fail(home)
        ring.stabilize()
        ring.join(node_id=home)
        ranked, execution = execute(ring, processor, terms)
        assert not execution.cache_hit
        assert [(e.doc_id, e.score) for e in ranked] == first
        assert result_cache_stats(protocol) == (1, 0, 1)

    def test_leave_drops_the_cache(self) -> None:
        ring, protocol, processor = build_stack(result_cache=8)
        terms, home, first = self.cached_query(ring, protocol, processor)
        assert result_cache_stats(protocol) == (1, 1, 1)
        ring.leave(home)
        assert result_cache_stats(protocol) == (0, 0, 0)
        ranked, execution = execute(ring, processor, terms)
        assert not execution.cache_hit
        assert [(e.doc_id, e.score) for e in ranked] == first

    def test_churn_holds_no_cache_for_a_departed_peer(self) -> None:
        """40 join → query → leave cycles, every query's result home
        being the joiner: nothing is left when the last one has gone."""
        ring, protocol, processor = build_stack(result_cache=8)
        pairs = [(a, b) for a in VOCAB for b in VOCAB if a != b][:40]
        for terms in pairs:
            joiner = ring.join(node_id=protocol.query_hash(terms))
            execute(ring, processor, terms)
            __, again = execute(ring, processor, terms)
            assert again.cache_hit
            assert [node_id for node_id, __ in protocol.result_caches()] == [joiner]
            ring.leave(joiner)
        assert protocol.result_caches() == []
        assert result_cache_stats(protocol) == (0, 0, 0)

    def test_a_system_without_the_cache_allocates_none(self) -> None:
        ring, protocol, processor = build_stack(result_cache=0)
        execute(ring, processor, (VOCAB[0], VOCAB[1]))
        assert all("result_cache" not in vars(node) for node in ring.nodes.values())


class TestHashMemoization:
    def test_protocol_and_ring_agree_on_term_positions(self) -> None:
        """ISSUE 4 satellite: one memoization layer — the protocol's
        term_hash must be the ring space's hash_key, same values."""
        ring, protocol, __ = build_stack()
        for term in VOCAB + ["never-published-term"]:
            assert protocol.term_hash(term) == ring.space.hash_key(term)

    def test_no_private_hash_cache_remains(self) -> None:
        ring, protocol, __ = build_stack()
        assert not hasattr(protocol, "_hash_cache")


class TestFreshnessProperty:
    """Hypothesis property (ISSUE 8 satellite): the result cache never
    serves a response whose recorded slot versions predate an
    interleaved publish/unpublish to one of the query's terms.

    The model is deliberately simple: with a perfect transport and no
    churn, a repeat query must HIT exactly when nothing touched its
    terms since the last full execution, must MISS (and recompute)
    after any interleaved mutation of a query term, and every served
    ranking — cached or not — must equal a from-scratch uncached
    execution of the same query.  Mutations to *unrelated* terms must
    not shake the entry loose.
    """

    OPS = st.lists(
        st.tuples(
            st.sampled_from(["query", "publish", "unpublish", "decoy"]),
            st.integers(min_value=0, max_value=1),  # query-term index
            st.integers(min_value=0, max_value=4),  # doc-id salt
        ),
        min_size=1,
        max_size=30,
    )

    @given(ops=OPS, seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, deadline=None)
    def test_no_stale_serve_under_interleaved_writes(
        self, ops, seed: int
    ) -> None:
        ring, protocol, processor = build_stack(seed=seed)
        rng = random.Random(seed)
        query_terms = (VOCAB[0], VOCAB[1])
        issuer = ring.live_ids[0]

        published: dict = {term: set() for term in VOCAB}
        executed_once = False
        dirty = False  # a query term mutated since the last execution

        for op, term_idx, salt in ops:
            term = query_terms[term_idx]
            doc_id = f"prop{salt}"
            if op == "publish":
                owner = ring.random_live_id(rng)
                protocol.publish(
                    owner,
                    term,
                    PostingEntry(doc_id, owner, 1 + salt, 40 + 7 * salt),
                )
                published[term].add(doc_id)
                dirty = True
            elif op == "unpublish":
                removed = protocol.unpublish(issuer, term, doc_id)
                assert removed == (doc_id in published[term])
                if removed:
                    published[term].discard(doc_id)
                    dirty = True
            elif op == "decoy":
                # Same write, unrelated term: must not invalidate.
                owner = ring.random_live_id(rng)
                protocol.publish(
                    owner,
                    VOCAB[-1],
                    PostingEntry(doc_id, owner, 1 + salt, 40 + 7 * salt),
                )
            else:
                ranked, execution = execute(ring, processor, query_terms)
                assert execution.cache_hit == (executed_once and not dirty)
                fresh, __ = execute(
                    ring, processor, query_terms, cache=False
                )
                assert [(e.doc_id, e.score) for e in ranked] == [
                    (e.doc_id, e.score) for e in fresh
                ]
                executed_once = True
                dirty = False
