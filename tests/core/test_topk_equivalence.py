"""``QueryProcessor.execute`` against the seed reference executor.

The executor (one batched fetch per indexing peer, one flat-dict
accumulation pass) and the result cache must be *invisible in results*:
identical documents, bit-identical scores, identical tie-broken order
and identical execution counters versus the seed per-term executor kept
in ``tests/core/legacy_executor.py`` — under repeated keywords,
failures, document-frequency overrides, degenerate ``top_k`` values,
zero-length documents, and either posting store (the in-RAM one and
the seed reference model).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ChordConfig
from repro.core.indexer import IndexingProtocol
from repro.core.metadata import PostingEntry
from repro.core.query_processing import QueryProcessor
from repro.corpus.relevance import Query
from repro.dht.ring import ChordRing
from repro.ir.postings import RamPostings

from ..ir.legacy_postings import LegacyPostings, LegacyStoreRuntime
from .legacy_executor import execute_legacy

VOCAB = [f"kw{i:03d}" for i in range(24)]


class _RawQuery:
    """Query stand-in that skips the sorted-set normalization, to reach
    the processors' own repeated-keyword guard."""

    def __init__(self, query_id: str, terms) -> None:
        self.query_id = query_id
        self.terms = tuple(terms)


def build_stack(
    *,
    legacy_store: bool = False,
    result_cache: int = 0,
    override=None,
    seed: int = 11,
    num_docs: int = 25,
    zero_length_docs: int = 0,
):
    ring = ChordRing(ChordConfig(num_peers=32, seed=seed, route_cache_size=4096))
    protocol = IndexingProtocol(
        ring,
        result_cache_size=result_cache,
        store_runtime=LegacyStoreRuntime() if legacy_store else None,
    )
    processor = QueryProcessor(
        protocol,
        assumed_corpus_size=10_000,
        document_frequency_override=override,
    )
    rng = random.Random(seed)
    for d in range(num_docs):
        doc_id = f"d{d:03d}"
        owner = ring.random_live_id(rng)
        length = 0 if d < zero_length_docs else 40 + 9 * d
        for term in sorted(rng.sample(VOCAB, 5)):
            protocol.publish(
                owner,
                term,
                PostingEntry(doc_id, owner, rng.randint(1, 9), length),
            )
    return ring, protocol, processor


def pairs(ranked):
    return [(e.doc_id, e.score) for e in ranked]


def run_query(processor, ring, query, top_k):
    issuer = ring.live_ids[0]
    return processor.execute(issuer, query, top_k=top_k, cache=False)


def run_reference(processor, ring, query, top_k):
    issuer = ring.live_ids[0]
    return execute_legacy(processor, issuer, query, top_k=top_k, cache=False)


class TestEdgeCases:
    def test_repeated_keywords_score_once(self) -> None:
        ring, __, proc = build_stack()
        # Query normalizes keywords to a sorted set, so repeats collapse
        # before execution; both executors must agree on the collapsed view.
        query = Query("rep", (VOCAB[3], VOCAB[3], VOCAB[9], VOCAB[3]))
        assert query.terms == tuple(sorted({VOCAB[3], VOCAB[9]}))
        ranked, execution = run_query(proc, ring, query, top_k=5)
        ranked_ref, exec_ref = run_reference(proc, ring, query, top_k=5)
        assert pairs(ranked) == pairs(ranked_ref)
        assert execution.terms_visited == exec_ref.terms_visited == 2
        assert execution.postings_retrieved == exec_ref.postings_retrieved

    def test_repeated_terms_fed_directly_score_once(self) -> None:
        """The processor's own dedup guard, exercised below the Query
        normalization layer: a repeated term contributes exactly once."""
        ring, __, proc = build_stack()
        repeated = _RawQuery("raw", (VOCAB[3], VOCAB[3], VOCAB[3]))
        ranked, __ = run_query(proc, ring, repeated, top_k=5)
        ranked_ref, __ = run_reference(proc, ring, repeated, top_k=None)
        base, __ = run_query(proc, ring, Query("one", (VOCAB[3],)), top_k=5)
        assert pairs(ranked) == pairs(ranked_ref)[:5] == pairs(base)

    def test_all_terms_failed_returns_empty(self) -> None:
        ring, protocol, proc = build_stack()
        query = Query("dead", (VOCAB[0], VOCAB[1]))
        for term in query.terms:
            ring.fail(ring.successor_of(protocol.term_hash(term)))
        issuer = ring.live_ids[0]
        ranked, execution = proc.execute(issuer, query, top_k=5, cache=False)
        assert len(ranked) == 0
        assert execution.terms_failed == 2
        assert list(execution.dropped_terms) == list(query.terms)

    def test_top_k_zero_returns_empty(self) -> None:
        ring, __, proc = build_stack()
        query = Query("z", (VOCAB[2],))
        ranked, execution = run_query(proc, ring, query, top_k=0)
        assert len(ranked) == 0
        # Truncation happens after scoring: every candidate was counted.
        everything, __ = run_reference(proc, ring, query, top_k=None)
        assert execution.candidate_documents == len(everything) > 0

    def test_top_k_beyond_candidates_returns_all(self) -> None:
        ring, __, proc = build_stack()
        query = Query("wide", (VOCAB[4], VOCAB[11]))
        ranked, __ = run_query(proc, ring, query, top_k=10_000)
        ranked_ref, __ = run_reference(proc, ring, query, top_k=10_000)
        assert pairs(ranked) == pairs(ranked_ref)
        assert len(ranked) > 0

    def test_zero_length_documents_rank_last_identically(self) -> None:
        ring, __, proc = build_stack(zero_length_docs=6)
        for term in VOCAB:
            query = Query(f"q-{term}", (term,))
            ranked, __ = run_query(proc, ring, query, top_k=8)
            ranked_ref, __ = run_reference(proc, ring, query, top_k=8)
            assert pairs(ranked) == pairs(ranked_ref)

    def test_unbounded_top_k_skips_the_termination_path(self) -> None:
        """(The name dates from the pruning pass; what it pins now:
        ``top_k=None`` returns every candidate document.)"""
        ring, __, proc = build_stack()
        ranked, execution = proc.execute(
            ring.live_ids[0], Query("all", (VOCAB[5],)), top_k=None, cache=False
        )
        assert len(ranked) == execution.candidate_documents > 0


class TestBackendEquivalence:
    def test_columnar_and_legacy_stores_rank_identically(self) -> None:
        ring_c, proto_c, proc_c = build_stack()
        ring_l, proto_l, proc_l = build_stack(legacy_store=True)
        assert isinstance(proto_l.slot_snapshot(VOCAB[0])._store, LegacyPostings)
        assert isinstance(proto_c.slot_snapshot(VOCAB[0])._store, RamPostings)
        rng = random.Random(5)
        for i in range(30):
            k = rng.randint(1, 3)
            query = Query(f"q{i}", tuple(rng.sample(VOCAB, k)))
            ranked_c, __ = run_query(proc_c, ring_c, query, top_k=7)
            ranked_l, __ = run_query(proc_l, ring_l, query, top_k=7)
            assert pairs(ranked_c) == pairs(ranked_l)


COUNTERS = (
    "terms_visited",
    "terms_failed",
    "dropped_terms",
    "postings_retrieved",
    "candidate_documents",
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k_class=st.sampled_from(["none", "zero", "one", "below", "at-or-above"]),
    num_terms=st.integers(min_value=1, max_value=4),
    repeat_keyword=st.booleans(),
    fail_first_term=st.booleans(),
    use_override=st.booleans(),
    legacy_store=st.booleans(),
    result_cache=st.booleans(),
)
def test_equivalence_property(
    seed: int,
    k_class: str,
    num_terms: int,
    repeat_keyword: bool,
    fail_first_term: bool,
    use_override: bool,
    legacy_store: bool,
    result_cache: bool,
) -> None:
    """For any seeded world — a repeated keyword, a failed term and a
    document-frequency override included, on either posting store, with
    the result cache on or off — ``execute()`` returns the documents,
    score bits, tie order and execution counters of the seed per-term
    reference, for ``top_k`` unbounded, zero, one, below and at-or-above
    the candidate count; ``candidate_documents`` is always the
    exhaustive count; and without a result cache a bounded and an
    unbounded query are indistinguishable on the wire (the reference
    differs there by design: it fetches per term)."""
    rng = random.Random(seed)
    terms = tuple(rng.sample(VOCAB, num_terms))
    if repeat_keyword:
        terms += (terms[0],)
    override = (
        {term: rng.randint(1, 50) for term in set(terms)} if use_override else None
    )
    # _RawQuery: Query would collapse the repeat before execution.
    query = _RawQuery("prop", terms)

    def world():
        ring, protocol, processor = build_stack(
            override=override,
            seed=seed % 17,
            legacy_store=legacy_store,
            result_cache=64 if result_cache else 0,
        )
        if fail_first_term:
            ring.fail(ring.successor_of(protocol.term_hash(terms[0])))
        return ring, processor

    ring, reference = world()
    everything, __ = run_reference(reference, ring, query, top_k=None)
    candidates = len(everything)
    top_k = {
        "none": None,
        "zero": 0,
        "one": 1,
        "below": max(1, candidates // 2),
        "at-or-above": candidates + rng.randint(0, 3),
    }[k_class]
    expected, expected_exec = run_reference(reference, ring, query, top_k=top_k)
    assert expected_exec.candidate_documents == candidates

    traffic = []
    for k in (top_k, None):
        ring, processor = world()
        mark = ring.stats.snapshot()
        ranked, execution = run_query(processor, ring, query, top_k=k)
        traffic.append(ring.stats.delta_since(mark))  # per-kind msgs, bytes, hops
        assert not execution.cache_hit
        assert pairs(ranked) == pairs(expected if k == top_k else everything)
        for counter in COUNTERS:
            assert getattr(execution, counter) == getattr(expected_exec, counter)
        # Asked again, a cached answer must be the same answer.
        again, __ = run_query(processor, ring, query, top_k=k)
        assert pairs(again) == pairs(ranked)
    if not result_cache:
        assert traffic[0] == traffic[1]
