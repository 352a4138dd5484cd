"""The counts-backed index against the per-``Posting`` reference.

:class:`~repro.ir.inverted_index.InvertedIndex` stores each posting as a
raw count and the centralized scorers read the counts directly.  The
reference in :mod:`tests.ir.legacy_inverted_index` keeps one
:class:`Posting` object per posting and the scorers that read its
fields.  Both must give bit-identical scores in the identical order —
ties included — for Lee and cosine TF·IDF and for BM25, on the small
experiment corpus and on drawn corpora, and ``postings(term)`` must
return the same field values across removals and re-adds.
"""

from __future__ import annotations

from collections import Counter
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import Corpus, Document, Query
from repro.ir import BM25System, CentralizedSystem, InvertedIndex

from .legacy_inverted_index import (
    LegacyBM25System,
    LegacyCentralizedSystem,
    LegacyInvertedIndex,
)

VOCAB = ("chord", "ring", "finger", "lookup", "peer", "query", "index", "cache")

#: Per document: term → raw count.  Small counts over a small vocabulary
#: make equal scores, and so doc-id tie-breaks, common.
DOCS = st.lists(
    st.dictionaries(st.sampled_from(VOCAB), st.integers(1, 4), max_size=6),
    min_size=1,
    max_size=12,
)
QUERIES = st.lists(
    st.lists(st.sampled_from(VOCAB + ("ghost",)), min_size=1, max_size=4),
    min_size=1,
    max_size=6,
)


def make_corpus(counts: List[dict]) -> Corpus:
    return Corpus(
        Document(f"d{i:02d}", "", _term_freqs=Counter(c), _length=sum(c.values()))
        for i, c in enumerate(counts)
    )


def systems(corpus: Corpus):
    """``(name, system under test, reference)`` for each scorer."""
    return [
        ("lee", CentralizedSystem(corpus), LegacyCentralizedSystem(corpus)),
        (
            "cosine",
            CentralizedSystem(corpus, "cosine"),
            LegacyCentralizedSystem(corpus, "cosine"),
        ),
        ("bm25", BM25System(corpus), LegacyBM25System(corpus)),
    ]


def assert_same_rankings(corpus: Corpus, queries: List[Query]) -> None:
    for name, system, reference in systems(corpus):
        for query in queries:
            got = list(system.search(query))
            want = list(reference.search(query))
            assert got == want, (name, query.terms)


def assert_same_postings(index: InvertedIndex, reference: LegacyInvertedIndex) -> None:
    assert index.num_documents == reference.num_documents
    assert list(index.terms()) == list(reference.terms())
    for term in reference.terms():
        assert index.document_frequency(term) == reference.document_frequency(term)
        assert index.postings(term) == reference.postings(term)


class TestSmallExperimentCorpus:
    def test_rankings_match_the_posting_scorers(self, small_env) -> None:
        queries = list(small_env.full_set.queries)
        queries.append(Query("ghost", ("ghost", queries[0].terms[0])))
        assert_same_rankings(small_env.corpus, queries)

    def test_postings_match_across_remove_and_readd(self, small_env) -> None:
        corpus = small_env.corpus
        index = InvertedIndex.from_corpus(corpus)
        reference = LegacyInvertedIndex.from_corpus(corpus)
        assert_same_postings(index, reference)
        docs = list(corpus)[::7]
        for doc in docs:
            index.remove_document(doc)
            reference.remove_document(doc)
        assert_same_postings(index, reference)
        for doc in reversed(docs):
            index.add_document(doc)
            reference.add_document(doc)
        assert_same_postings(index, reference)


class TestDrawnCorpora:
    @settings(max_examples=60, deadline=None)
    @given(docs=DOCS, queries=QUERIES)
    def test_rankings_match_the_posting_scorers(self, docs, queries) -> None:
        corpus = make_corpus(docs)
        drawn = [Query(f"q{i}", tuple(terms)) for i, terms in enumerate(queries)]
        assert_same_rankings(corpus, drawn)

    @settings(max_examples=60, deadline=None)
    @given(docs=DOCS, steps=st.lists(st.tuples(st.booleans(), st.integers(0, 11))))
    def test_postings_match_across_remove_and_readd(self, docs, steps) -> None:
        corpus = make_corpus(docs)
        index = InvertedIndex.from_corpus(corpus)
        reference = LegacyInvertedIndex.from_corpus(corpus)
        members = list(corpus)
        for add, position in steps:
            doc = members[position % len(members)]
            for side in (index, reference):
                (side.add_document if add else side.remove_document)(doc)
            assert index.doc_length(doc.doc_id) == reference.doc_length(doc.doc_id)
        assert_same_postings(index, reference)
