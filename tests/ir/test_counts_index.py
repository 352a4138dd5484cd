"""The counts-backed index against the per-``Posting`` reference.

:class:`~repro.ir.inverted_index.InvertedIndex` stores each posting as a
raw count and the centralized scorers read the counts directly.  The
reference in :mod:`tests.ir.legacy_inverted_index` keeps one
:class:`Posting` object per posting and the scorers that read its
fields.  Both must give bit-identical scores in the identical order —
ties included — for Lee TF·IDF and for BM25, on the small experiment
corpus and on drawn corpora.
"""

from __future__ import annotations

from collections import Counter
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import Corpus, Document, Query
from repro.ir import BM25System, CentralizedSystem

from .legacy_inverted_index import LegacyBM25System, LegacyCentralizedSystem

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
        ("bm25", BM25System(corpus), LegacyBM25System(corpus)),
    ]


def assert_same_rankings(corpus: Corpus, queries: List[Query]) -> None:
    for name, system, reference in systems(corpus):
        for query in queries:
            got = list(system.search(query))
            want = list(reference.search(query))
            assert got == want, (name, query.terms)


class TestSmallExperimentCorpus:
    def test_rankings_match_the_posting_scorers(self, small_env) -> None:
        queries = list(small_env.full_set.queries)
        queries.append(Query("ghost", ("ghost", queries[0].terms[0])))
        assert_same_rankings(small_env.corpus, queries)


class TestDrawnCorpora:
    @settings(max_examples=60, deadline=None)
    @given(docs=DOCS, queries=QUERIES)
    def test_rankings_match_the_posting_scorers(self, docs, queries) -> None:
        corpus = make_corpus(docs)
        drawn = [Query(f"q{i}", tuple(terms)) for i, terms in enumerate(queries)]
        assert_same_rankings(corpus, drawn)
