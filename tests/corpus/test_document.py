"""Tests for the Document model."""

from __future__ import annotations

import heapq
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import Document


@pytest.fixture()
def doc() -> Document:
    return Document(
        doc_id="d1",
        text="chord chord chord ring ring lookup the the the",
    )


class TestAnalysisCaching:
    def test_term_freqs(self, doc: Document) -> None:
        assert doc.term_freqs == {"chord": 3, "ring": 2, "lookup": 1}

    def test_stop_words_excluded_from_length(self, doc: Document) -> None:
        # "the" ×3 removed → 6 analyzed occurrences.
        assert doc.length == 6

    def test_unique_terms(self, doc: Document) -> None:
        assert doc.unique_terms == 3

    def test_analyze_idempotent(self, doc: Document) -> None:
        doc.analyze()
        first = doc.term_freqs
        doc.analyze()
        assert doc.term_freqs is first


class TestNormalizedTf:
    def test_values(self, doc: Document) -> None:
        assert doc.normalized_tf("chord") == pytest.approx(3 / 6)
        assert doc.normalized_tf("lookup") == pytest.approx(1 / 6)

    def test_absent_term(self, doc: Document) -> None:
        assert doc.normalized_tf("unknown") == 0.0

    def test_empty_document(self) -> None:
        empty = Document(doc_id="e", text="the and of")
        assert empty.length == 0
        assert empty.normalized_tf("the") == 0.0


class TestTopTerms:
    def test_ranking_by_frequency(self, doc: Document) -> None:
        assert doc.top_terms(2) == ["chord", "ring"]

    def test_k_larger_than_vocabulary(self, doc: Document) -> None:
        assert doc.top_terms(100) == ["chord", "ring", "lookup"]

    def test_alphabetical_tie_break(self) -> None:
        d = Document(doc_id="t", text="zebra apple zebra apple")
        assert d.top_terms(2) == ["appl", "zebra"]

    @settings(max_examples=200, deadline=None)
    @given(
        freqs=st.dictionaries(
            st.text("abcde", min_size=1, max_size=3), st.integers(1, 4), max_size=30
        ),
        k=st.integers(0, 40),
    )
    def test_the_heap_keeps_what_the_full_sort_keeps(self, freqs, k) -> None:
        d = Document(doc_id="p", text="", _term_freqs=Counter(freqs))
        ranked = sorted(freqs.items(), key=lambda kv: (-kv[1], kv[0]))
        assert d.top_terms(k) == [t for t, __ in ranked[:k]]
        # Asked for every distinct term, the heap ranks them all.
        assert d.top_terms(len(freqs)) == [t for t, __ in ranked]

    @settings(max_examples=200, deadline=None)
    @given(
        freqs=st.dictionaries(
            st.text("abcdef", min_size=1, max_size=3), st.integers(1, 3), max_size=40
        ),
        k=st.integers(-2, 45),
    )
    def test_the_threshold_cut_equals_heapq_nsmallest(self, freqs, k) -> None:
        """``top_terms`` cuts at the k-th largest count and orders only
        what reaches it; the reference is the ``heapq.nsmallest`` over
        ``(-count, term)`` it replaced.  Three distinct counts, so most
        cuts fall inside a tie; k runs from below 0 to past the
        vocabulary, and k = 1, 0 and the vocabulary size always run."""
        d = Document(doc_id="p", text="", _term_freqs=Counter(freqs))
        pairs = [(-count, t) for t, count in freqs.items()]
        for cut in (k, 1, 0, len(freqs), len(freqs) + 1):
            assert d.top_terms(cut) == [t for __, t in heapq.nsmallest(cut, pairs)]

    def test_a_cut_inside_a_tie_breaks_it_alphabetically(self) -> None:
        d = Document(doc_id="t", text="", _term_freqs=Counter(
            {"pear": 2, "fig": 5, "apple": 2, "kiwi": 2, "date": 1}
        ))
        assert d.top_terms(1) == ["fig"]
        assert d.top_terms(2) == ["fig", "apple"]
        assert d.top_terms(3) == ["fig", "apple", "kiwi"]
        assert d.top_terms(5) == ["fig", "apple", "kiwi", "pear", "date"]
        assert d.top_terms(0) == [] and d.top_terms(-1) == []

    def test_term_rank(self, doc: Document) -> None:
        # A term's frequency rank is its place in the top_terms order.
        ranks = {t: i for i, t in enumerate(doc.top_terms(doc.unique_terms))}
        assert ranks["chord"] == 0
        assert ranks["ring"] == 1
        assert ranks["lookup"] == 2

    def test_weight_pairs_sorted(self, doc: Document) -> None:
        pairs = doc.as_weight_pairs()
        assert pairs == [("chord", 3), ("ring", 2), ("lookup", 1)]

    def test_weight_pairs_break_ties_alphabetically(self) -> None:
        d = Document(doc_id="t", text="", _term_freqs=Counter({"pear": 1, "fig": 2, "apple": 1}))
        assert d.as_weight_pairs() == [("fig", 2), ("apple", 1), ("pear", 1)]


class TestContains:
    def test_contains_analyzed_term(self, doc: Document) -> None:
        assert doc.contains("chord")
        assert not doc.contains("the")       # stop word
        assert not doc.contains("unknown")

    def test_contains_respects_stemming(self) -> None:
        d = Document(doc_id="s", text="running quickly")
        assert d.contains("run")
        assert not d.contains("running")
