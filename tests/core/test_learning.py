"""Tests for Algorithm 1 and term selection.

The centerpiece is the *equivalence property*: the paper argues the
incremental learner computes exactly what the naive
reprocess-everything learner computes (max is associative, QF is
cumulative).  We verify it with hypothesis over random query streams and
arbitrary batch splits.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.learning import (
    IncrementalLearner,
    RankedTerm,
    initial_terms,
    naive_rank_terms,
    select_index_terms,
)
from repro.corpus import Document

from ..probes import counted
from .reference_selection import reference_select_index_terms

DOC_TEXT = (
    "alpha alpha alpha alpha beta beta beta gamma gamma delta "
    "epsilon zeta eta theta iota kappa"
)


@pytest.fixture()
def doc() -> Document:
    return Document("doc", DOC_TEXT)


class TestInitialTerms:
    def test_top_frequency(self, doc: Document) -> None:
        assert initial_terms(doc, 3) == ["alpha", "beta", "gamma"]

    def test_a_single_term_is_the_most_frequent(self, doc: Document) -> None:
        # count = 1 is the smallest budget the guard below admits.
        assert initial_terms(doc, 1) == ["alpha"]

    def test_invalid_count(self, doc: Document) -> None:
        with pytest.raises(ValueError):
            initial_terms(doc, 0)


class TestIncrementalLearner:
    def test_no_queries_no_stats(self, doc: Document) -> None:
        learner = IncrementalLearner(doc)
        learner.observe([])
        assert learner.rank_list() == []

    def test_queries_without_doc_terms_ignored(self, doc: Document) -> None:
        learner = IncrementalLearner(doc)
        learner.observe([("unrelated", "terms")])
        assert learner.rank_list() == []

    def test_single_query_scores_zero_but_tracked(self, doc: Document) -> None:
        learner = IncrementalLearner(doc)
        learner.observe([("alpha", "beta")])
        stats = learner.stats["alpha"]
        assert stats.query_frequency == 1
        assert learner.scorer(stats.max_qscore, stats.query_frequency) == 0.0  # log10(1) = 0

    def test_repeated_queries_build_score(self, doc: Document) -> None:
        learner = IncrementalLearner(doc)
        learner.observe([("alpha", "beta")] * 10)
        stats = learner.stats["alpha"]
        assert learner.scorer(stats.max_qscore, stats.query_frequency) > 0.0

    def test_max_qscore_kept(self, doc: Document) -> None:
        learner = IncrementalLearner(doc)
        learner.observe([("alpha", "unknown1", "unknown2", "unknown3")])  # qs=0.25
        learner.observe([("alpha", "beta")])                              # qs=1.0
        assert learner.stats["alpha"].max_qscore == 1.0

    def test_rank_list_sorted(self, doc: Document) -> None:
        learner = IncrementalLearner(doc)
        learner.observe([("alpha", "beta")] * 5 + [("gamma", "nope", "nah", "zip")] * 3)
        ranked = learner.rank_list()
        scores = [rt.score for rt in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_unqueried_frequent_term_not_ranked(self, doc: Document) -> None:
        """The paper's 'term c' case: frequent in the document but never
        queried → absent from the rank list entirely."""
        learner = IncrementalLearner(doc)
        learner.observe([("delta", "epsilon")] * 4)
        ranked_terms = {rt.term for rt in learner.rank_list()}
        assert "alpha" not in ranked_terms
        assert "delta" in ranked_terms


class TestEquivalenceWithNaive:
    def test_simple_stream(self, doc: Document) -> None:
        queries = [("alpha", "beta"), ("alpha",), ("gamma", "delta"), ("alpha", "beta")]
        learner = IncrementalLearner(doc)
        for q in queries:
            learner.observe([q])
        assert learner.rank_list() == naive_rank_terms(doc, queries)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(
                    ["alpha", "beta", "gamma", "delta", "epsilon", "noise1", "noise2"]
                ),
                min_size=1,
                max_size=4,
                unique=True,
            ).map(tuple),
            max_size=25,
        ),
        st.data(),
    )
    def test_incremental_equals_naive_any_batching(self, queries, data) -> None:
        """Algorithm 1 ≡ naive recomputation for every stream and every
        way of batching it into learning iterations."""
        document = Document("doc", DOC_TEXT)
        learner = IncrementalLearner(document)
        remaining = list(queries)
        while remaining:
            cut = data.draw(st.integers(min_value=1, max_value=len(remaining)))
            batch, remaining = remaining[:cut], remaining[cut:]
            learner.observe(batch)
        assert learner.rank_list() == naive_rank_terms(document, queries)


class TestSelectIndexTerms:
    def _ranked(self, *pairs) -> list:
        return [RankedTerm(t, s) for t, s in pairs]

    def test_positive_scores_win(self, doc: Document) -> None:
        chosen = select_index_terms(
            doc,
            current_terms=["alpha", "beta"],
            rank_list=self._ranked(("zeta", 0.9), ("eta", 0.8)),
            target_size=2,
        )
        assert chosen == ["zeta", "eta"]

    def test_current_terms_retained_under_budget(self, doc: Document) -> None:
        chosen = select_index_terms(
            doc,
            current_terms=["alpha", "beta"],
            rank_list=self._ranked(("zeta", 0.9)),
            target_size=3,
        )
        assert chosen[0] == "zeta"
        assert set(chosen[1:]) == {"alpha", "beta"}

    def test_zero_scores_never_preempt(self, doc: Document) -> None:
        chosen = select_index_terms(
            doc,
            current_terms=["alpha"],
            rank_list=self._ranked(("zeta", 0.0)),
            target_size=1,
        )
        assert chosen == ["alpha"]

    def test_padding_with_frequent_terms(self, doc: Document) -> None:
        chosen = select_index_terms(
            doc, current_terms=[], rank_list=[], target_size=3
        )
        assert chosen == ["alpha", "beta", "gamma"]

    def test_figure_2b_replacement(self) -> None:
        """The worked example: t1, t2, t5 indexed; after learning, t3
        enters (0.524) and t5 (0.501) is evicted under a 3-term cap."""
        text = "t1 t2 t3 t5 filler filler"
        d = Document("fig2b", text)
        rank = self._ranked(("t1", 0.985), ("t2", 0.527), ("t3", 0.524), ("t5", 0.501))
        chosen = select_index_terms(d, ["t1", "t2", "t5"], rank, target_size=3)
        assert chosen == ["t1", "t2", "t3"]

    def test_invalid_target(self, doc: Document) -> None:
        with pytest.raises(ValueError):
            select_index_terms(doc, [], [], target_size=0)

    def test_no_duplicates(self, doc: Document) -> None:
        chosen = select_index_terms(
            doc,
            current_terms=["alpha", "zeta"],
            rank_list=self._ranked(("zeta", 0.9), ("alpha", 0.5)),
            target_size=4,
        )
        assert len(chosen) == len(set(chosen))


#: Document terms, and terms a document of them lacks.
DOC_VOCAB = ["ab", "ba", "cd", "dc", "ee", "fa", "gb"]
ABSENT = ["xa", "yb", "zz"]


class TestSelectionMatchesTheRankMap:
    """``select_index_terms`` reads the counts directly; the rank-map
    version (``tests/core/reference_selection.py``) is what it replaced.
    Drawn: counts with ties, current terms the document lacks (and
    repeats), rank lists with tied, zero and negative scores in any
    order, and targets past everything the evidence and the current
    terms can fill, so the padding runs."""

    @settings(max_examples=400, deadline=None)
    @given(
        freqs=st.dictionaries(st.sampled_from(DOC_VOCAB), st.integers(1, 3), min_size=1),
        current=st.lists(st.sampled_from(DOC_VOCAB + ABSENT), max_size=8),
        ranked=st.lists(
            st.builds(
                RankedTerm,
                st.sampled_from(DOC_VOCAB + ABSENT),
                st.sampled_from([-0.5, 0.0, 0.25, 0.5, 0.5, 1.0]),
            ),
            max_size=8,
        ),
        sort_ranked=st.booleans(),
        target=st.integers(1, 12),
    )
    def test_identical_lists(self, freqs, current, ranked, sort_ranked, target) -> None:
        if sort_ranked:
            ranked = sorted(ranked, key=lambda rt: (-rt.score, rt.term))
        document = counted("p", freqs)
        assert select_index_terms(
            document, current, ranked, target
        ) == reference_select_index_terms(document, current, ranked, target)



def two_sort_order(freqs) -> list:
    """The padding order ``select_index_terms`` used before it asked
    ``Document.top_terms``: alphabetical, then a stable sort by count
    descending."""
    order = sorted(freqs)
    order.sort(key=freqs.__getitem__, reverse=True)
    return order


class TestPaddingIsTheTopTermsOrder:
    """The padding takes the first unchosen terms of
    ``document.top_terms(target)``; the two stable sorts it replaced
    give the same ``(-count, term)`` order, ties included."""

    @settings(max_examples=300, deadline=None)
    @given(
        freqs=st.dictionaries(st.sampled_from(DOC_VOCAB), st.integers(1, 3), min_size=1),
        ranked=st.lists(st.sampled_from(DOC_VOCAB + ABSENT), unique=True, max_size=6),
        target=st.integers(1, 12),
    )
    def test_padding_follows_the_two_sorts(self, freqs, ranked, target) -> None:
        document = counted("p", freqs)
        order = two_sort_order(freqs)
        assert document.top_terms(len(order)) == order
        evidence = [RankedTerm(term, 1.0) for term in ranked]
        chosen = ranked[:target]
        padding = [t for t in order if t not in chosen][: target - len(chosen)]
        assert select_index_terms(document, [], evidence, target) == chosen + padding
