"""Property-based tests for the learning signal (paper Section 5.3).

Hypothesis-driven checks of the algebraic properties the learning loop
silently relies on: Score is non-negative and monotone in both of its
inputs, qScore is a proper overlap ratio, the incremental learner is
insensitive to query arrival order (max is associative, QF cumulative),
and term selection under the max-terms cap is deterministic with
alphabetical tie-breaking.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.learning import (
    IncrementalLearner,
    RankedTerm,
    naive_rank_terms,
    select_index_terms,
)
from repro.core.scoring import combined_score, q_score
from repro.corpus import Document

#: A small shared alphabet keeps query/document overlap likely.
TERMS = st.sampled_from([f"t{i}" for i in range(12)])
QUERY = st.lists(TERMS, min_size=1, max_size=4, unique=True).map(tuple)
QUERIES = st.lists(QUERY, min_size=0, max_size=25)

SCORES = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
QFS = st.integers(min_value=0, max_value=10**6)


def make_document(terms: frozenset) -> Document:
    """A document whose analyzed term set is exactly *terms* (the tN
    tokens survive the analyzer unchanged)."""
    return Document(doc_id="pd", text=" ".join(sorted(terms)) or "solitary")


class TestCombinedScore:
    @given(qscore=SCORES, qf=QFS)
    def test_non_negative(self, qscore: float, qf: int) -> None:
        assert combined_score(qscore, qf) >= 0.0

    @given(qscore=SCORES, qf=QFS)
    def test_zero_iff_no_evidence(self, qscore: float, qf: int) -> None:
        score = combined_score(qscore, qf)
        if qf <= 1 or qscore <= 0.0:
            assert score == 0.0
        else:
            assert score > 0.0

    @given(qscore=SCORES, qf_low=QFS, qf_high=QFS)
    def test_monotone_in_query_frequency(
        self, qscore: float, qf_low: int, qf_high: int
    ) -> None:
        low, high = sorted((qf_low, qf_high))
        assert combined_score(qscore, low) <= combined_score(qscore, high)

    @given(a=SCORES, b=SCORES, qf=QFS)
    def test_monotone_in_qscore(self, a: float, b: float, qf: int) -> None:
        low, high = sorted((a, b))
        assert combined_score(low, qf) <= combined_score(high, qf)


class TestQScore:
    @given(
        query=st.sets(TERMS, min_size=1, max_size=6),
        doc=st.sets(TERMS, max_size=12),
    )
    def test_is_an_overlap_ratio(self, query: set, doc: set) -> None:
        score = q_score(query, doc)
        assert 0.0 <= score <= 1.0
        if query <= doc:
            assert score == 1.0
        if not (query & doc):
            assert score == 0.0

    @given(doc=st.sets(TERMS, max_size=12))
    def test_empty_query_scores_zero(self, doc: set) -> None:
        assert q_score(set(), doc) == 0.0

    @given(query=st.sets(TERMS, min_size=1, max_size=6), doc=st.sets(TERMS, max_size=12))
    def test_sequence_and_set_inputs_agree(self, query: set, doc: set) -> None:
        # duplicated sequence entries must not inflate the ratio
        assert q_score(sorted(query) * 2, doc) == q_score(query, doc)


class TestLearnerOrderInsensitivity:
    @settings(max_examples=50, deadline=None)
    @given(
        queries=QUERIES,
        doc_terms=st.frozensets(TERMS, min_size=1, max_size=12),
        split=st.integers(min_value=0, max_value=25),
    )
    def test_batching_does_not_change_rank_list(
        self, queries, doc_terms, split: int
    ) -> None:
        """Observing Q as one batch, or as any prefix/suffix split,
        yields the same statistics — the associativity Algorithm 1's
        incrementality rests on."""
        document = make_document(doc_terms)
        one_shot = IncrementalLearner(document)
        one_shot.observe(queries)
        batched = IncrementalLearner(document)
        cut = min(split, len(queries))
        batched.observe(queries[:cut])
        batched.observe(queries[cut:])
        assert one_shot.rank_list() == batched.rank_list()

    @settings(max_examples=50, deadline=None)
    @given(
        queries=QUERIES,
        doc_terms=st.frozensets(TERMS, min_size=1, max_size=12),
        seed=st.randoms(use_true_random=False),
    )
    def test_incremental_matches_naive_under_permutation(
        self, queries, doc_terms, seed
    ) -> None:
        """The incremental learner equals the naive full-history learner
        for any arrival order of the same query multiset."""
        document = make_document(doc_terms)
        shuffled = list(queries)
        seed.shuffle(shuffled)
        learner = IncrementalLearner(document)
        for query in shuffled:
            learner.observe([query])
        naive = [rt for rt in naive_rank_terms(document, queries) if rt.score > 0]
        incremental = [rt for rt in learner.rank_list() if rt.score > 0]
        assert incremental == naive

    @given(queries=QUERIES, doc_terms=st.frozensets(TERMS, min_size=1, max_size=12))
    def test_query_frequency_matches_learner_stats(
        self, queries, doc_terms
    ) -> None:
        document = make_document(doc_terms)
        learner = IncrementalLearner(document)
        learner.observe(queries)
        for term, stats in learner.stats.items():
            assert stats.query_frequency == sum(1 for q in queries if term in q)


class TestSelectionDeterminism:
    @settings(max_examples=50, deadline=None)
    @given(
        doc_terms=st.frozensets(TERMS, min_size=3, max_size=12),
        queries=QUERIES,
        target=st.integers(min_value=1, max_value=8),
    )
    def test_selection_is_deterministic_and_capped(
        self, doc_terms, queries, target: int
    ) -> None:
        document = make_document(doc_terms)
        learner = IncrementalLearner(document)
        learner.observe(queries)
        current = document.top_terms(3)
        first = select_index_terms(document, current, learner.rank_list(), target)
        second = select_index_terms(document, current, learner.rank_list(), target)
        assert first == second
        assert len(first) == min(target, len(set(document.term_freqs)))
        assert len(set(first)) == len(first)

    def test_equal_scores_break_ties_alphabetically(self) -> None:
        """Under the cap, equally scored terms are admitted in
        alphabetical order — replacement cannot depend on dict order."""
        document = Document(doc_id="tie", text="zeta yank xray walt vamp")
        rank = [
            RankedTerm("zeta", 0.5),
            RankedTerm("xray", 0.5),
            RankedTerm("yank", 0.5),
        ]
        ranked = sorted(rank, key=lambda rt: (-rt.score, rt.term))
        chosen = select_index_terms(document, ["walt"], ranked, target_size=2)
        assert chosen == ["xray", "yank"]

    def test_rank_list_tie_break_is_alphabetical(self) -> None:
        document = Document(doc_id="tie2", text="alpha beta")
        learner = IncrementalLearner(document)
        # two terms with identical evidence: same qScore, same QF
        learner.observe([("alpha", "beta"), ("alpha", "beta")])
        ranked = learner.rank_list()
        assert [rt.term for rt in ranked] == ["alpha", "beta"]
        assert ranked[0].score == ranked[1].score
