"""Tests for RankedList."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.ranking import RankedList, ScoredDoc
from ..probes import ids


@pytest.fixture()
def ranked() -> RankedList:
    return RankedList({"d1": 0.5, "d2": 0.9, "d3": 0.1, "d4": 0.9})


class TestOrdering:
    def test_descending_by_score(self, ranked: RankedList) -> None:
        scores = [e.score for e in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_tie_break_by_doc_id(self, ranked: RankedList) -> None:
        # d2 and d4 tie at 0.9 → d2 first (ascending id).
        assert ranked.top_ids(2) == ["d2", "d4"]

    def test_accepts_pairs(self) -> None:
        rl = RankedList([("x", 1.0), ("y", 2.0)])
        assert rl.top_ids(2) == ["y", "x"]

    def test_deterministic(self, ranked: RankedList) -> None:
        again = RankedList({"d4": 0.9, "d3": 0.1, "d2": 0.9, "d1": 0.5})
        assert ids(ranked) == ids(again)


class TestAccess:
    def test_len(self, ranked: RankedList) -> None:
        assert len(ranked) == 4

    def test_getitem(self, ranked: RankedList) -> None:
        assert ranked[0] == ScoredDoc("d2", 0.9)

    def test_top_k_shorter_than_list(self, ranked: RankedList) -> None:
        assert len(ranked.top(2)) == 2

    def test_top_k_longer_than_list(self, ranked: RankedList) -> None:
        assert len(ranked.top(99)) == 4


class TestTruncate:
    def test_truncate_produces_new_list(self, ranked: RankedList) -> None:
        top2 = ranked.truncate(2)
        assert len(top2) == 2
        assert ids(top2) == ["d2", "d4"]
        assert len(ranked) == 4  # original untouched

    def test_truncate_beyond_length(self, ranked: RankedList) -> None:
        assert len(ranked.truncate(100)) == 4

    def test_empty_list(self) -> None:
        rl = RankedList({})
        assert len(rl) == 0
        assert rl.top_ids(5) == []


class TestTopK:
    """Selection by threshold must equal full-sort-then-slice, including
    deterministic tie ordering — also where the tie straddles the k-th
    score the threshold is taken at."""

    def test_top_k_equals_sort_and_slice(self) -> None:
        scores = {"a": 1.0, "b": 3.0, "c": 2.0, "d": 3.0, "e": 0.5}
        assert ids(RankedList.top_k(scores, 3)) == ids(RankedList(scores))[:3]

    def test_tie_ordering_pinned(self) -> None:
        # Four-way tie: selection must keep ascending doc-id order and
        # cut deterministically at k.
        scores = {"d": 1.0, "b": 1.0, "c": 1.0, "a": 1.0, "z": 2.0}
        assert ids(RankedList.top_k(scores, 3)) == ["z", "a", "b"]

    def test_top_k_zero_and_beyond_length(self) -> None:
        scores = {"a": 1.0, "b": 2.0}
        assert ids(RankedList.top_k(scores, 0)) == []
        assert ids(RankedList.top_k(scores, 99)) == ["b", "a"]

    @given(
        st.dictionaries(
            st.text(alphabet="abcdxyz", min_size=1, max_size=4),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            max_size=30,
        ),
        st.integers(min_value=0, max_value=35),
    )
    def test_top_k_matches_truncate_and_sort(self, scores: dict, k: int) -> None:
        full = RankedList(scores)
        selected = RankedList.top_k(scores, k)
        assert ids(selected) == ids(full)[:k]
        assert ids(selected) == ids(full.truncate(k))
        assert [e.score for e in selected] == [e.score for e in full][:k]


    @given(
        # Four score values over up to 30 documents: most draws tie
        # several documents with the k-th one.
        st.dictionaries(
            st.text(alphabet="abcdxyz", min_size=1, max_size=3),
            st.sampled_from([0.0, -0.0, 0.5, 2.0]),
            max_size=30,
        ),
        st.sampled_from(["0", "1", "n - 1", "n", "n + 1"]),
        st.booleans(),
    )
    def test_ties_across_the_floor(self, scores: dict, which: str, as_pairs: bool) -> None:
        n = len(scores)
        k = {"0": 0, "1": 1, "n - 1": max(0, n - 1), "n": n, "n + 1": n + 1}[which]
        scored = list(scores.items()) if as_pairs else scores
        selected = RankedList.top_k(scored, k)
        reference = RankedList(scored).truncate(k)
        assert list(selected) == list(reference)
        assert [repr(e.score) for e in selected] == [repr(e.score) for e in reference]
        assert list(selected) == sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def test_pairs_may_repeat_a_document(self) -> None:
        # A pair sequence is not a mapping: nothing merges the repeats.
        pairs = [("a", 1.0), ("b", 2.0), ("a", 3.0), ("c", 2.0)]
        assert list(RankedList.top_k(pairs, 3)) == [("a", 3.0), ("b", 2.0), ("c", 2.0)]
        assert list(RankedList.top_k(pairs, 3)) == list(RankedList(pairs).truncate(3))


class TestDegenerateK:
    """``top_k`` and ``truncate`` promise the same list for the same k —
    at and below zero too, where a slice would count from the far end."""

    SCORES = {"a": 1.0, "b": 3.0, "c": 2.0}

    @pytest.mark.parametrize("k", [-1, -20])
    def test_negative_k_is_an_error(self, k: int) -> None:
        with pytest.raises(ValueError, match="k must be >= 0"):
            RankedList.top_k(self.SCORES, k)
        with pytest.raises(ValueError, match="k must be >= 0"):
            RankedList.top_k(list(self.SCORES.items()), k)
        with pytest.raises(ValueError, match="k must be >= 0"):
            RankedList(self.SCORES).truncate(k)

    def test_zero_k_is_the_empty_list(self) -> None:
        assert list(RankedList.top_k(self.SCORES, 0)) == []
        assert list(RankedList(self.SCORES).truncate(0)) == []
        assert ids(RankedList.top_k({}, 0)) == ids(RankedList.top_k({}, 5)) == []


class TestScoredDoc:
    def test_fields_equality_and_unpacking(self) -> None:
        entry = RankedList({"d1": 0.25})[0]
        assert isinstance(entry, ScoredDoc)
        assert (entry.doc_id, entry.score) == ("d1", 0.25)
        assert entry == ScoredDoc("d1", 0.25) == ScoredDoc(doc_id="d1", score=0.25)
        assert entry != ScoredDoc("d1", 0.5) and entry != ScoredDoc("d2", 0.25)
        assert hash(entry) == hash(ScoredDoc("d1", 0.25))
        doc_id, score = entry
        assert (doc_id, score) == ("d1", 0.25)
        with pytest.raises(AttributeError):
            entry.score = 1.0  # type: ignore[misc]
