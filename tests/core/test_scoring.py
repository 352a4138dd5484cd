"""Tests for qScore / QF / Score (paper Section 5.3)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.scoring import combined_score, q_score


class TestQScore:
    def test_full_overlap(self) -> None:
        assert q_score({"a", "b"}, {"a", "b", "c"}) == 1.0

    def test_partial_overlap(self) -> None:
        assert q_score({"a", "x", "y", "z"}, {"a", "b"}) == 0.25

    def test_no_overlap(self) -> None:
        assert q_score({"x"}, {"a"}) == 0.0

    def test_empty_query(self) -> None:
        assert q_score(set(), {"a"}) == 0.0

    def test_accepts_sequences(self) -> None:
        assert q_score(["a", "a", "b"], {"a"}) == 0.5  # deduped to {a,b}

    def test_asymmetry(self) -> None:
        """qScore normalizes by |Q|, NOT |D| — the paper's deliberate
        inversion of the conventional similarity role."""
        small_doc = {"a"}
        assert q_score({"a"}, small_doc) == 1.0
        assert q_score({"a", "b", "c", "d"}, small_doc) == 0.25


class TestCombinedScore:
    def test_paper_figure_2b_arithmetic(self) -> None:
        """The worked example pins log to base 10:
        0.75·log 20 = 0.975, 0.75·log 5 = 0.524, (1/3)·log 30 = 0.492,
        (1/3)·log 32 = 0.501 (the paper prints 1/3 as 0.33)."""
        assert combined_score(0.75, 20) == pytest.approx(0.975, abs=2e-3)
        assert combined_score(0.75, 5) == pytest.approx(0.524, abs=2e-3)
        assert combined_score(1 / 3, 30) == pytest.approx(0.492, abs=2e-3)
        assert combined_score(1 / 3, 32) == pytest.approx(0.501, abs=2e-3)

    def test_figure_2b_replacement_decision(self) -> None:
        """t3 (0.75, QF 5) must outrank t5 (1/3, QF 32): the example's
        eviction under a 3-term cap."""
        assert combined_score(0.75, 5) > combined_score(1 / 3, 32)

    def test_single_query_scores_zero(self) -> None:
        assert combined_score(0.9, 1) == 0.0

    def test_zero_qf(self) -> None:
        assert combined_score(0.9, 0) == 0.0

    def test_zero_qscore(self) -> None:
        assert combined_score(0.0, 100) == 0.0

    def test_log_damps_qf(self) -> None:
        """Growing QF tenfold adds exactly +qscore to the score."""
        assert combined_score(0.5, 100) - combined_score(0.5, 10) == pytest.approx(0.5)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10**6),
)
def test_score_nonnegative(qs: float, qf: int) -> None:
    assert combined_score(qs, qf) >= 0.0


@given(
    st.floats(min_value=0.01, max_value=1.0),
    st.integers(min_value=2, max_value=10**4),
    st.integers(min_value=2, max_value=10**4),
)
def test_score_monotone_in_qf(qs: float, qf1: int, qf2: int) -> None:
    lo, hi = sorted((qf1, qf2))
    assert combined_score(qs, lo) <= combined_score(qs, hi)


@given(
    st.sets(st.sampled_from(list("abcdefgh")), min_size=1),
    st.sets(st.sampled_from(list("abcdefgh"))),
)
def test_qscore_bounded(query: set, doc: set) -> None:
    assert 0.0 <= q_score(query, doc) <= 1.0
