"""Tests for the similarity functions."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.similarity import lee_similarity


class TestLeeSimilarity:
    """The paper's sim(Q,D) = Σ w_Q·w_D / sqrt(|D|)."""

    def test_formula(self) -> None:
        q = {"a": 2.0, "b": 1.0}
        d = {"a": 0.5, "b": 1.5}
        assert lee_similarity(q, d, doc_term_count=4) == pytest.approx(
            (2.0 * 0.5 + 1.0 * 1.5) / 2.0
        )

    def test_missing_doc_terms_score_zero(self) -> None:
        """A query term the document never published contributes 0 —
        the 'w_ij erroneously assumed to be zero' effect of Section 4."""
        q = {"a": 2.0, "b": 3.0}
        d = {"a": 1.0}
        assert lee_similarity(q, d, 1) == pytest.approx(2.0)

    def test_zero_length_document(self) -> None:
        assert lee_similarity({"a": 1.0}, {"a": 1.0}, 0) == 0.0

    def test_no_overlap(self) -> None:
        assert lee_similarity({"a": 1.0}, {"b": 1.0}, 9) == 0.0

    def test_longer_documents_penalized(self) -> None:
        q = {"a": 1.0}
        d = {"a": 1.0}
        assert lee_similarity(q, d, 4) > lee_similarity(q, d, 16)


@given(
    st.dictionaries(
        st.sampled_from(list("abcdef")),
        st.floats(min_value=0.0, max_value=10.0),
        max_size=6,
    ),
    st.dictionaries(
        st.sampled_from(list("abcdef")),
        st.floats(min_value=0.0, max_value=10.0),
        max_size=6,
    ),
    st.integers(min_value=1, max_value=1000),
)
def test_lee_similarity_nonnegative_and_scales(q: dict, d: dict, length: int) -> None:
    sim = lee_similarity(q, d, length)
    assert sim >= 0.0
    # Doubling all query weights doubles the score (bilinearity).
    doubled = lee_similarity({k: 2 * v for k, v in q.items()}, d, length)
    assert doubled == pytest.approx(2 * sim, abs=1e-6)
