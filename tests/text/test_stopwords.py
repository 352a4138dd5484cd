"""Tests for the stop-word list."""

from __future__ import annotations

from repro.text.stopwords import LUCENE_STOP_WORDS


def test_lucene_list_has_33_words() -> None:
    """Lucene's StandardAnalyzer default English stop set is exactly 33
    words; the paper uses it verbatim."""
    assert len(LUCENE_STOP_WORDS) == 33


def test_expected_members() -> None:
    for word in ("the", "is", "a", "an", "and", "of", "to", "with", "will"):
        assert word in LUCENE_STOP_WORDS


def test_non_members() -> None:
    # Common English words NOT in Lucene's (deliberately small) list.
    for word in ("have", "from", "he", "she", "we", "you", "do"):
        assert word not in LUCENE_STOP_WORDS


def test_list_is_frozen() -> None:
    assert isinstance(LUCENE_STOP_WORDS, frozenset)
