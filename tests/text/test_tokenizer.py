"""Tests for the tokenizer."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.tokenizer import DEFAULT_TOKENIZER, Tokenizer

#: The tokenizing rule as a regex — the reference the byte-level runs
#: are held to.  ``src`` has no regex of it.
REFERENCE_RUNS = re.compile(r"[A-Za-z0-9]+")

#: Kelvin sign (lower-cases to ASCII "k"), dotted capital I (to "i" + a
#: combining dot), the "fi" ligature (upper-cases to "FI") and lone
#: surrogates, which no UTF codec accepts.
NON_ASCII_TRAPS = ["\u212a", "\u0130", "\ufb01", "\ud800", "\udc80"]


def tokenize(text: str, tokenizer: Tokenizer = DEFAULT_TOKENIZER) -> list:
    """The tokens of *text* as the analyzer cuts them: each run that
    :meth:`Tokenizer.accept` keeps."""
    tokens = (tokenizer.accept(run) for run in tokenizer.runs(text))
    return [token for token in tokens if token is not None]


def reference_tokens(tokenizer: Tokenizer, text: str) -> list:
    out = []
    for raw in REFERENCE_RUNS.findall(text):
        token = raw.lower()
        if not tokenizer.min_length <= len(token) <= tokenizer.max_length:
            continue
        if not tokenizer.keep_numbers and token.isdigit():
            continue
        out.append(token)
    return out


@settings(max_examples=500)
@given(st.text(st.characters(exclude_categories=())))
def test_runs_equal_the_regex_on_any_text(text: str) -> None:
    """Any ``str`` — surrogates included — cuts into the regex's runs:
    as bytes, the key of the analyzer's memo."""
    expected = REFERENCE_RUNS.findall(text)
    assert Tokenizer.runs(text) == [run.encode("ascii") for run in expected]
    for tokenizer in (DEFAULT_TOKENIZER, Tokenizer(min_length=1, keep_numbers=True)):
        assert tokenize(text, tokenizer) == reference_tokens(tokenizer, text)


@pytest.mark.parametrize(
    "trap", NON_ASCII_TRAPS, ids=["kelvin", "dotted-I", "fi", "hi-surrogate", "lo-surrogate"]
)
def test_a_non_ascii_code_point_is_a_separator(trap: str) -> None:
    text = f"ab{trap}cd {trap}{trap} Ke{trap}lvin{trap}"
    assert Tokenizer.runs(text) == [b"ab", b"cd", b"Ke", b"lvin"]
    assert tokenize(text) == ["ab", "cd", "ke", "lvin"]
    assert tokenize(trap, Tokenizer(min_length=1)) == []


def test_accept_decodes_a_run() -> None:
    tokenizer = Tokenizer()
    assert tokenizer.accept(b"PeErS") == "peers"
    assert tokenizer.accept(b"x") is None and tokenizer.accept(b"2007") is None
    assert Tokenizer(keep_numbers=True).accept(b"2007") == "2007"


class TestBasicTokenization:
    def test_splits_on_punctuation(self) -> None:
        assert tokenize("peer-to-peer, text; retrieval!") == [
            "peer", "to", "peer", "text", "retrieval",
        ]

    def test_lowercases(self) -> None:
        assert tokenize("Chord DHT Network") == ["chord", "dht", "network"]

    def test_empty_text(self) -> None:
        assert tokenize("") == []

    def test_whitespace_only(self) -> None:
        assert tokenize("   \t\n  ") == []

    def test_unicode_punctuation_is_separator(self) -> None:
        assert tokenize("query…document") == ["query", "document"]

    def test_numbers_dropped_by_default(self) -> None:
        assert tokenize("chapter 42 section 7b") == ["chapter", "section", "7b"]

    def test_single_letters_dropped_by_default(self) -> None:
        assert tokenize("a b chord c") == ["chord"]


class TestConfiguration:
    def test_keep_numbers(self) -> None:
        t = Tokenizer(keep_numbers=True)
        assert tokenize("top 20 answers", t) == ["top", "20", "answers"]

    def test_min_length(self) -> None:
        t = Tokenizer(min_length=4)
        assert tokenize("the chord ring", t) == ["chord", "ring"]

    def test_max_length_drops_blobs(self) -> None:
        t = Tokenizer(max_length=10)
        blob = "x" * 50
        assert tokenize(f"short {blob} words", t) == ["short", "words"]

    def test_default_length_bounds_are_inclusive(self) -> None:
        t = Tokenizer()
        assert (t.min_length, t.max_length) == (2, 40)
        assert tokenize("a ab " + "x" * 40 + " " + "y" * 41, t) == ["ab", "x" * 40]

    def test_equal_length_bounds_are_allowed(self) -> None:
        assert tokenize("ab abc abcd", Tokenizer(min_length=3, max_length=3)) == ["abc"]

    def test_invalid_min_length(self) -> None:
        with pytest.raises(ValueError):
            Tokenizer(min_length=0)

    def test_invalid_max_length(self) -> None:
        with pytest.raises(ValueError):
            Tokenizer(min_length=5, max_length=4)


@given(st.text(max_size=500))
def test_tokens_are_lowercase_alnum(text: str) -> None:
    for token in tokenize(text):
        assert token == token.lower()
        assert token.isalnum()


@given(st.text(max_size=500))
def test_token_lengths_within_bounds(text: str) -> None:
    t = Tokenizer(min_length=2, max_length=40)
    for token in tokenize(text, t):
        assert 2 <= len(token) <= 40


@given(st.lists(st.sampled_from(["chord", "peer", "index", "query"]), max_size=20))
def test_space_joined_words_roundtrip(words: list) -> None:
    """Tokenizing space-joined known-good words returns them verbatim."""
    assert tokenize(" ".join(words)) == words
