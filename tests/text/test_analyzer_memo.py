"""The vocabulary memo changes no analyzed term (ISSUE 15).

``Analyzer.analyze`` maps each raw token to its final term through one
memo per analyzer instead of running the pipeline per occurrence.  The
reference below *is* the per-occurrence pipeline it replaced; every
test compares against it.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import Analyzer, PorterStemmer, Tokenizer
from repro.memo import BoundedMemo

#: Kelvin sign (lower-cases to ASCII "k"), dotted capital I (lower-cases
#: to "i" + combining dot), sharp s, and a titlecase digraph.
UNICODE_TRAPS = ["K", "İ", "ß", "ǅ"]


def per_occurrence(analyzer: Analyzer, text: str) -> List[str]:
    """Tokenize → stop-word filter → stem, once per token occurrence."""
    tok = analyzer.tokenizer
    terms = []
    for match in re.finditer(r"[A-Za-z0-9]+", text):
        token = match.group().lower()
        if not tok.min_length <= len(token) <= tok.max_length:
            continue
        if (not tok.keep_numbers and token.isdigit()) or token in analyzer.stop_words:
            continue
        final = analyzer.stemmer.stem(token) if analyzer.enable_stemming else token
        if final:
            terms.append(final)
    return terms


def analyzers() -> List[Analyzer]:
    return [
        Analyzer(),
        Analyzer(enable_stemming=False),
        Analyzer(stop_words=frozenset()),
        Analyzer(tokenizer=Tokenizer(keep_numbers=True, min_length=1)),
    ]


words = st.one_of(
    st.sampled_from(
        ["retrieving", "Retrieval", "PEERS", "indexes", "caresses", "ponies", "sky", "mp3",
         "3com", "x86", "The", "AND", "oF", "tHe", "a", "I", "7", "42", "2007", "0" * 41,
         "a" * 40, "b" * 41, "ab", "ase", *UNICODE_TRAPS, "KKelvin", "İstanbul",
         "straße", "ǅungla"]
    ),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=12),
    st.text(alphabet="0123456789", min_size=1, max_size=6),
    st.text(alphabet="abcXYZ0123", min_size=1, max_size=8),
    st.text(min_size=1, max_size=6),
)
separators = st.sampled_from([" ", "  ", "-", ", ", ".\n", "_", "'", "\t"])
texts = st.lists(st.tuples(words, separators), max_size=40).map(
    lambda parts: "".join(word + sep for word, sep in parts)
)


@settings(max_examples=200, deadline=None)
@given(text=texts)
def test_analyze_equals_per_occurrence_pipeline(text: str) -> None:
    for analyzer in analyzers():
        expected = per_occurrence(analyzer, text)
        assert analyzer.analyze(text) == expected  # cold memo
        assert analyzer.analyze(text) == expected  # warm memo


@settings(max_examples=100, deadline=None)
@given(text=texts)
def test_term_frequencies_keep_first_occurrence_order(text: str) -> None:
    analyzer = Analyzer()
    expected = Counter(per_occurrence(analyzer, text))  # insertion-ordered
    assert list(analyzer.term_frequencies(text).items()) == list(expected.items())


@pytest.mark.parametrize("trap", UNICODE_TRAPS)
def test_non_ascii_letters_never_become_tokens(trap: str) -> None:
    # Lower-casing before cutting the runs would turn the Kelvin sign
    # into "k" and grow "i̇" out of the dotted I; the run is cut first.
    analyzer = Analyzer(tokenizer=Tokenizer(min_length=1), stop_words=frozenset())
    assert analyzer.analyze(trap) == []
    assert analyzer.analyze(f"ab{trap}cd") == ["ab", "cd"]
    # The memo keys on a run's ASCII bytes: no key holds the trap.
    assert set(analyzer._memo) == {b"ab", b"cd"}


def test_case_variants_are_separate_keys_with_one_term() -> None:
    analyzer = Analyzer()
    assert analyzer.analyze("Peers PEERS peers The THE") == ["peer"] * 3
    assert {b"Peers", b"PEERS", b"peers", b"The", b"THE"} <= analyzer._memo.keys()
    assert analyzer._memo[b"THE"] is None


def test_analyzers_with_different_settings_share_no_memo_entry() -> None:
    stemmed, unstemmed, no_stop, numeric = analyzers()
    text = "The running peers of 2007 x"
    assert stemmed.analyze(text) == ["run", "peer"]
    assert unstemmed.analyze(text) == ["running", "peers"]
    assert no_stop.analyze(text) == ["the", "run", "peer", "of"]
    assert numeric.analyze(text) == ["run", "peer", "2007", "x"]
    memos = [a._memo for a in (stemmed, unstemmed, no_stop, numeric)]
    assert len({id(m) for m in memos}) == 4
    assert stemmed._memo[b"running"] == "run" and unstemmed._memo[b"running"] == "running"
    assert stemmed._memo[b"The"] is None and no_stop._memo[b"The"] == "the"
    assert stemmed._memo[b"2007"] is None and numeric._memo[b"2007"] == "2007"
    # A second pass through warm memos still answers per analyzer.
    assert unstemmed.analyze(text) == ["running", "peers"]
    assert numeric.analyze(text) == ["run", "peer", "2007", "x"]


def test_memo_is_bounded_by_the_stemmer_cache_size() -> None:
    assert Analyzer()._memo._bound == PorterStemmer.CACHE_SIZE


def test_filling_the_memo_past_its_bound_changes_no_output() -> None:
    analyzer = Analyzer()
    analyzer._memo = BoundedMemo(analyzer._final_term, 8)
    reference = Analyzer()
    text = " ".join(f"word{i} running The word{i % 5}" for i in range(60))
    assert analyzer.analyze(text) == per_occurrence(reference, text)
    assert 0 < len(analyzer._memo) <= 8
    assert analyzer.analyze(text) == reference.analyze(text)
    assert analyzer.term_frequencies(text) == reference.term_frequencies(text)
