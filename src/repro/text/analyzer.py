"""The end-to-end text analysis pipeline.

The paper preprocesses text "in the standard way: removing the terms in
the stop-word-list, and then stemming is applied to the remaining terms"
(Section 6).  :class:`Analyzer` packages tokenizer → stop-word filter →
stemmer into one object that both the centralized IR substrate and the
distributed systems share, so every system sees an identical term space.
"""

from __future__ import annotations

from collections import Counter
from typing import FrozenSet, List, Optional

from ..memo import BoundedMemo
from .stemmer import PorterStemmer
from .stopwords import LUCENE_STOP_WORDS
from .tokenizer import Tokenizer


class Analyzer:
    """Tokenize, filter stop words, and stem.

    The settings are read when a word is first seen and remembered per
    instance (see :meth:`analyze`); configure through the constructor,
    not by assigning attributes afterwards.

    Parameters
    ----------
    tokenizer:
        The :class:`~repro.text.tokenizer.Tokenizer` to use; defaults to
        the package default settings.
    stop_words:
        A frozen set of stop words; defaults to Lucene's list per the
        paper.  Pass ``frozenset()`` to disable stop-word removal.
    stemmer:
        A stemmer object exposing ``stem(word) -> str``; defaults to the
        from-scratch Porter stemmer.  Pass ``None`` to disable stemming.
    """

    def __init__(
        self,
        tokenizer: Tokenizer | None = None,
        stop_words: FrozenSet[str] = LUCENE_STOP_WORDS,
        stemmer: PorterStemmer | None = None,
        enable_stemming: bool = True,
    ) -> None:
        self.tokenizer = tokenizer if tokenizer is not None else Tokenizer()
        self.stop_words = stop_words
        self.stemmer = stemmer if stemmer is not None else PorterStemmer()
        self.enable_stemming = enable_stemming
        self._memo = BoundedMemo(self._final_term, PorterStemmer.CACHE_SIZE)

    def _final_term(self, run: bytes) -> Optional[str]:
        """The term one run contributes, or ``None``: length and digit
        rules, stop-word filter, stem — the whole pipeline for a single
        occurrence."""
        token = self.tokenizer.accept(run)
        if token is None or token in self.stop_words:
            return None
        if self.enable_stemming:
            token = self.stemmer.stem(token)
        return token or None

    def analyze(self, text: str) -> List[str]:
        """Return the analyzed term sequence for *text*.

        Order and multiplicity are preserved so callers can compute term
        frequencies and positional statistics.

        Each run maps to its final term through a vocabulary memo that
        lives as long as the analyzer (one per instance, bounded by
        ``PorterStemmer.CACHE_SIZE`` entries, cleared when full): a word
        pays the length/digit rules, the stop-word check and the stem
        once per corpus rather than once per document, and a document
        whose words are all known costs one encode / translate / split
        (:meth:`Tokenizer.runs`) and one C-level ``map``/``filter``.
        The memo keys on the run's bytes exactly as they were cut from
        the text, before decoding and lower-casing.

        >>> Analyzer().analyze("The retrieving peers are retrieving")
        ['retriev', 'peer', 'retriev']
        """
        return list(
            filter(None, map(self._memo.__getitem__, self.tokenizer.runs(text)))
        )

    def term_frequencies(self, text: str) -> Counter:
        """Return a ``Counter`` of analyzed term → occurrence count."""
        return Counter(self.analyze(text))

    def analyze_query(self, text: str) -> List[str]:
        """Analyze a query string into a deduplicated term list.

        Queries in the paper are keyword sets; duplicates within one
        query carry no meaning, so they are removed (first occurrence
        kept, order preserved for determinism).
        """
        seen = set()
        out: List[str] = []
        for term in self.analyze(text):
            if term not in seen:
                seen.add(term)
                out.append(term)
        return out


#: Shared default analyzer (Lucene stop words + Porter stemming).
DEFAULT_ANALYZER = Analyzer()
