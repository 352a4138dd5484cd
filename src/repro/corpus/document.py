"""Document model.

A :class:`Document` carries its raw text plus the analyzed term
statistics every retrieval system needs: term frequencies, document
length (number of analyzed term occurrences), and the top-frequency
ordering used for initial index-term selection (paper Section 5.2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List

from ..text.analyzer import Analyzer, DEFAULT_ANALYZER


@dataclass
class Document:
    """A single shareable document.

    Attributes
    ----------
    doc_id:
        Corpus-unique identifier (string, e.g. ``"d000417"``).
    text:
        Raw text; analysis is performed lazily once and cached.
    """

    doc_id: str
    text: str
    _term_freqs: Counter = field(default=None, repr=False, compare=False)  # type: ignore[assignment]
    _length: int = field(default=0, repr=False, compare=False)

    def analyze(self, analyzer: Analyzer = DEFAULT_ANALYZER) -> None:
        """Analyze the text (idempotent) and cache term statistics."""
        if self._term_freqs is not None:
            return
        freqs = analyzer.term_frequencies(self.text)
        self._term_freqs = freqs
        self._length = sum(freqs.values())

    @property
    def term_freqs(self) -> Counter:
        """Analyzed term → raw occurrence count.  Analyzes on first use."""
        if self._term_freqs is None:
            self.analyze()
        return self._term_freqs

    @property
    def length(self) -> int:
        """Document length = total analyzed term occurrences."""
        if self._term_freqs is None:
            self.analyze()
        return self._length

    @property
    def unique_terms(self) -> int:
        """Number of distinct analyzed terms."""
        return len(self.term_freqs)

    def contains(self, term: str) -> bool:
        """Whether the analyzed document contains *term*."""
        return term in self.term_freqs

    def top_terms(self, k: int) -> List[str]:
        """The *k* most frequent analyzed terms.

        Ties are broken alphabetically so selection is deterministic —
        important because both SPRITE's initial selection and the whole
        eSearch baseline are defined in terms of "top frequent terms".
        Selected by threshold, as :meth:`RankedList.top_k` does: the
        k-th largest count comes from a C sort of the bare counts, and
        only the terms counted at least that *floor* are ordered, as
        ``(-count, term)`` tuples with no key function, before the cut
        at *k*.  A term tied with the floor reaches the ordering, so the
        cut breaks the tie alphabetically.  ``k <= 0`` gives ``[]``.
        """
        freqs = self.term_freqs
        if k <= 0:
            return []
        if k < len(freqs):
            floor = sorted(freqs.values(), reverse=True)[k - 1]
            ranked = sorted([(-count, t) for t, count in freqs.items() if count >= floor])
        else:
            ranked = sorted([(-count, t) for t, count in freqs.items()])
        return [t for __, t in ranked[:k]]
