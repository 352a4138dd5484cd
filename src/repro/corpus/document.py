"""Document model.

A :class:`Document` carries its raw text plus the analyzed term
statistics every retrieval system needs: term frequencies, document
length (number of analyzed term occurrences), and the top-frequency
ordering used for initial index-term selection (paper Section 5.2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Tuple

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
    title:
        Optional human-readable title (not analyzed by default —
        the paper indexes document content).
    """

    doc_id: str
    text: str
    title: str = ""
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

    def normalized_tf(self, term: str) -> float:
        """Term frequency normalized by document length (paper Section 4:
        "t_ik is the frequency of term k in document i normalized by the
        document length")."""
        if self.length == 0:
            return 0.0
        return self.term_freqs.get(term, 0) / self.length

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

    def as_weight_pairs(self) -> List[Tuple[str, int]]:
        """(term, raw frequency) pairs sorted by descending frequency."""
        return sorted(self.term_freqs.items(), key=lambda kv: (-kv[1], kv[0]))
