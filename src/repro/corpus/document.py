"""Document model.

A :class:`Document` carries its raw text plus the analyzed term
statistics every retrieval system needs: term frequencies, document
length (number of analyzed term occurrences), and the top-frequency
ordering used for initial index-term selection (paper Section 5.2).

The term frequencies are two flat columns in the analyzer's
first-occurrence order: a tuple of the distinct terms and an
``array('I')`` of their counts, about 12 B per distinct term.  A caller
that tests many terms at once builds a set for that call
(:meth:`Document.term_set`); the document keeps none, since a set would
cost the bytes the columns save.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterator, List, Set, Tuple

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
    _terms: Tuple[str, ...] = field(default=None, repr=False, compare=False)  # type: ignore[assignment]
    _counts: array = field(default=None, repr=False, compare=False)  # type: ignore[assignment]
    _length: int = field(default=0, repr=False, compare=False)

    def analyze(self, analyzer: Analyzer = DEFAULT_ANALYZER) -> None:
        """Analyze the text (idempotent) and cache term statistics."""
        if self._terms is not None:
            return
        freqs = analyzer.term_frequencies(self.text)
        counts = list(freqs.values())  # a list sizes the array exactly
        self._terms = tuple(freqs)
        self._counts = array("I", counts)
        self._length = sum(counts)

    def _columns(self) -> Tuple[Tuple[str, ...], array]:
        """``(terms, counts)``, analyzing on first use."""
        if self._terms is None:
            self.analyze()
        return self._terms, self._counts

    @property
    def length(self) -> int:
        """Document length = total analyzed term occurrences."""
        if self._terms is None:
            self.analyze()
        return self._length

    @property
    def unique_terms(self) -> int:
        """Number of distinct analyzed terms."""
        return len(self._columns()[0])

    def count(self, term: str) -> int:
        """Occurrences of the analyzed *term* (0 when absent).

        A scan of the terms column, read once per published posting, so
        it checks for analysis itself rather than through
        :meth:`_columns`."""
        terms = self._terms
        if terms is None:
            self.analyze()
            terms = self._terms
        try:
            return self._counts[terms.index(term)]
        except ValueError:
            return 0

    def contains(self, term: str) -> bool:
        """Whether the analyzed document contains *term*."""
        return term in self._columns()[0]

    def term_counts(self) -> Iterator[Tuple[str, int]]:
        """``(term, count)`` per distinct term, in first-occurrence order."""
        return zip(*self._columns())

    def term_set(self) -> Set[str]:
        """A new set of the distinct terms, for a caller that tests many
        terms against the document in one call."""
        return set(self._columns()[0])

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
        terms, counts = self._columns()
        if k <= 0:
            return []
        if k < len(terms):
            floor = sorted(counts, reverse=True)[k - 1]
            ranked = sorted([(-count, t) for t, count in zip(terms, counts) if count >= floor])
        else:
            ranked = sorted([(-count, t) for t, count in zip(terms, counts)])
        return [t for __, t in ranked[:k]]
