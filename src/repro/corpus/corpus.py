"""Corpus container and corpus-level term statistics.

Besides holding documents, :class:`Corpus` exposes the global statistics
the paper's query generator needs — in particular the term-importance
metric of Section 6.1:

    Distribution(t) = Freq(t) × Num(t)

where ``Freq(t)`` is the total occurrence count of *t* across all
documents and ``Num(t)`` the number of documents containing *t*.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional

from ..exceptions import CorpusError, DocumentNotFoundError
from ..text.analyzer import Analyzer, DEFAULT_ANALYZER
from .document import Document


class Corpus:
    """An in-memory document collection with cached global statistics.

    Parameters
    ----------
    documents:
        The documents to include.  Ids must be unique.
    analyzer:
        Analyzer shared by all documents (and later by all systems).
    """

    def __init__(
        self,
        documents: Iterable[Document],
        analyzer: Analyzer = DEFAULT_ANALYZER,
    ) -> None:
        self.analyzer = analyzer
        self._docs: Dict[str, Document] = {}
        for doc in documents:
            if doc.doc_id in self._docs:
                raise CorpusError(f"duplicate document id: {doc.doc_id!r}")
            self._docs[doc.doc_id] = doc
        if not self._docs:
            raise CorpusError("corpus must contain at least one document")
        self._doc_freq: Optional[Counter] = None
        self._coll_freq: Optional[Counter] = None

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._docs.values())

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def get(self, doc_id: str) -> Document:
        """Fetch a document by id, raising :class:`DocumentNotFoundError`
        if absent."""
        try:
            return self._docs[doc_id]
        except KeyError:
            raise DocumentNotFoundError(doc_id) from None

    @property
    def doc_ids(self) -> List[str]:
        """All document ids, in insertion order."""
        return list(self._docs)

    # -- turnover ----------------------------------------------------------

    def replace(self, doc: Document) -> Document:
        """Swap in an edited revision of an existing document.

        The id must already be present (turnover edits documents, it
        never grows the collection), insertion order is preserved, and
        the cached global statistics are invalidated so
        :attr:`document_frequency` et al. reflect the revision.  Returns
        the document that was replaced.
        """
        if doc.doc_id not in self._docs:
            raise DocumentNotFoundError(doc.doc_id)
        previous = self._docs[doc.doc_id]
        self._docs[doc.doc_id] = doc
        self._doc_freq = None
        self._coll_freq = None
        return previous

    # -- global statistics ---------------------------------------------------

    def _build_stats(self) -> None:
        if self._doc_freq is not None:
            return
        doc_freq: Counter = Counter()
        coll_freq: Counter = Counter()
        for doc in self._docs.values():
            doc.analyze(self.analyzer)
            for term, freq in doc.term_freqs.items():
                doc_freq[term] += 1
                coll_freq[term] += freq
        self._doc_freq = doc_freq
        self._coll_freq = coll_freq

    @property
    def document_frequency(self) -> Counter:
        """term → number of documents containing it (``Num(t)``)."""
        self._build_stats()
        assert self._doc_freq is not None
        return self._doc_freq

    @property
    def collection_frequency(self) -> Counter:
        """term → total occurrences across the corpus (``Freq(t)``)."""
        self._build_stats()
        assert self._coll_freq is not None
        return self._coll_freq

    @property
    def vocabulary(self) -> List[str]:
        """All analyzed terms occurring anywhere in the corpus (sorted)."""
        return sorted(self.document_frequency)

    def distribution_table(self) -> Dict[str, float]:
        """``Distribution(t)`` for every vocabulary term, precomputed."""
        self._build_stats()
        return {
            t: float(self._coll_freq[t] * self._doc_freq[t])  # type: ignore[index]
            for t in self._doc_freq  # type: ignore[union-attr]
        }

    @property
    def total_terms(self) -> int:
        """Total analyzed term occurrences in the corpus."""
        return sum(self.collection_frequency.values())

    @property
    def average_document_length(self) -> float:
        """Mean analyzed document length."""
        return self.total_terms / len(self)
