"""Centralized inverted index.

The full-knowledge index underlying the paper's "ideal" reference
system: every analyzed term of every document is indexed, with exact
document frequencies and the exact corpus size.  The distributed
systems' indexing peers hold *partial* versions of the same posting
structure (see :mod:`repro.core.metadata`); this module is the complete
centralized substrate.

Each posting is stored as its raw term count alone — ``term → {doc id →
raw tf}`` beside one ``doc id → length`` map — so a posting costs one
dict entry.  The scorers read the counts directly; :meth:`postings`
builds :class:`Posting` objects only for callers that ask for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping

from ..corpus.corpus import Corpus
from ..corpus.document import Document

_NO_COUNTS: Mapping[str, int] = MappingProxyType({})


@dataclass(frozen=True)
class Posting:
    """One inverted-list entry.

    ``normalized_tf`` is the paper's t_ik (raw frequency over document
    length); ``doc_length`` the analyzed term-occurrence count of the
    document (used by Lee-style normalization as "number of terms").
    """

    doc_id: str
    raw_tf: int
    normalized_tf: float
    doc_length: int


class InvertedIndex:
    """term → {doc id → raw tf}, plus exact global statistics."""

    def __init__(self) -> None:
        self._counts: Dict[str, Dict[str, int]] = {}
        self._doc_lengths: Dict[str, int] = {}

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "InvertedIndex":
        """Index every document of *corpus* in full."""
        index = cls()
        for doc in corpus:
            index.add_document(doc)
        return index

    def add_document(self, doc: Document) -> None:
        """Index all analyzed terms of *doc*."""
        doc_id = doc.doc_id
        if doc_id in self._doc_lengths:
            return
        self._doc_lengths[doc_id] = doc.length
        for term, raw in doc.term_freqs.items():
            self._counts.setdefault(term, {})[doc_id] = raw

    def remove_document(self, doc: Document) -> None:
        """Remove *doc* from every posting list (for churn experiments)."""
        if doc.doc_id not in self._doc_lengths:
            return
        del self._doc_lengths[doc.doc_id]
        for term in doc.term_freqs:
            per_doc = self._counts.get(term)
            if per_doc is not None:
                per_doc.pop(doc.doc_id, None)
                if not per_doc:
                    del self._counts[term]

    # -- statistics ---------------------------------------------------------

    @property
    def num_documents(self) -> int:
        """Exact corpus size N."""
        return len(self._doc_lengths)

    @property
    def num_terms(self) -> int:
        """Number of distinct indexed terms."""
        return len(self._counts)

    @property
    def total_postings(self) -> int:
        """Total posting entries across all terms (index size)."""
        return sum(len(p) for p in self._counts.values())

    @property
    def doc_lengths(self) -> Mapping[str, int]:
        """doc id → analyzed length, for every indexed document (read-only)."""
        return self._doc_lengths

    def document_frequency(self, term: str) -> int:
        """Exact n_k — number of documents containing *term*."""
        return len(self._counts.get(term, ()))

    def counts(self, term: str) -> Mapping[str, int]:
        """doc id → raw tf for every document containing *term*, in
        indexing order (empty if unindexed; read-only)."""
        return self._counts.get(term, _NO_COUNTS)

    def postings(self, term: str) -> List[Posting]:
        """The posting list for *term* (empty list if unindexed)."""
        lengths = self._doc_lengths
        result = []
        for doc_id, raw in self.counts(term).items():
            length = lengths[doc_id]
            result.append(Posting(doc_id, raw, raw / length if length else 0.0, length))
        return result

    def doc_length(self, doc_id: str) -> int:
        """Analyzed length of a document, 0 if unknown."""
        return self._doc_lengths.get(doc_id, 0)

    def terms(self) -> Iterable[str]:
        """All indexed terms."""
        return self._counts.keys()

    def __contains__(self, term: str) -> bool:
        return term in self._counts
