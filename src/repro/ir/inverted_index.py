"""Centralized inverted index.

The full-knowledge index underlying the paper's "ideal" reference
system: every analyzed term of every document is indexed, with exact
document frequencies and the exact corpus size.  The distributed
systems' indexing peers hold *partial* versions of the same posting
structure (see :mod:`repro.core.metadata`); this module is the complete
centralized substrate.

Each posting is stored as its raw term count alone — ``term → {doc id →
raw tf}`` beside one ``doc id → length`` map — so a posting costs one
dict entry, and the scorers read the counts directly.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Mapping

from ..corpus.corpus import Corpus
from ..corpus.document import Document

_NO_COUNTS: Mapping[str, int] = MappingProxyType({})


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

    # -- statistics ---------------------------------------------------------

    @property
    def num_documents(self) -> int:
        """Exact corpus size N."""
        return len(self._doc_lengths)

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

    def __contains__(self, term: str) -> bool:
        return term in self._counts
