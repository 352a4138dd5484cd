"""Centralized inverted index.

The full-knowledge index underlying the paper's "ideal" reference
system: every analyzed term of every document is indexed, with exact
document frequencies and the exact corpus size.  The distributed
systems' indexing peers hold *partial* versions of the same posting
structure (see :mod:`repro.core.metadata`); this module is the complete
centralized substrate.

A term's postings are two flat columns in indexing order: its doc ids
in a list and their raw term counts in an ``array('I')``, beside one
``doc id → length`` map.  A posting costs a list slot and four bytes,
about 12 B, and the scorers walk the two columns side by side.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Mapping, Sequence, Tuple

from ..corpus.corpus import Corpus
from ..corpus.document import Document

_NO_POSTINGS: Tuple[Sequence[str], Sequence[int]] = ((), ())


class InvertedIndex:
    """term → (doc ids, raw tfs), plus exact global statistics."""

    def __init__(self) -> None:
        self._postings: Dict[str, Tuple[List[str], array]] = {}
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
        postings = self._postings
        for term, raw in doc.term_counts():
            columns = postings.get(term)
            if columns is None:
                postings[term] = ([doc_id], array("I", (raw,)))
            else:
                columns[0].append(doc_id)
                columns[1].append(raw)

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
        return len(self._postings.get(term, _NO_POSTINGS)[0])

    def postings(self, term: str) -> Tuple[Sequence[str], Sequence[int]]:
        """``(doc ids, raw tfs)`` of every document containing *term*:
        two parallel columns in indexing order (both empty if unindexed).
        The columns are the index's own; callers only read them."""
        return self._postings.get(term, _NO_POSTINGS)

    def __contains__(self, term: str) -> bool:
        return term in self._postings
