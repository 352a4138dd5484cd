"""The per-``Posting`` centralized index, kept as a reference model.

Before the index stored raw counts, every posting was a frozen
:class:`Posting` object and the centralized scorers read its fields.
This module keeps that index and those scorers unchanged, so a test can
require the counts-backed :class:`~repro.ir.inverted_index.InvertedIndex`
under ``CentralizedSystem`` and ``BM25System`` to agree with it bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.corpus import Corpus, Document, Query
from repro.ir.bm25 import BM25System
from repro.ir.centralized import CentralizedSystem
from repro.ir.ranking import RankedList
from repro.ir.similarity import lee_similarity


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


class LegacyInvertedIndex:
    """term → {doc id → :class:`Posting`}: one object per posting."""

    def __init__(self) -> None:
        self._postings: Dict[str, Dict[str, Posting]] = {}
        self._doc_count = 0
        self._doc_lengths: Dict[str, int] = {}

    @classmethod
    def from_corpus(cls, corpus: Corpus) -> "LegacyInvertedIndex":
        index = cls()
        for doc in corpus:
            index.add_document(doc)
        return index

    def add_document(self, doc: Document) -> None:
        if doc.doc_id in self._doc_lengths:
            return
        self._doc_lengths[doc.doc_id] = doc.length
        self._doc_count += 1
        for term, raw in doc.term_freqs.items():
            self._postings.setdefault(term, {})[doc.doc_id] = Posting(
                doc_id=doc.doc_id,
                raw_tf=raw,
                normalized_tf=raw / doc.length if doc.length else 0.0,
                doc_length=doc.length,
            )

    @property
    def num_documents(self) -> int:
        return self._doc_count

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term, ()))

    def postings(self, term: str) -> List[Posting]:
        return list(self._postings.get(term, {}).values())

    def doc_length(self, doc_id: str) -> int:
        return self._doc_lengths.get(doc_id, 0)


class LegacyCentralizedSystem(CentralizedSystem):
    """``CentralizedSystem`` scoring through :class:`Posting` fields."""

    def __init__(self, corpus: Corpus) -> None:
        super().__init__(corpus)
        self.index = LegacyInvertedIndex.from_corpus(corpus)

    def search(self, query: Query, top_k: int | None = None) -> RankedList:
        query_weights = self._query_weights(query.terms)
        doc_weights: Dict[str, Dict[str, float]] = {}
        for term, qw in query_weights.items():
            df = self.index.document_frequency(term)
            for posting in self.index.postings(term):
                doc_weights.setdefault(posting.doc_id, {})[term] = (
                    self.weighting.document_weight(posting.normalized_tf, df)
                )
        scores: Dict[str, float] = {}
        for doc_id, weights in doc_weights.items():
            scores[doc_id] = lee_similarity(
                query_weights, weights, self.index.doc_length(doc_id)
            )
        ranked = RankedList(scores)
        return ranked if top_k is None else ranked.truncate(top_k)


class LegacyBM25System(BM25System):
    """``BM25System`` scoring through :class:`Posting` fields."""

    def __init__(self, corpus: Corpus, k1: float = 1.2, b: float = 0.75) -> None:
        super().__init__(corpus, k1, b)
        self.index = LegacyInvertedIndex.from_corpus(corpus)

    def search(self, query: Query, top_k: int | None = None) -> RankedList:
        scores: Dict[str, float] = {}
        for term in query.terms:
            idf = self.idf(term)
            if idf <= 0.0:
                continue
            for posting in self.index.postings(term):
                tf = posting.raw_tf
                denom = tf + self.k1 * (
                    1.0 - self.b + self.b * posting.doc_length / self._avgdl
                )
                gain = idf * tf * (self.k1 + 1.0) / denom
                scores[posting.doc_id] = scores.get(posting.doc_id, 0.0) + gain
        ranked = RankedList(scores)
        return ranked if top_k is None else ranked.truncate(top_k)
