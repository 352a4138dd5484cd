"""Okapi BM25 — an alternative centralized reference weighting.

The paper's centralized system uses "a classic TF·IDF scheme"; BM25 is
the stronger modern reference, included here as an *ablation of the
reference itself*: how much of the distributed systems' measured gap to
"centralized" is an artifact of the reference's weighting choice?

Standard Robertson/Spärck-Jones formulation::

    idf(t)   = ln( (N - n_t + 0.5) / (n_t + 0.5) + 1 )
    score(D) = Σ_t idf(t) · tf · (k1 + 1) / (tf + k1·(1 - b + b·|D|/avgdl))
"""

from __future__ import annotations

import math
from typing import Dict

from ..corpus.corpus import Corpus
from ..corpus.relevance import Query
from ..ir.inverted_index import InvertedIndex
from ..ir.ranking import RankedList


class BM25System:
    """Full-knowledge BM25 retrieval (drop-in alternative to
    :class:`~repro.ir.centralized.CentralizedSystem`).

    Parameters follow the common defaults k1 = 1.2, b = 0.75.
    """

    def __init__(self, corpus: Corpus, k1: float = 1.2, b: float = 0.75) -> None:
        if k1 < 0:
            raise ValueError("k1 must be >= 0")
        if not 0.0 <= b <= 1.0:
            raise ValueError("b must be in [0, 1]")
        self.corpus = corpus
        self.index = InvertedIndex.from_corpus(corpus)
        self.k1 = k1
        self.b = b
        self._avgdl = corpus.average_document_length

    def idf(self, term: str) -> float:
        """BM25's smoothed IDF (never negative)."""
        n = self.index.num_documents
        df = self.index.document_frequency(term)
        return math.log((n - df + 0.5) / (df + 0.5) + 1.0)

    def search(self, query: Query, top_k: int | None = None) -> RankedList:
        """Rank all documents matching any query term."""
        scores: Dict[str, float] = {}
        lengths = self.index.doc_lengths
        for term in query.terms:
            idf = self.idf(term)
            if idf <= 0.0:
                continue
            for doc_id, tf in zip(*self.index.postings(term)):
                denom = tf + self.k1 * (
                    1.0 - self.b + self.b * lengths[doc_id] / self._avgdl
                )
                gain = idf * tf * (self.k1 + 1.0) / denom
                scores[doc_id] = scores.get(doc_id, 0.0) + gain
        ranked = RankedList(scores)
        return ranked if top_k is None else ranked.truncate(top_k)
