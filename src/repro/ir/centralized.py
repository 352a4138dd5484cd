"""The centralized reference system.

Paper Section 6: "The centralized system acts as an ideal distributed
system with perfect global knowledge, including the exact document
frequency and total number of documents in the corpus.  (We used a
classic TF·IDF scheme in the centralized system)."

All precision/recall figures in the paper are reported *relative to this
system*, so it is both the upper baseline and the oracle used by the
query generator's phase 2 (ranked lists RL and RL').
"""

from __future__ import annotations

from typing import Dict, Iterable

from ..corpus.corpus import Corpus
from ..corpus.relevance import Query
from .inverted_index import InvertedIndex
from .ranking import RankedList
from .similarity import lee_similarity
from .weighting import TfIdfWeighting


class CentralizedSystem:
    """Full-knowledge TF·IDF retrieval over an in-memory inverted index.

    Parameters
    ----------
    corpus:
        The document collection; indexed in full at construction.

    Scores use the same Lee-et-al. similarity as the distributed
    systems, which isolates the effect of *partial indexing* (the
    paper's variable of interest) from the choice of normalization.
    """

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus
        self.index = InvertedIndex.from_corpus(corpus)
        self.weighting = TfIdfWeighting(corpus_size=self.index.num_documents)

    # -- internals -------------------------------------------------------

    def _query_weights(self, terms: Iterable[str]) -> Dict[str, float]:
        weights = {}
        for term in terms:
            df = self.index.document_frequency(term)
            if df > 0:
                weights[term] = self.weighting.query_weight(df)
        return weights

    # -- public API ----------------------------------------------------------

    def search(self, query: Query, top_k: int | None = None) -> RankedList:
        """Rank all matching documents for *query*.

        Returns the full ranked list when ``top_k`` is None (the query
        generator needs deep lists); otherwise truncates to *top_k*.
        """
        query_weights = self._query_weights(query.terms)
        doc_weights: Dict[str, Dict[str, float]] = {}
        lengths = self.index.doc_lengths
        weight = self.weighting.document_weight
        for term in query_weights:
            counts = self.index.counts(term)
            df = len(counts)
            for doc_id, raw in counts.items():
                length = lengths[doc_id]
                tf = raw / length if length else 0.0
                doc_weights.setdefault(doc_id, {})[term] = weight(tf, df)

        scores = {
            doc_id: lee_similarity(query_weights, weights, lengths[doc_id])
            for doc_id, weights in doc_weights.items()
        }

        ranked = RankedList(scores)
        return ranked if top_k is None else ranked.truncate(top_k)
