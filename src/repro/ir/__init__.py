"""Centralized IR substrate: indexing, weighting, similarity, ranking."""

from .bm25 import BM25System
from .centralized import CentralizedSystem
from .inverted_index import InvertedIndex, Posting
from .postings import RamPostings, posting_impact
from .ranking import RankedList, ScoredDoc
from .similarity import (
    consolidate,
    cosine_similarity,
    lee_similarity,
    weight_norm,
)
from .weighting import TfIdfWeighting, idf, tf_idf

__all__ = [
    "BM25System",
    "CentralizedSystem",
    "InvertedIndex",
    "Posting",
    "posting_impact",
    "RamPostings",
    "RankedList",
    "ScoredDoc",
    "TfIdfWeighting",
    "consolidate",
    "cosine_similarity",
    "idf",
    "lee_similarity",
    "tf_idf",
    "weight_norm",
]
