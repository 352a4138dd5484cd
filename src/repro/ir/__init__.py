"""Centralized IR substrate: indexing, weighting, similarity, ranking."""

from .bm25 import BM25System
from .centralized import CentralizedSystem
from .inverted_index import InvertedIndex
from .postings import RamPostings, posting_impact
from .ranking import RankedList, ScoredDoc
from .similarity import lee_similarity
from .weighting import TfIdfWeighting, idf, tf_idf

__all__ = [
    "BM25System",
    "CentralizedSystem",
    "InvertedIndex",
    "posting_impact",
    "RamPostings",
    "RankedList",
    "ScoredDoc",
    "TfIdfWeighting",
    "idf",
    "lee_similarity",
    "tf_idf",
]
