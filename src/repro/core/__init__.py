"""SPRITE core: the paper's primary contribution."""

from .indexer import IndexingProtocol
from .maintenance import MaintenanceDaemon, MaintenanceReport
from .learning import (
    IncrementalLearner,
    RankedTerm,
    initial_terms,
    naive_rank_terms,
    select_index_terms,
)
from .metadata import (
    CachedQuery,
    PostingEntry,
    QueryCache,
    TermSlot,
    TermStats,
)
from .owner import OwnerPeer, SharedDocument
from .query_processing import QueryExecution, QueryProcessor
from .scoring import combined_score, q_score, query_frequencies, query_frequency
from .system import SpriteSystem

__all__ = [
    "CachedQuery",
    "MaintenanceDaemon",
    "MaintenanceReport",
    "IncrementalLearner",
    "IndexingProtocol",
    "OwnerPeer",
    "PostingEntry",
    "QueryCache",
    "QueryExecution",
    "QueryProcessor",
    "RankedTerm",
    "SharedDocument",
    "SpriteSystem",
    "TermSlot",
    "TermStats",
    "combined_score",
    "initial_terms",
    "naive_rank_terms",
    "q_score",
    "query_frequencies",
    "query_frequency",
    "select_index_terms",
]
