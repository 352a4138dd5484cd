"""Queries and relevance judgments (qrels).

The TREC-9 base data the paper uses is "63 queries and their
corresponding relevant documents (identified by experts)".  We model an
original or generated query as a :class:`Query` (an id plus an analyzed
keyword set) and the expert judgments as :class:`Qrels` (query id →
relevant document-id set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from ..exceptions import QueryError


@dataclass(frozen=True)
class Query:
    """A keyword query.

    Attributes
    ----------
    query_id:
        Unique identifier (e.g. ``"q007"`` or ``"q007.3"`` for the third
        query generated from original query 7).
    terms:
        The analyzed keyword set, stored as a sorted tuple for hashability
        and determinism.  A query "essentially comprises a set of
        keywords" (paper Section 5.1).
    origin_id:
        For generated queries, the id of the original query they derive
        from; equals ``query_id`` for originals.
    """

    query_id: str
    terms: Tuple[str, ...]
    origin_id: str = ""

    def __post_init__(self) -> None:
        if not self.terms:
            raise QueryError(f"query {self.query_id!r} has no terms")
        ordered = tuple(sorted(set(self.terms)))
        object.__setattr__(self, "terms", ordered)
        if not self.origin_id:
            object.__setattr__(self, "origin_id", self.query_id)

    def __len__(self) -> int:
        return len(self.terms)


class Qrels:
    """Relevance judgments: query id → set of relevant document ids."""

    def __init__(self, judgments: Dict[str, Set[str]] | None = None) -> None:
        self._judgments: Dict[str, Set[str]] = {
            qid: set(docs) for qid, docs in (judgments or {}).items()
        }

    def add(self, query_id: str, doc_id: str) -> None:
        """Record that *doc_id* is relevant to *query_id*."""
        self._judgments.setdefault(query_id, set()).add(doc_id)

    def set_relevant(self, query_id: str, doc_ids: Iterable[str]) -> None:
        """Replace the relevant set for *query_id*."""
        self._judgments[query_id] = set(doc_ids)

    def relevant(self, query_id: str) -> Set[str]:
        """The relevant document-id set for *query_id* (empty if unjudged)."""
        return set(self._judgments.get(query_id, set()))

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._judgments

    def __len__(self) -> int:
        return len(self._judgments)

    def __iter__(self) -> Iterator[str]:
        return iter(self._judgments)


@dataclass
class QuerySet:
    """A bundle of queries plus their judgments — one experimental unit."""

    queries: List[Query]
    qrels: Qrels = field(default_factory=Qrels)

    def __post_init__(self) -> None:
        ids = [q.query_id for q in self.queries]
        if len(ids) != len(set(ids)):
            raise QueryError("duplicate query ids in query set")

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def split(self, train_ids: Set[str]) -> Tuple["QuerySet", "QuerySet"]:
        """Split into (train, test) sets by query id; qrels are shared."""
        train = [q for q in self.queries if q.query_id in train_ids]
        test = [q for q in self.queries if q.query_id not in train_ids]
        return QuerySet(train, self.qrels), QuerySet(test, self.qrels)
