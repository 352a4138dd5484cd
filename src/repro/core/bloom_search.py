"""Bloom-compressed conjunctive query processing.

An alternative query path (related work [13], Reynolds & Vahdat) for
multi-term queries interpreted *conjunctively*: only documents
containing (an indexed posting for) every query term are candidates.

Protocol: visit the query terms' indexing peers rarest-list-first.  The
first peer ships a Bloom filter of its document ids; each subsequent
peer intersects its posting list against the incoming filter and
forwards a filter of the survivors; finally, full postings travel for
the surviving candidate set only.  Because Bloom filters never exclude
true members, recall of the conjunctive answer set is preserved; false
positives merely let a few extra postings travel.

The processor measures both its own traffic and what the naive
ship-everything approach would have cost, so the bench reports the
compression factor directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..corpus.relevance import Query
from ..dht.bloom import BloomFilter, intersection_plan
from ..dht.messages import MessageKind, message, wire_size
from ..exceptions import NodeFailedError
from ..ir.ranking import RankedList
from ..ir.similarity import lee_similarity
from ..ir.weighting import TfIdfWeighting
from .indexer import IndexingProtocol
from .metadata import PostingEntry


@dataclass
class BloomExecution:
    """Traffic diagnostics for one Bloom-compressed query."""

    query_id: str
    bytes_shipped: int = 0
    naive_bytes: int = 0
    candidates_after_chain: int = 0
    false_positives: int = 0

    @property
    def compression_ratio(self) -> float:
        """naive bytes / bloom bytes (≥ 1 when compression helps)."""
        if self.bytes_shipped <= 0:
            return 1.0
        return self.naive_bytes / self.bytes_shipped


class BloomQueryProcessor:
    """Conjunctive retrieval with Bloom-filter chain intersection."""

    def __init__(
        self,
        protocol: IndexingProtocol,
        assumed_corpus_size: int,
        error_rate: float = 0.01,
    ) -> None:
        if not 0.0 < error_rate < 1.0:
            raise ValueError("error_rate must be in (0, 1)")
        self.protocol = protocol
        self.weighting = TfIdfWeighting(corpus_size=assumed_corpus_size)
        self.error_rate = error_rate

    def _fetch_all(
        self, issuer_id: int, query: Query
    ) -> Dict[str, Tuple[List[PostingEntry], int]]:
        """Posting lists per term, skipping failed peers (as §7)."""
        results: Dict[str, Tuple[List[PostingEntry], int]] = {}
        for term in query.terms:
            try:
                postings, df = self.protocol.fetch_postings(issuer_id, term)
            except NodeFailedError:
                continue
            if postings:
                results[term] = (postings, df)
        return results

    def execute(
        self, issuer_id: int, query: Query, top_k: int | None = None
    ) -> Tuple[RankedList, BloomExecution]:
        """Run a conjunctive query; returns the ranked intersection and
        traffic diagnostics (bloom vs naive bytes)."""
        execution = BloomExecution(query_id=query.query_id)
        per_term = self._fetch_all(issuer_id, query)
        if not per_term:
            return RankedList({}), execution

        terms = list(per_term)
        sizes = [len(per_term[t][0]) for t in terms]
        order = [terms[i] for i in intersection_plan(sizes)]
        # One reply per list, each answering its one slot.
        execution.naive_bytes = sum(
            wire_size(MessageKind.POSTINGS, len(per_term[t][0]), 1, 0) for t in terms
        )

        # Chain: candidates start as the rarest list's doc ids; each
        # later peer intersects via the incoming Bloom filter.
        first_postings, __ = per_term[order[0]]
        candidates: Set[str] = {p.doc_id for p in first_postings}
        true_members = set(candidates)
        for term in order[1:]:
            bloom = BloomFilter.from_keys(sorted(candidates), self.error_rate)
            hop = message(
                MessageKind.BLOOM_FILTER,
                issuer_id,
                self.protocol.ring.successor_of(self.protocol.term_hash(term)),
                bloom.size_bytes,
            )
            execution.bytes_shipped += hop.size_bytes
            self.protocol.ring.send(hop)
            postings, __ = per_term[term]
            surviving_ids = {
                p.doc_id for p in postings if p.doc_id in bloom
            }
            true_members &= {p.doc_id for p in postings}
            candidates = surviving_ids

        execution.candidates_after_chain = len(candidates)
        execution.false_positives = len(candidates - true_members)
        # Final hop: full postings for survivors only, from every slot.
        execution.bytes_shipped += wire_size(
            MessageKind.POSTINGS, len(candidates) * len(order), len(order), 0
        )

        # Rank the *true* conjunctive members (false positives are
        # filtered once full postings arrive — they lack a term).
        final_ids = candidates & true_members
        query_weights: Dict[str, float] = {}
        doc_weights: Dict[str, Dict[str, float]] = {}
        doc_lengths: Dict[str, int] = {}
        for term in terms:
            postings, df = per_term[term]
            query_weights[term] = self.weighting.query_weight(df)
            for posting in postings:
                if posting.doc_id not in final_ids:
                    continue
                doc_weights.setdefault(posting.doc_id, {})[term] = (
                    self.weighting.document_weight(posting.normalized_tf, df)
                )
                doc_lengths[posting.doc_id] = posting.doc_length

        scores = {
            doc_id: lee_similarity(query_weights, weights, doc_lengths[doc_id])
            for doc_id, weights in doc_weights.items()
        }
        ranked = RankedList(scores)
        if top_k is not None:
            ranked = ranked.truncate(top_k)
        return ranked, execution

    def search(
        self, issuer_id: int, query: Query, top_k: int | None = None
    ) -> RankedList:
        """Ranked conjunctive results only."""
        ranked, __ = self.execute(issuer_id, query, top_k=top_k)
        return ranked
