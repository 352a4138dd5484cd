"""Load-balancing extensions (paper Section 7, second discussion).

Two unbalanced-load scenarios and their remedies:

(a) **Hot indexed terms.**  A term appearing in many documents makes its
    indexing peer a maintenance hotspot, yet contributes little to
    similarity (high document frequency → small IDF).  The remedy:
    "advise the document owner peers that the term has a high document
    frequency.  The document owner peers can then discard the term and
    pick an analogously important term to index."
    → :class:`HotTermAdvisor`.

(b) **Hot query terms.**  Terms queried by many users overload their
    indexing peer at query time.  The LAR-style remedy: cache a hot
    term's postings at the peers responsible for terms that co-occur
    with it in queries, so those peers can answer without contacting the
    hot peer.  → :class:`HotTermCache`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.indexer import IndexingProtocol
from ..core.system import SpriteSystem
from ..dht.messages import MessageKind, message
from ..core.metadata import PostingEntry, TermSlot


@dataclass(frozen=True)
class HotTermAdvice:
    """One piece of advice sent to owners: a term whose indexed document
    frequency exceeded the hotness threshold."""

    term: str
    indexed_document_frequency: int


class HotTermAdvisor:
    """Scenario (a): detect maintenance-hot terms and have owners
    replace them with analogously important ones.

    Parameters
    ----------
    system:
        Any distributed retrieval system built on the shared base.
    df_threshold:
        Indexed document frequency above which a term is advised away.
    """

    def __init__(self, system: SpriteSystem, df_threshold: int) -> None:
        if df_threshold < 1:
            raise ValueError("df_threshold must be >= 1")
        self.system = system
        self.df_threshold = df_threshold

    def find_hot_terms(self) -> List[HotTermAdvice]:
        """Scan every term slot in the ring for over-threshold terms."""
        advice: List[HotTermAdvice] = []
        seen = set()
        for node_id in self.system.ring.live_ids:
            node = self.system.ring.node(node_id)
            for slot in node.store.values():
                if not isinstance(slot, TermSlot) or slot.term in seen:
                    continue
                seen.add(slot.term)
                df = slot.indexed_document_frequency
                if df > self.df_threshold:
                    advice.append(HotTermAdvice(slot.term, df))
        advice.sort(key=lambda a: (-a.indexed_document_frequency, a.term))
        return advice

    def apply_advice(self, advice: HotTermAdvice) -> int:
        """Advise every owner indexing *advice.term*: drop it and index
        the next most important unindexed term of the document instead.
        Returns the number of documents that switched terms.

        Each advised owner receives exactly one message ("The overhead is
        very small since it only requires one communication").
        """
        switched = 0
        for owner in self.system.owners.values():
            if not self.system.ring.is_live(owner.node_id):
                continue  # a crashed owner's documents are offline
            for doc_id in list(owner.shared):
                state = owner.shared[doc_id]
                if advice.term not in state.index_terms:
                    continue
                self.system.ring.send(
                    message(
                        MessageKind.ADVISE_HOT_TERM,
                        self.system.ring.successor_of(
                            self.system.protocol.term_hash(advice.term)
                        ),
                        owner.node_id,
                    )
                )
                replacement = self._replacement_for(state, advice.term)
                owner._unpublish([(state, [advice.term])])
                if replacement is not None:
                    owner._publish([(state, [replacement])])
                switched += 1
        return switched

    @staticmethod
    def _replacement_for(state, hot_term: str) -> Optional[str]:
        """The document's best term not already indexed: highest learned
        score first, then highest raw frequency."""
        indexed = set(state.index_terms)
        ranked = [
            rt.term
            for rt in state.learner.rank_list()
            if rt.term not in indexed and rt.term != hot_term and rt.score > 0
        ]
        if ranked:
            return ranked[0]
        for term in state.document.top_terms(state.document.unique_terms):
            if term not in indexed and term != hot_term:
                return term
        return None

    def rebalance(self) -> Tuple[int, int]:
        """Full pass: find hot terms, apply all advice.  Returns
        (number of hot terms, number of document term switches)."""
        hot = self.find_hot_terms()
        switches = sum(self.apply_advice(a) for a in hot)
        return len(hot), switches


class HotTermCache:
    """Scenario (b): LAR-style caching of hot query terms.

    Observes query-term co-occurrence, then pushes the postings of the
    hottest queried terms to the indexing peers of their most frequent
    co-occurring terms.  :meth:`fetch_postings` mirrors the protocol
    call but serves from a co-located cache when possible, saving the
    round-trip to the hot peer.
    """

    def __init__(self, protocol: IndexingProtocol, cache_capacity: int = 32) -> None:
        if cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        self.protocol = protocol
        self.cache_capacity = cache_capacity
        self.query_term_counts: Counter = Counter()
        self.cooccurrence: Dict[str, Counter] = {}
        #: hot term → (cached postings, indexed df), held at partner peers.
        self._caches: Dict[str, Tuple[List[PostingEntry], int]] = {}
        self.hits = 0
        self.misses = 0

    def observe_query(self, terms: Tuple[str, ...]) -> None:
        """Record a query for popularity/co-occurrence statistics."""
        for term in terms:
            self.query_term_counts[term] += 1
            counter = self.cooccurrence.setdefault(term, Counter())
            for other in terms:
                if other != term:
                    counter[other] += 1

    def hottest_terms(self, count: int) -> List[str]:
        """The *count* most-queried terms so far."""
        return [t for t, __ in self.query_term_counts.most_common(count)]

    def refresh(self, num_hot: int | None = None) -> int:
        """Push the hottest terms' postings into partner caches
        (bounded by capacity).  Returns the number of cached terms."""
        budget = min(
            num_hot if num_hot is not None else self.cache_capacity,
            self.cache_capacity,
        )
        self._caches.clear()
        for term in self.hottest_terms(budget):
            partners = self.cooccurrence.get(term)
            if not partners:
                continue
            slot = self.protocol.slot_snapshot(term)
            if slot is None or slot.indexed_document_frequency == 0:
                continue
            postings = list(slot.entries())
            self._caches[term] = (postings, slot.indexed_document_frequency)
            partner = partners.most_common(1)[0][0]
            self.protocol.ring.send(
                message(
                    MessageKind.CACHE_HOT_TERM,
                    self.protocol.ring.successor_of(self.protocol.term_hash(term)),
                    self.protocol.ring.successor_of(self.protocol.term_hash(partner)),
                    len(postings),
                )
            )
        return len(self._caches)

    def fetch_postings(
        self, issuer_id: int, term: str
    ) -> Tuple[List[PostingEntry], int]:
        """Protocol-compatible fetch that serves cached hot terms
        locally (no routed message to the hot peer)."""
        cached = self._caches.get(term)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        return self.protocol.fetch_postings(issuer_id, term)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
