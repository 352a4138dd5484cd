"""The system facade: one retrieval system over the DHT.

:class:`SpriteSystem` wires the substrates together — a Chord ring, the
indexing protocol, owner peers (one per document-owning node), the
distributed query processor — and runs the learning loop.  Which terms
a document publishes first and whether they are ever tuned is its
:class:`~repro.config.SpriteConfig`: the basic eSearch baseline the
paper compares against is ``config.static_baseline()`` (top-k frequent
terms, zero learning iterations), so the *only* difference measured by
the experiments is that config delta, exactly as in the paper.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..config import ChordConfig, SpriteConfig
from ..corpus.corpus import Corpus
from ..corpus.relevance import Query
from ..dht.ring import ChordRing
from ..exceptions import LearningError
from ..ir.ranking import RankedList
from ..store import build_store_runtime
from .indexer import IndexingProtocol
from .owner import OwnerPeer
from .query_processing import QueryExecution, QueryProcessor


class SpriteSystem:
    """SPRITE: selective progressive index tuning by examples.

    Usage mirrors the paper's experimental flow::

        system = SpriteSystem(corpus)
        system.share_corpus()                    # 5 initial terms/doc
        system.register_queries(training_set)    # cache training queries
        system.run_learning(iterations=3)        # grow to 20 terms/doc
        ranked = system.search(test_query)

    Parameters
    ----------
    corpus:
        The shared document collection.
    sprite_config:
        System parameters, the term-selection policy among them
        (initial terms, growth schedule, cap).
    chord_config:
        Overlay parameters, the finger arity among them; ignored when an
        existing *ring* is supplied — ``ring.config`` is then the only
        description of the overlay.
    ring:
        Optionally share a pre-built ring (e.g. for churn experiments
        that prepare the overlay separately).
    transport:
        Optional :class:`~repro.net.Transport` for the ring this system
        builds (ignored when an existing *ring* is supplied — the ring
        keeps its own transport).  Defaults to the perfect transport.
    """

    def __init__(
        self,
        corpus: Corpus,
        sprite_config: SpriteConfig | None = None,
        chord_config: ChordConfig | None = None,
        ring: ChordRing | None = None,
        scorer=None,
        transport=None,
    ) -> None:
        from .scoring import combined_score

        self.corpus = corpus
        self.config = sprite_config if sprite_config is not None else SpriteConfig()
        self.scorer = scorer if scorer is not None else combined_score
        self.ring = (
            ring if ring is not None else ChordRing(chord_config, transport=transport)
        )
        # None for the default in-RAM backend; a StoreRuntime when the
        # configuration selects the disk-backed store (DESIGN.md §12).
        self.store_runtime = build_store_runtime(self.config)
        self.protocol = IndexingProtocol(
            self.ring,
            query_cache_size=self.config.query_cache_size,
            result_cache_size=self.config.result_cache_size,
            store_runtime=self.store_runtime,
        )
        self.processor = QueryProcessor(
            self.protocol,
            assumed_corpus_size=self.config.assumed_corpus_size,
        )
        self.owners: Dict[int, OwnerPeer] = {}
        self._doc_owner: Dict[str, int] = {}
        #: query id → issuing peer, valid for the membership epoch
        #: ``_issuers_epoch`` only (every membership change bumps it).
        self._issuers: Dict[str, int] = {}
        self._issuers_epoch = -1

    # -- ownership assignment ------------------------------------------------

    def _owner_node_for(self, doc_id: str) -> int:
        """Deterministically assign a document to an owning peer by
        hashing its id onto the ring (documents live where their users
        are; any stable assignment works)."""
        return self.ring.successor_of(self.ring.space.hash_key(f"owner:{doc_id}"))

    def _owner_at(self, node_id: int) -> OwnerPeer:
        """The owner peer on *node_id*, created on first use."""
        owner = self.owners.get(node_id)
        if owner is None:
            owner = self.owners[node_id] = OwnerPeer(
                node_id, self.protocol, self.config, scorer=self.scorer
            )
        return owner

    def owner_of(self, doc_id: str) -> OwnerPeer:
        """The owner peer responsible for *doc_id*."""
        try:
            node_id = self._doc_owner[doc_id]
        except KeyError:
            raise LearningError(f"document not shared yet: {doc_id!r}") from None
        return self.owners[node_id]

    # -- sharing --------------------------------------------------------------

    def share_document(self, doc) -> OwnerPeer:
        """Share one document from its (deterministically assigned)
        owner peer, publishing its initial global index terms into the
        DHT.  Returns the owner peer.  Used by :meth:`share_corpus` and
        by the scenario engine's incremental ``publish`` events."""
        node_id = self._owner_node_for(doc.doc_id)
        owner = self._owner_at(node_id)
        owner.share(doc)
        self._doc_owner[doc.doc_id] = node_id
        return owner

    def share_corpus(self) -> None:
        """Share every corpus document not shared yet from its owner
        peer, publishing the initial global index terms into the DHT."""
        for doc in self.corpus:
            if doc.doc_id not in self._doc_owner:
                self.share_document(doc)

    def bulk_share(self, documents: Optional[List] = None) -> int:
        """Share many documents at once (default: every not-yet-shared
        corpus document), grouping them by their assigned owner peer and
        letting each owner ingest its slice through
        :meth:`~repro.core.owner.OwnerPeer.share_bulk` — one
        destination-grouped publish per owner covers the owner's whole
        slice.  Returns the number of documents shared.
        """
        if documents is None:
            documents = [
                doc for doc in self.corpus if doc.doc_id not in self._doc_owner
            ]
        by_owner: Dict[int, List] = {}
        for doc in documents:
            by_owner.setdefault(self._owner_node_for(doc.doc_id), []).append(doc)
        total = 0
        for node_id, docs in by_owner.items():
            self._owner_at(node_id).share_bulk(docs)
            for doc in docs:
                self._doc_owner[doc.doc_id] = node_id
            total += len(docs)
        return total

    def bulk_unshare(self, doc_ids: Iterable[str]) -> int:
        """Withdraw many documents at once, grouped per owner peer via
        :meth:`~repro.core.owner.OwnerPeer.unshare_bulk`.  Returns the
        number of documents withdrawn."""
        by_owner: Dict[int, List[str]] = {}
        for doc_id in doc_ids:
            try:
                node_id = self._doc_owner[doc_id]
            except KeyError:
                raise LearningError(
                    f"document not shared yet: {doc_id!r}"
                ) from None
            by_owner.setdefault(node_id, []).append(doc_id)
        total = 0
        for node_id, ids in by_owner.items():
            self.owners[node_id].unshare_bulk(ids)
            for doc_id in ids:
                del self._doc_owner[doc_id]
            total += len(ids)
        return total

    # -- querying ---------------------------------------------------------------

    def _issuer_for(self, query: Query) -> int:
        """Deterministically pick the querying peer for a query: the
        live successor of the hashed query id, remembered until the
        ring's membership epoch moves."""
        ring = self.ring
        issuers = self._issuers
        if self._issuers_epoch != ring.epoch:
            issuers.clear()
            self._issuers_epoch = ring.epoch
        issuer = issuers.get(query.query_id)
        if issuer is None:
            issuer = issuers[query.query_id] = ring.successor_of(
                ring.space.hash_key(f"issuer:{query.query_id}")
            )
        return issuer

    def register_queries(self, queries: Iterable[Query]) -> int:
        """Insert query keywords into the system without retrieval —
        the experiment's training-phase step ("For each query in the
        training set, the keywords are inserted into SPRITE").  Returns
        the number of (query, peer) cache registrations."""
        total = 0
        for query in queries:
            total += self.protocol.register_query(self._issuer_for(query), query.terms)
        return total

    def search(
        self, query: Query, top_k: int | None = None, cache: bool = True
    ) -> RankedList:
        """Execute a query from its (deterministic) querying peer."""
        k = top_k if top_k is not None else self.config.top_k_answers
        return self.processor.search(self._issuer_for(query), query, top_k=k, cache=cache)

    def execute(
        self, query: Query, top_k: int | None = None, cache: bool = True
    ) -> Tuple[RankedList, QueryExecution]:
        """Like :meth:`search` but also returns execution diagnostics."""
        k = top_k if top_k is not None else self.config.top_k_answers
        return self.processor.execute(self._issuer_for(query), query, top_k=k, cache=cache)

    # -- inspection ----------------------------------------------------------------

    def index_terms(self, doc_id: str) -> List[str]:
        """Current global index terms of a document."""
        return self.owner_of(doc_id).index_terms(doc_id)

    def total_published_terms(self) -> int:
        """Total (document, term) pairs currently in the distributed
        index — the index-size metric of the cost benches."""
        return sum(
            len(state.index_terms)
            for owner in self.owners.values()
            for state in owner.shared.values()
        )

    # -- learning -------------------------------------------------------------------

    def run_learning_iteration(self, target_size: int | None = None) -> None:
        """One learning pass over every shared document (Section 5.3)."""
        if not self._doc_owner:
            raise LearningError("share_corpus() must run before learning")
        for owner in self.owners.values():
            if not self.ring.is_live(owner.node_id):
                continue  # a crashed/departed peer cannot run its timer loop
            owner.learn_all(target_size)

    def run_learning(self, iterations: int | None = None) -> None:
        """Run the configured number of learning iterations."""
        count = iterations if iterations is not None else self.config.learning_iterations
        for __ in range(count):
            self.run_learning_iteration()

    def learning_summary(self) -> Dict[str, int]:
        """Distribution of index-set sizes across shared documents."""
        sizes: Dict[str, int] = {}
        for owner in self.owners.values():
            for doc_id in owner.shared:
                sizes[doc_id] = len(owner.index_terms(doc_id))
        return sizes
