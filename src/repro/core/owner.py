"""The owner peer: sharing documents and tuning their index terms.

An owner peer (Section 3) "owns and shares certain documents ... is
responsible for maintaining each shared document it owns, locally
indexing it, and selecting the global index terms for it".

Per shared document the owner keeps a :class:`SharedDocument`: the
current global index terms, the incremental learner (Algorithm 1
statistics), and one poll cursor per index term so each learning
iteration fetches only the queries cached since the previous iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from ..config import SpriteConfig
from ..corpus.document import Document
from ..exceptions import LearningError, NodeFailedError
from .indexer import IndexingProtocol
from .learning import (
    IncrementalLearner,
    TermScorer,
    initial_terms,
    select_index_terms,
)
from .metadata import PostingEntry
from .scoring import combined_score


@dataclass
class SharedDocument:
    """Owner-side state for one shared document."""

    document: Document
    index_terms: List[str]
    learner: IncrementalLearner
    #: term → last cache sequence seen at that term's indexing peer.
    poll_cursors: Dict[str, int] = field(default_factory=dict)
    learning_iterations_run: int = 0


class OwnerPeer:
    """A peer in its owner role, bound to a node id on the ring.

    Parameters
    ----------
    node_id:
        The owner's position on the Chord ring (its "IP address").
    protocol:
        The indexing protocol used for all network operations.
    config:
        SPRITE parameters (initial terms, growth schedule, cap).
    """

    def __init__(
        self,
        node_id: int,
        protocol: IndexingProtocol,
        config: SpriteConfig,
        scorer: TermScorer = combined_score,
    ) -> None:
        self.node_id = node_id
        self.protocol = protocol
        self.config = config
        self.scorer = scorer
        self.shared: Dict[str, SharedDocument] = {}

    # -- sharing -----------------------------------------------------------

    def share(self, document: Document, first_terms: Sequence[str] | None = None) -> SharedDocument:
        """Share a document: select initial terms (top-F frequency,
        Section 5.2, unless the user supplies their own) and publish
        them into the distributed index."""
        if document.doc_id in self.shared:
            raise LearningError(f"document already shared: {document.doc_id!r}")
        terms = (
            list(first_terms)
            if first_terms is not None
            else initial_terms(document, self.config.initial_terms)
        )
        state = SharedDocument(
            document=document,
            index_terms=[],
            learner=IncrementalLearner(document, scorer=self.scorer),
        )
        self.shared[document.doc_id] = state
        self._publish_terms(state, terms)
        return state

    def unshare(self, doc_id: str) -> None:
        """Withdraw a document: unpublish every global index term."""
        state = self._state(doc_id)
        self._unpublish_terms(state, list(state.index_terms))
        del self.shared[doc_id]

    def share_bulk(
        self,
        documents: Sequence[Document],
        first_terms_of: Dict[str, Sequence[str]] | None = None,
    ) -> List[SharedDocument]:
        """Share many documents at once.

        On the batched write path the initial publications of the whole
        batch are destination-grouped into *one*
        :meth:`~repro.core.indexer.IndexingProtocol.publish_batch` call,
        so a lookup is paid per distinct indexing peer across the entire
        corpus slice rather than per (document, term) pair — the bulk
        ingest the ROADMAP's "millions of users" north star needs.  With
        ``batched_writes=False`` this is exactly a loop of
        :meth:`share`.
        """
        for document in documents:
            if document.doc_id in self.shared:
                raise LearningError(
                    f"document already shared: {document.doc_id!r}"
                )
        plans: List[Tuple[SharedDocument, List[str]]] = []
        seen: Set[str] = set()
        for document in documents:
            if document.doc_id in seen:
                raise LearningError(
                    f"duplicate document in bulk share: {document.doc_id!r}"
                )
            seen.add(document.doc_id)
            supplied = (
                first_terms_of.get(document.doc_id)
                if first_terms_of is not None
                else None
            )
            terms = (
                list(supplied)
                if supplied is not None
                else initial_terms(document, self.config.initial_terms)
            )
            state = SharedDocument(
                document=document,
                index_terms=[],
                learner=IncrementalLearner(document, scorer=self.scorer),
            )
            self.shared[document.doc_id] = state
            plans.append((state, terms))

        if not self.config.batched_writes:
            for state, terms in plans:
                self._publish_terms(state, terms)
            return [state for state, __ in plans]

        postings: List[Tuple[str, PostingEntry]] = []
        for state, terms in plans:
            for term in dict.fromkeys(terms):
                postings.append((term, self._posting_for(state.document, term)))
        published, __ = self.protocol.publish_batch(self.node_id, postings)
        for state, terms in plans:
            for term in dict.fromkeys(terms):
                if term not in published or term in state.index_terms:
                    continue
                state.index_terms.append(term)
                if term not in state.poll_cursors:
                    state.poll_cursors[term] = -1
        return [state for state, __ in plans]

    def unshare_bulk(self, doc_ids: Sequence[str]) -> None:
        """Withdraw many documents at once, destination-grouping all
        their removals into one
        :meth:`~repro.core.indexer.IndexingProtocol.unpublish_batch`
        call on the batched path."""
        if len(set(doc_ids)) != len(doc_ids):
            raise LearningError("duplicate document id in bulk unshare")
        states = [self._state(doc_id) for doc_id in doc_ids]
        if not self.config.batched_writes:
            for doc_id in doc_ids:
                self.unshare(doc_id)
            return
        removals: List[Tuple[str, str]] = []
        for state in states:
            for term in state.index_terms:
                removals.append((term, state.document.doc_id))
        self.protocol.unpublish_batch(self.node_id, removals)
        for doc_id in doc_ids:
            del self.shared[doc_id]

    def _state(self, doc_id: str) -> SharedDocument:
        try:
            return self.shared[doc_id]
        except KeyError:
            raise LearningError(f"document not shared by this peer: {doc_id!r}") from None

    def _posting_for(self, document: Document, term: str) -> PostingEntry:
        return PostingEntry(
            doc_id=document.doc_id,
            owner_peer=self.node_id,
            raw_tf=document.term_freqs.get(term, 0),
            doc_length=document.length,
        )

    def _publish_terms(self, state: SharedDocument, terms: Sequence[str]) -> None:
        if self.config.batched_writes:
            fresh = [
                t for t in dict.fromkeys(terms) if t not in state.index_terms
            ]
            if not fresh:
                return
            published, __ = self.protocol.publish_batch(
                self.node_id,
                [(t, self._posting_for(state.document, t)) for t in fresh],
            )
            for term in fresh:
                if term not in published:
                    continue
                state.index_terms.append(term)
                if term not in state.poll_cursors:
                    state.poll_cursors[term] = -1
            return
        for term in terms:
            if term in state.index_terms:
                continue
            try:
                self.protocol.publish(
                    self.node_id, term, self._posting_for(state.document, term)
                )
            except NodeFailedError:
                continue
            state.index_terms.append(term)
            if term not in state.poll_cursors:
                state.poll_cursors[term] = -1

    def _publish_terms_force(self, state: SharedDocument, term: str) -> bool:
        """Re-publish the posting for an *already indexed* term.

        Used by the maintenance daemon when a heartbeat finds that the
        term's current responsible peer lacks our posting (the slot died
        with a crashed peer and no replica was promoted).  Returns True
        when the publication succeeded.
        """
        if term not in state.index_terms:
            raise LearningError(
                f"cannot force-publish unindexed term {term!r} for "
                f"{state.document.doc_id!r}"
            )
        try:
            self.protocol.publish(
                self.node_id, term, self._posting_for(state.document, term)
            )
        except NodeFailedError:
            return False
        return True

    def _unpublish_terms(self, state: SharedDocument, terms: Sequence[str]) -> None:
        if self.config.batched_writes:
            present = [
                t for t in dict.fromkeys(terms) if t in state.index_terms
            ]
            if not present:
                return
            self.protocol.unpublish_batch(
                self.node_id,
                [(t, state.document.doc_id) for t in present],
            )
            # Like the per-term path, the owner forgets the term whether
            # or not the destination peer was reachable.
            for term in present:
                state.index_terms.remove(term)
                state.poll_cursors.pop(term, None)
            return
        for term in terms:
            if term not in state.index_terms:
                continue
            try:
                self.protocol.unpublish(self.node_id, term, state.document.doc_id)
            except NodeFailedError:
                pass
            state.index_terms.remove(term)
            state.poll_cursors.pop(term, None)

    # -- learning ------------------------------------------------------------

    def poll_queries(self, doc_id: str) -> List[Tuple[str, ...]]:
        """Poll every index term's peer for queries cached since the
        last poll; the closest-hash rule at the peers guarantees each
        query comes back at most once per poll."""
        state = self._state(doc_id)
        hashes = {t: self.protocol.term_hash(t) for t in state.index_terms}
        collected: List[Tuple[str, ...]] = []
        if self.config.batched_writes:
            pairs = [
                (term, state.poll_cursors.get(term, -1))
                for term in state.index_terms
            ]
            results, __ = self.protocol.poll_batch(self.node_id, pairs, hashes)
            # Reassemble in index-term order so the observed query
            # stream is byte-identical to the per-term loop's.
            for term in list(state.index_terms):
                if term not in results:
                    continue  # unreachable peer: cursor untouched
                fresh, latest = results[term]
                state.poll_cursors[term] = latest
                collected.extend(c.terms for c in fresh)
            return collected
        for term in list(state.index_terms):
            since = state.poll_cursors.get(term, -1)
            try:
                fresh, latest = self.protocol.poll_term(
                    self.node_id, term, hashes, since
                )
            except NodeFailedError:
                continue
            state.poll_cursors[term] = latest
            collected.extend(c.terms for c in fresh)
        return collected

    def learn_document(self, doc_id: str, target_size: int | None = None) -> List[str]:
        """One learning iteration for one document (Section 5.3).

        Polls for the incremental query set, folds it into Algorithm 1's
        statistics, grows the term budget by ``terms_per_iteration`` (up
        to the cap — afterwards replacement only), and re-publishes the
        index diff.  Returns the new index-term list.
        """
        state = self._state(doc_id)
        new_queries = self.poll_queries(doc_id)
        state.learner.observe(new_queries)

        if target_size is None:
            target_size = min(
                self.config.max_index_terms,
                len(state.index_terms) + self.config.terms_per_iteration,
            )
        target_size = min(target_size, state.document.unique_terms)
        target_size = max(target_size, 1)

        new_terms = select_index_terms(
            state.document,
            state.index_terms,
            state.learner.rank_list(),
            target_size,
        )
        self._apply_term_set(state, new_terms)
        state.learning_iterations_run += 1
        return list(state.index_terms)

    def learn_all(self, target_size: int | None = None) -> None:
        """Run one learning iteration over every shared document."""
        for doc_id in list(self.shared):
            self.learn_document(doc_id, target_size)

    def _apply_term_set(self, state: SharedDocument, new_terms: Sequence[str]) -> None:
        current: Set[str] = set(state.index_terms)
        desired: Set[str] = set(new_terms)
        self._unpublish_terms(state, [t for t in state.index_terms if t not in desired])
        self._publish_terms(state, [t for t in new_terms if t not in current])

    # -- inspection --------------------------------------------------------------

    def index_terms(self, doc_id: str) -> List[str]:
        """The document's current global index terms."""
        return list(self._state(doc_id).index_terms)

    @property
    def num_shared(self) -> int:
        return len(self.shared)
