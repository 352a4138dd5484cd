"""The owner peer: sharing documents and tuning their index terms.

An owner peer (Section 3) "owns and shares certain documents ... is
responsible for maintaining each shared document it owns, locally
indexing it, and selecting the global index terms for it".

Per shared document the owner keeps a :class:`SharedDocument`: the
current global index terms, the incremental learner (Algorithm 1
statistics), and one poll cursor per index term so each learning
iteration fetches only the queries cached since the previous iteration.

An owner speaks one wire protocol (DESIGN.md §11): whatever it
publishes, withdraws or polls is grouped by responsible indexing peer,
and each peer gets one PUBLISH_BATCH / UNPUBLISH_BATCH / POLL_BATCH
message.  The owner keeps the peers that took its requests
(:attr:`OwnerPeer.peers`: those its last poll located, plus those its
writes located since), and every batch absorbs into them first — a
term inside a known live peer's ownership interval costs no lookup, and
its request goes out in one hop.  A lookup is paid only for a peer the
owner has not reached.  A learning round covers all of the owner's
documents at once (:meth:`OwnerPeer.learn_all`): one poll, Algorithm 1
per document, then one withdrawal and one publication pass — so a round
costs a request per peer, not per (document, peer).
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


#: One document's share of a write: its state and the terms to publish
#: or withdraw.
Plan = Tuple[SharedDocument, Sequence[str]]


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
        #: The peers that took this owner's requests: those its last poll
        #: located, plus those its writes located since.  A poll covers
        #: every index term it asks about, so it replaces the list, which
        #: stays about as long as the owner has distinct indexing peers
        #: (a list: a set of ~40 ids costs several times the bytes).
        self.peers: List[int] = []

    # -- sharing -----------------------------------------------------------

    def share(self, document: Document, first_terms: Sequence[str] | None = None) -> SharedDocument:
        """Share a document: select initial terms (top-F frequency,
        Section 5.2, unless the user supplies their own) and publish
        them into the distributed index."""
        if document.doc_id in self.shared:
            raise LearningError(f"document already shared: {document.doc_id!r}")
        plan = self._admit(document, first_terms)
        self._publish([plan])
        return plan[0]

    def unshare(self, doc_id: str) -> None:
        """Withdraw a document: unpublish every global index term."""
        state = self._state(doc_id)
        self._unpublish([(state, state.index_terms)])
        del self.shared[doc_id]

    def share_bulk(self, documents: Sequence[Document]) -> List[SharedDocument]:
        """Share many documents at once, each with its top-F terms.

        The initial publications of the whole batch go out as *one*
        :meth:`~repro.core.indexer.IndexingProtocol.publish_batch` call,
        so a lookup is paid per distinct indexing peer across the entire
        corpus slice rather than per (document, term) pair — the bulk
        ingest the ROADMAP's "millions of users" north star needs.
        """
        seen: Set[str] = set()
        for document in documents:
            if document.doc_id in self.shared or document.doc_id in seen:
                raise LearningError(f"document already shared: {document.doc_id!r}")
            seen.add(document.doc_id)
        plans = [self._admit(doc) for doc in documents]
        self._publish(plans)
        return [state for state, __ in plans]

    def unshare_bulk(self, doc_ids: Sequence[str]) -> None:
        """Withdraw many documents at once: all their removals go out as
        one :meth:`~repro.core.indexer.IndexingProtocol.unpublish_batch`
        call."""
        if len(set(doc_ids)) != len(doc_ids):
            raise LearningError("duplicate document id in bulk unshare")
        states = [self._state(doc_id) for doc_id in doc_ids]
        self._unpublish([(state, state.index_terms) for state in states])
        for doc_id in doc_ids:
            del self.shared[doc_id]

    def _state(self, doc_id: str) -> SharedDocument:
        try:
            return self.shared[doc_id]
        except KeyError:
            raise LearningError(f"document not shared by this peer: {doc_id!r}") from None

    def _admit(self, document: Document, first_terms: Sequence[str] | None = None) -> Plan:
        """Start owning *document*; returns its state with the terms to
        publish first (the supplied ones, else top-F frequency)."""
        terms = (
            list(first_terms)
            if first_terms is not None
            else initial_terms(document, self.config.initial_terms)
        )
        state = SharedDocument(document, [], IncrementalLearner(document, scorer=self.scorer))
        self.shared[document.doc_id] = state
        return state, terms

    def _posting_for(self, document: Document, term: str) -> PostingEntry:
        # tuple.__new__ skips the named tuple's Python-level constructor.
        return tuple.__new__(
            PostingEntry,
            (document.doc_id, self.node_id, document.term_freqs.get(term, 0), document.length),
        )

    def _publish(self, plans: Sequence[Plan]) -> None:
        """Publish each plan's not-yet-indexed terms — every share,
        bulk share and learning round ends here.  One destination-grouped
        ``publish_batch`` carries all the plans, absorbing into the
        owner's known :attr:`peers` first; a term counts as indexed (and
        gets a fresh poll cursor) only if its indexing peer was
        reachable."""
        fresh = [
            (state, [t for t in dict.fromkeys(terms) if t not in state.index_terms])
            for state, terms in plans
        ]
        postings = [
            (t, self._posting_for(state.document, t)) for state, terms in fresh for t in terms
        ]
        if not postings:
            return
        published, __, located = self.protocol.publish_batch(self.node_id, postings, self.peers)
        self._know(located)
        for state, terms in fresh:
            for term in terms:
                if term in published:
                    state.index_terms.append(term)
                    state.poll_cursors.setdefault(term, -1)

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

    def _unpublish(self, plans: Sequence[Plan]) -> None:
        """Withdraw each plan's currently indexed terms in one
        destination-grouped ``unpublish_batch``, absorbing into the
        known :attr:`peers` — the counterpart of :meth:`_publish`.  The
        owner forgets a term whether or not its indexing peer was
        reachable."""
        present = [
            (state, [t for t in dict.fromkeys(terms) if t in state.index_terms])
            for state, terms in plans
        ]
        removals = [(t, state.document.doc_id) for state, terms in present for t in terms]
        if not removals:
            return
        __, __, located = self.protocol.unpublish_batch(self.node_id, removals, self.peers)
        self._know(located)
        for state, terms in present:
            for term in terms:
                state.index_terms.remove(term)
                state.poll_cursors.pop(term, None)

    def _know(self, located: List[int]) -> None:
        """Add the peers a write located to the known :attr:`peers`."""
        known = set(self.peers)
        self.peers = self.peers + [peer for peer in located if peer not in known]

    # -- learning ------------------------------------------------------------

    def poll_queries(self, doc_id: str) -> List[Tuple[str, ...]]:
        """What one document's learner observes in a learning round over
        it alone: the queries cached at its index terms' peers since the
        last poll, collected in index-term order (see :meth:`_poll`)."""
        return self._poll([self._state(doc_id)])[0]

    def _poll(self, states: Sequence[SharedDocument]) -> List[List[Tuple[str, ...]]]:
        """A learning round's one poll: a single ``poll_batch`` carrying
        the cursors of every document in *states* — one round-trip per
        distinct indexing peer, a term several documents index polled
        once, a term inside a known peer's interval located without a
        lookup.  ``poll_batch`` applies the §3 closest-hash rule to the
        replies with each document's own index-term hashes, so a query
        is counted at most once per document and poll.  The peers it
        located become the owner's known :attr:`peers`.

        Returns, per document, the queries its learner observes in
        index-term order.  An unreachable peer's terms keep their
        cursors.
        """
        results, __, located = self.protocol.poll_batch(
            self.node_id,
            [{t: state.poll_cursors.get(t, -1) for t in state.index_terms} for state in states],
            self.peers,
        )
        self.peers = located
        observed: List[List[Tuple[str, ...]]] = []
        for index, state in enumerate(states):
            collected: List[Tuple[str, ...]] = []
            for term in state.index_terms:
                answer = results.get((index, term))
                if answer is None:
                    continue  # unreachable peer: cursor untouched
                fresh, latest = answer
                state.poll_cursors[term] = latest
                collected.extend(c.terms for c in fresh)
            observed.append(collected)
        return observed

    def learn_document(self, *doc_ids: str, target_size: int | None = None) -> List[List[str]]:
        """One learning round (Section 5.3) over the documents *doc_ids*
        — :meth:`learn_all` is the round over every shared document.

        One poll for the whole round (:meth:`_poll`); per document,
        Algorithm 1 folds in the queries it observed, the term budget
        grows by ``terms_per_iteration`` (up to the cap — afterwards
        replacement only) and the next term set is selected; then one
        write pass withdraws the round's replaced terms in one
        ``unpublish_batch`` and publishes its new ones in one
        ``publish_batch``, both absorbing into the peers the poll located.
        Returns each document's new index-term list, in *doc_ids* order.
        """
        if len(set(doc_ids)) != len(doc_ids):
            raise LearningError("duplicate document id in a learning round")
        states = [self._state(doc_id) for doc_id in doc_ids]
        observed = self._poll(states)
        withdrawn: List[Plan] = []
        added: List[Plan] = []
        for state, queries in zip(states, observed):
            state.learner.observe(queries)
            size = target_size
            if size is None:
                size = min(
                    self.config.max_index_terms,
                    len(state.index_terms) + self.config.terms_per_iteration,
                )
            size = max(min(size, state.document.unique_terms), 1)
            new_terms = select_index_terms(
                state.document,
                state.index_terms,
                state.learner.rank_list(),
                size,
            )
            current, desired = set(state.index_terms), set(new_terms)
            withdrawn.append((state, [t for t in state.index_terms if t not in desired]))
            added.append((state, [t for t in new_terms if t not in current]))
            state.learning_iterations_run += 1
        self._unpublish(withdrawn)
        self._publish(added)
        return [list(state.index_terms) for state in states]

    def learn_all(self, target_size: int | None = None) -> None:
        """One learning round over every shared document."""
        self.learn_document(*self.shared, target_size=target_size)

    # -- inspection --------------------------------------------------------------

    def index_terms(self, doc_id: str) -> List[str]:
        """The document's current global index terms."""
        return list(self._state(doc_id).index_terms)

    @property
    def num_shared(self) -> int:
        return len(self.shared)
