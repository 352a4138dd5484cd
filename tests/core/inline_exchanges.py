"""The hand-inlined exchanges, kept as the reference the tests compare
:class:`~repro.core.indexer.IndexingProtocol` against.

Through PR 19 each batched operation wrote its own route-and-group loop
and its own request → serve → reply loop; ``IndexingProtocol`` now runs
all of them through one ``_route`` / ``_locate`` / ``_exchange``.  The
six batched methods below, and the three private helpers they call, are
that commit's code (``git show 76ee05e:src/repro/core/indexer.py``) with
two changes: each message is built through ``message()``, the cost table
both sides share — this reference pins the exchange *order*, not the
prices (``tests/dht/test_messages.py`` pins those) — and ``poll_batch``
speaks the current poll wire (cursors out, every cached query since
them back, the §3 rule applied by the owner; the wire it replaced is
``tests/core/peer_side_dedup.py``).  So a divergence in results, failed
terms, traffic or index state is the fold's.  Everything else — the
per-term seed methods, slot access, the §3 selection rule, the replica
deletion-forward with its deliver-first fix — is inherited, so both
sides of a comparison share it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.indexer import IndexingProtocol, SlotView
from repro.core.metadata import CachedQuery, PostingEntry, TermSlot
from repro.core.system import SpriteSystem
from repro.dht.messages import MessageKind, message
from repro.exceptions import NodeFailedError


class InlineExchanges(IndexingProtocol):
    """An indexing protocol whose batched operations each carry their
    own copy of the exchange."""

    def _locate_write_batch(
        self, start_id: int, terms: Sequence[str]
    ) -> Tuple[Dict[int, List[str]], Dict[int, int], List[str]]:
        """Destination-group a write batch: resolve each distinct term's
        responsible indexing peer, paying one DHT lookup per *distinct
        peer* rather than per term.

        A term whose hash falls in the ownership interval of an
        already-resolved live peer is absorbed without a lookup — Chord
        ownership (key ∈ (predecessor, node]) is unique on a consistent
        ring, so absorption and lookup agree whenever the ring is
        stabilized.  Peers whose predecessor pointer is unset are never
        absorbed into (``owns`` degenerates to "everything" there).
        Only one resolved peer can possibly own a key — the first
        resolved id at-or-past it on the ring (no peer exists between a
        key and its owner) — so the candidate is found by bisection, not
        a scan.

        Returns ``(peer → its terms in first-seen order, peer → routed
        hop count, unresolvable terms)``.
        """
        peer_terms: Dict[int, List[str]] = {}
        peer_hops: Dict[int, int] = {}
        failed: List[str] = []
        resolved_sorted: List[int] = []
        for term in dict.fromkeys(terms):
            key = self.term_hash(term)
            node_id: Optional[int] = None
            if resolved_sorted:
                idx = bisect_left(resolved_sorted, key)
                candidate = resolved_sorted[idx % len(resolved_sorted)]
                node = self.ring.node(candidate)
                if node.alive and node.predecessor is not None and node.owns(key):
                    node_id = candidate
            if node_id is None:
                try:
                    result = self.ring.lookup(start_id, key)
                    if not self.ring.node(result.node_id).alive:
                        raise NodeFailedError(result.node_id)
                except NodeFailedError:
                    failed.append(term)
                    continue
                node_id = result.node_id
                peer_hops[node_id] = max(
                    peer_hops.get(node_id, 0), result.hops + 1
                )
            if node_id not in peer_terms:
                insort(resolved_sorted, node_id)
            peer_terms.setdefault(node_id, []).append(term)
        return peer_terms, peer_hops, failed

    def _open_write_batches(
        self,
        owner_id: int,
        terms: List[str],
        kind: MessageKind,
    ) -> Tuple[Dict[str, int], Set[str]]:
        """Locate → size → send, shared by :meth:`publish_batch` and
        :meth:`unpublish_batch`: destination-group *terms* (one per item
        of the batch, repeats included) and send each peer one *kind*
        message counting its items.

        Returns ``(term → the reachable peer to apply it at, failed
        terms)``; a peer that cannot be located or does not take its
        message loses only its own terms.
        """
        peer_terms, peer_hops, failed = self._locate_write_batch(owner_id, terms)
        failed_terms: Set[str] = set(failed)
        term_peer = {
            term: node_id for node_id, batch in peer_terms.items() for term in batch
        }
        batch_sizes = Counter(map(term_peer.get, terms))
        for node_id, batch in peer_terms.items():
            try:
                self.ring.send(
                    message(
                        kind,
                        owner_id,
                        node_id,
                        batch_sizes[node_id],
                        hops=peer_hops[node_id],
                    )
                )
            except NodeFailedError:
                failed_terms.update(batch)
                for term in batch:
                    del term_peer[term]
        return term_peer, failed_terms

    def publish_batch(
        self, owner_id: int, postings: Sequence[Tuple[str, PostingEntry]]
    ) -> Tuple[Set[str], Set[str]]:
        """Publish many (term, posting) pairs destination-grouped: one
        lookup per distinct indexing peer and one PUBLISH_BATCH message
        carrying that peer's postings (DESIGN.md §11).

        Postings are applied in *input order* (consecutive same-term
        runs go through :meth:`TermSlot.add_postings`), so slot versions
        advance in exactly the sequence a posting-at-a-time loop of
        :meth:`publish` would produce — what the fingerprint comparison
        against ``tests/core/per_term_owner.py`` checks.  A peer that
        fails loses only its own batch.

        Returns ``(published terms, failed terms)``.
        """
        term_peer, failed_terms = self._open_write_batches(
            owner_id, [term for term, __ in postings], MessageKind.PUBLISH_BATCH
        )
        published: Set[str] = set()
        for term, run in groupby(postings, key=itemgetter(0)):
            node_id = term_peer.get(term)
            if node_id is not None:
                slot = self._slot_at(self.ring.node(node_id), term, create=True)
                assert slot is not None
                slot.add_postings([posting for __, posting in run])
                published.add(term)
        return published, failed_terms

    def unpublish_batch(
        self, owner_id: int, removals: Sequence[Tuple[str, str]]
    ) -> Tuple[Set[str], Set[str]]:
        """Remove many (term, doc id) postings destination-grouped, the
        counterpart of :meth:`publish_batch`: one lookup per distinct
        peer, one UNPUBLISH_BATCH message each, applied in input order
        with the replica deletion-forwarding of :meth:`unpublish`.

        Returns ``(terms whose posting existed and was removed, failed
        terms)`` — like :meth:`unpublish`, resolving to a peer that
        lacks the slot/posting is not a failure.
        """
        term_peer, failed_terms = self._open_write_batches(
            owner_id, [term for term, __ in removals], MessageKind.UNPUBLISH_BATCH
        )
        removed: Set[str] = set()
        for term, doc_id in removals:
            node_id = term_peer.get(term)
            if node_id is None:
                continue
            slot = self._slot_at(self.ring.node(node_id), term, create=False)
            if slot is None:
                continue
            if slot.remove_posting(doc_id) is not None:
                removed.add(term)
            self._forward_unpublish_to_replicas(node_id, term, doc_id)
        return removed, failed_terms

    def fetch_postings_batch(
        self, issuer_id: int, terms: Sequence[str]
    ) -> Tuple[Dict[str, Tuple[List[PostingEntry], int]], List[str]]:
        """Retrieve inverted lists for several query terms, merging wire
        traffic per responsible indexing peer.

        Routing cost is unchanged — each term's key is a distinct ring
        position, so each still takes its own DHT lookup (the route
        cache makes repeats cheap) — but terms that resolve to the same
        indexing peer share one SEARCH_TERM request and one POSTINGS
        reply instead of a message pair per term, the obvious real-world
        batching a querying peer would do.

        Returns ``(results, failed)``: ``results`` maps each reachable
        term to its ``(postings, indexed document frequency)`` pair
        (empty list / 0 for unindexed terms, exactly like
        :meth:`fetch_postings`), and ``failed`` lists the terms dropped
        because their peer was unreachable — per-term lookup failures,
        or a lost batch message taking down every term of that peer
        (Section 7 degradation either way).
        """
        def extract(term: str, slot: Optional[TermSlot]):
            if slot is None:
                return ([], 0), 0
            postings = slot.entries()
            return (postings, slot.indexed_document_frequency), len(postings)

        return self._fetch_batch(issuer_id, terms, extract)

    def fetch_slot_views(
        self, issuer_id: int, terms: Sequence[str], register: bool = False
    ) -> Tuple[Dict[str, SlotView], List[str]]:
        """Like :meth:`fetch_postings_batch`, but each reachable term
        resolves to a :class:`SlotView` carrying the slot aggregates
        (indexed df, version) beside the postings — the inputs of the
        query executor and the result cache.

        Sends *exactly* the same messages as :meth:`fetch_postings_batch`
        (same kinds, sizes, and hops — both share one batching core), so
        the two execution paths are indistinguishable to NetworkStats.

        With *register*, the visit is also the query's registration
        (Section 5.1: the search request itself is what leaves the query
        in the indexing peer's cache): a peer that takes the SEARCH_TERM
        caches the keyword tuple *terms* in every slot the request
        addresses, creating the empty slot of a never-indexed keyword
        exactly as :meth:`register_query` does — one lookup per term
        instead of registration's and the fetch's one each.  What a
        failure leaves behind: a term that cannot be located, or whose
        SEARCH_TERM is not delivered, is dropped and nothing is cached
        at its slot; a term whose POSTINGS reply is lost is dropped but
        *is* cached — the peer saw the request.
        """
        def extract(term: str, slot: Optional[TermSlot]):
            view = SlotView(term, slot)
            return view, view.indexed_df

        return self._fetch_batch(issuer_id, terms, extract, register)

    def _fetch_batch(
        self,
        issuer_id: int,
        terms: Sequence[str],
        extract: Callable[[str, Optional[TermSlot]], Tuple[object, int]],
        register: bool = False,
    ):
        """Shared batching core: route each distinct term, group terms by
        responsible peer, and exchange one SEARCH_TERM / POSTINGS message
        pair per peer.  ``extract(term, slot)`` produces ``(payload,
        posting count)`` per term; the count sizes the POSTINGS reply so
        every payload shape reports identical wire cost.  With
        *register*, a peer that takes the request caches the query
        *terms* in each addressed slot before it answers."""
        located: Dict[str, Tuple[int, int]] = {}
        peer_terms: Dict[int, List[str]] = {}
        failed: List[str] = []
        for term in dict.fromkeys(terms):
            try:
                result = self.ring.lookup(issuer_id, self.term_hash(term))
                if not self.ring.node(result.node_id).alive:
                    raise NodeFailedError(result.node_id)
            except NodeFailedError:
                failed.append(term)
                continue
            located[term] = (result.node_id, result.hops)
            peer_terms.setdefault(result.node_id, []).append(term)

        query = tuple(terms)
        qhash = self.query_hash(query) if register else 0
        results: Dict[str, object] = {}
        for node_id, batch in peer_terms.items():
            hops = max(located[t][1] for t in batch) + 1
            try:
                self.ring.send(
                    message(
                        MessageKind.SEARCH_TERM, issuer_id, node_id, len(batch), hops=hops
                    )
                )
            except NodeFailedError:
                failed.extend(batch)
                continue
            node = self.ring.node(node_id)
            total_postings = 0
            batch_results: Dict[str, object] = {}
            for term in batch:
                slot = self._slot_at(node, term, create=register)
                if register:
                    slot.cache.add(query, qhash)
                payload, num_postings = extract(term, slot)
                total_postings += num_postings
                batch_results[term] = payload
            try:
                self.ring.send(
                    message(MessageKind.POSTINGS, node_id, issuer_id, total_postings)
                )
            except NodeFailedError:
                failed.extend(batch)
                continue
            results.update(batch_results)
        return results, failed

    def probe_slot_versions(
        self, issuer_id: int, terms: Sequence[str]
    ) -> Tuple[Dict[str, int], Set[str]]:
        """Current slot version of every query term, batched per
        responsible peer (one VERSION_PROBE / VERSION_VALUE pair each).

        The result cache's validity input for queries executed *without*
        registration — registered queries get the versions for free via
        :meth:`register_query_observing`.  Unindexed terms report
        version 0; unreachable terms land in the failed set.
        """
        located: Dict[str, Tuple[int, int]] = {}
        peer_terms: Dict[int, List[str]] = {}
        failed: Set[str] = set()
        for term in dict.fromkeys(terms):
            try:
                result = self.ring.lookup(issuer_id, self.term_hash(term))
                if not self.ring.node(result.node_id).alive:
                    raise NodeFailedError(result.node_id)
            except NodeFailedError:
                failed.add(term)
                continue
            located[term] = (result.node_id, result.hops)
            peer_terms.setdefault(result.node_id, []).append(term)

        versions: Dict[str, int] = {}
        for node_id, batch in peer_terms.items():
            hops = max(located[t][1] for t in batch) + 1
            try:
                self.ring.send(
                    message(
                        MessageKind.VERSION_PROBE, issuer_id, node_id, len(batch), hops=hops
                    )
                )
            except NodeFailedError:
                failed.update(batch)
                continue
            node = self.ring.node(node_id)
            batch_versions = {}
            for term in batch:
                slot = node.adopt(self.term_hash(term))
                batch_versions[term] = slot.version if slot is not None else 0
            try:
                self.ring.send(
                    message(MessageKind.VERSION_VALUE, node_id, issuer_id, len(batch))
                )
            except NodeFailedError:
                failed.update(batch)
                continue
            versions.update(batch_versions)
        return versions, failed

    def poll_batch(
        self,
        owner_id: int,
        term_cursors: Sequence[Tuple[str, int]],
        index_term_hashes: Dict[str, int],
    ) -> Tuple[Dict[str, Tuple[List[CachedQuery], int]], Set[str]]:
        """Coalesced learning poll: every (term, cursor) pair an owner
        holds, grouped by responsible indexing peer — one POLL_BATCH
        request and one QUERY_BATCH reply per *peer* instead of a
        round-trip per term.  The request carries the cursors, the reply
        every query cached since each term's cursor, and the owner
        applies the per-term selection rule to what was delivered
        (:meth:`_keep_closest`).

        Returns ``(term → (new queries, latest sequence seen), failed
        terms)``.  A term resolving to a peer without the slot reports
        ``([], cursor)`` just like :meth:`poll_term`.
        """
        cursor_of = dict(term_cursors)
        peer_terms, peer_hops, failed = self._locate_write_batch(
            owner_id, [term for term, __ in term_cursors]
        )
        failed_terms: Set[str] = set(failed)
        results: Dict[str, Tuple[List[CachedQuery], int]] = {}
        for node_id, batch in peer_terms.items():
            try:
                self.ring.send(
                    message(
                        MessageKind.POLL_BATCH,
                        owner_id,
                        node_id,
                        len(batch),
                        hops=peer_hops[node_id],
                    )
                )
            except NodeFailedError:
                failed_terms.update(batch)
                continue
            node = self.ring.node(node_id)
            batch_results: Dict[str, Tuple[List[CachedQuery], int]] = {}
            total_candidates = 0
            total_query_terms = 0
            for term in batch:
                slot = self._slot_at(node, term, create=False)
                if slot is None:
                    batch_results[term] = ([], cursor_of[term])
                    continue
                candidates = slot.cache.since(cursor_of[term])
                batch_results[term] = (candidates, slot.cache.latest_sequence)
                total_candidates += len(candidates)
                total_query_terms += sum(len(c.terms) for c in candidates)
            try:
                self.ring.send(
                    message(
                        MessageKind.QUERY_BATCH,
                        node_id,
                        owner_id,
                        total_candidates,
                        total_query_terms,
                    )
                )
            except NodeFailedError:
                failed_terms.update(batch)
                continue
            for term, answer in batch_results.items():
                results[term] = self._keep_closest(term, answer, index_term_hashes)
        return results, failed_terms


def install_inline_exchanges(system: SpriteSystem) -> SpriteSystem:
    """Make *system* speak through :class:`InlineExchanges`.  Owners and
    the query processor hold the one protocol object, and the subclass
    adds methods only, so re-classing that object switches every
    caller."""
    system.protocol.__class__ = InlineExchanges
    return system
