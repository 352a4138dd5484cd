"""The indexing-peer service and its wire protocol.

:class:`IndexingProtocol` encapsulates every interaction between peers
and the distributed term index: publishing and unpublishing postings,
registering issued queries into the per-term caches, fetching inverted
lists during search, and the learning poll with the closest-hash
deduplication rule of Section 3.

All operations route through the Chord ring (lookup + message send) and
therefore through the ring's pluggable :class:`~repro.net.Transport`, so
the network statistics the ring accumulates reflect the true protocol
cost and, under a lossy transport, every operation is subject to
latency, loss, and retry semantics — a dropped delivery surfaces as
:class:`~repro.exceptions.MessageDroppedError` (a
:class:`~repro.exceptions.NodeFailedError` subclass, so the Section 7
degradation paths apply unchanged).  Slot state lives in
``node.store[term_hash]`` so DHT key migration and successor
replication move it transparently.

Owners write through the destination-grouped ``publish_batch`` /
``unpublish_batch`` / ``poll_batch`` only (DESIGN.md §11).  The
one-term-per-message ``unpublish`` and ``poll_term`` are the seed
protocol, driven by the reference owner in
``tests/core/per_term_owner.py``; ``publish`` also serves the
maintenance daemon's single-posting republish.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from itertools import groupby
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..dht.messages import (
    Message,
    MessageKind,
    QUERY_HEADER_BYTES,
    TERM_BYTES,
    poll_batch_message,
    postings_message,
    publish_batch_message,
    publish_message,
    query_batch_message,
    result_probe_message,
    result_store_message,
    result_value_message,
    search_message,
    unpublish_batch_message,
    version_probe_message,
    version_value_message,
)
from ..dht.ring import ChordRing
from ..exceptions import NodeFailedError
from ..ir.ranking import RankedList
from .metadata import (
    CachedQuery,
    CachedResult,
    PostingEntry,
    QueryCache,
    QueryResultCache,
    ScoringView,
    TermSlot,
)


class SlotView:
    """Read view of one fetched term slot, as consumed by the query
    executor: the postings plus the slot aggregates (indexed df,
    content version).

    ``scoring_view()`` delegates to the slot's per-version cached
    columns (:meth:`TermSlot.scoring_view`), so a hot term's postings
    are turned into scoring inputs once per slot *mutation*, not once
    per query, and no per-posting object is built.  A ``None`` slot
    (unindexed term) yields the same empty shape :meth:`fetch_postings`
    reports.
    """

    __slots__ = ("term", "indexed_df", "version", "_slot")

    def __init__(self, term: str, slot: Optional[TermSlot]) -> None:
        self.term = term
        self._slot = slot
        if slot is None:
            self.indexed_df = 0
            self.version = 0
        else:
            self.indexed_df = slot.indexed_document_frequency
            self.version = slot.version

    def scoring_view(self) -> ScoringView:
        return self._slot.scoring_view() if self._slot is not None else [[], [], []]


class IndexingProtocol:
    """Network-level operations on the distributed term index.

    Parameters
    ----------
    ring:
        The Chord overlay carrying the index.
    query_cache_size:
        Capacity of each term slot's recent-query cache (Section 3:
        indexing peers keep only the most recent queries).
    result_cache_size:
        Capacity of each indexing peer's query-result cache; 0 disables
        result caching entirely (no probe/store traffic).
    store_runtime:
        Optional :class:`~repro.store.runtime.StoreRuntime`; when given,
        newly created term slots take their posting store from its
        ``new_postings(node_id)`` (the SQLite backend) instead of the
        in-RAM store.
    """

    def __init__(
        self,
        ring: ChordRing,
        query_cache_size: int = 2000,
        result_cache_size: int = 0,
        store_runtime=None,
    ) -> None:
        self.ring = ring
        self.query_cache_size = query_cache_size
        self.result_cache_size = result_cache_size
        self.store_runtime = store_runtime
        self._result_caches: Dict[int, QueryResultCache] = {}

    # -- hashing ------------------------------------------------------------

    def term_hash(self, term: str) -> int:
        """Ring position of a term.

        Delegates straight to the id space: :func:`repro.dht.hashing.
        md5_hash` is already ``lru_cache``-memoized, so a second
        per-protocol memo dict (the seed's ``_hash_cache``) would only
        duplicate state.
        """
        return self.ring.space.hash_key(term)

    def query_hash(self, terms: Sequence[str]) -> int:
        """Ring position of a whole query (its canonical keyword string);
        precomputable offline exactly as the paper notes."""
        return self.ring.space.hash_key("\x1f".join(sorted(terms)))

    # -- slot access ----------------------------------------------------------

    def _slot_at(self, node, term: str, create: bool) -> Optional[TermSlot]:
        """The term's slot on an already-located node.

        adopt(), not get_or_replica(): a responsible peer serving a
        replica-resident slot promotes it to a primary copy, so later
        key transfers (joins) migrate it instead of stranding it.
        Creates an empty slot on demand when *create*."""
        key = self.term_hash(term)
        slot = node.adopt(key)
        if slot is None and create:
            store = (
                self.store_runtime.new_postings(node.node_id)
                if self.store_runtime is not None
                else None
            )
            slot = TermSlot(
                term=term,
                cache=QueryCache(self.query_cache_size),
                store=store,
            )
            node.put(key, slot)
        return slot

    def _locate_slot(
        self, start_id: int, term: str, create: bool
    ) -> Tuple[Optional[TermSlot], int, int]:
        """Route to the indexing peer of *term*; return (slot, node id,
        lookup hops).  Creates an empty slot on demand when *create*."""
        result = self.ring.lookup(start_id, self.term_hash(term))
        node = self.ring.node(result.node_id)
        if not node.alive:
            raise NodeFailedError(result.node_id)
        slot = self._slot_at(node, term, create)
        return slot, result.node_id, result.hops

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

    # -- publication (owner → indexing peer) -----------------------------------

    def publish(self, owner_id: int, term: str, posting: PostingEntry) -> int:
        """Publish one (term, document) posting; returns the hop count
        of the routed publication message."""
        slot, node_id, hops = self._locate_slot(owner_id, term, create=True)
        assert slot is not None
        slot.add_posting(posting)
        self.ring.send(publish_message(owner_id, node_id, hops + 1))
        return hops + 1

    def unpublish(self, owner_id: int, term: str, doc_id: str) -> bool:
        """Remove a posting during term replacement; True if it existed.

        The deletion is also forwarded to the indexing peer's replica
        holders (its live successors that carry a copy of the slot), so
        a replica shipped *before* the unpublish cannot resurrect the
        posting when it is later promoted after a failure — the
        double-counting race the simulation harness surfaced.
        """
        slot, node_id, hops = self._locate_slot(owner_id, term, create=False)
        self.ring.send(
            Message(
                kind=MessageKind.UNPUBLISH_TERM,
                src=owner_id,
                dst=node_id,
                size_bytes=TERM_BYTES + QUERY_HEADER_BYTES,
                hops=hops + 1,
            )
        )
        if slot is None:
            return False
        removed = slot.remove_posting(doc_id) is not None
        self._forward_unpublish_to_replicas(node_id, term, doc_id)
        return removed

    def _forward_unpublish_to_replicas(
        self, node_id: int, term: str, doc_id: str
    ) -> None:
        """Propagate a deletion to the live successor replicas of the
        term's slot (the double-counting guard of :meth:`unpublish`),
        shared with :meth:`unpublish_batch`."""
        key = self.term_hash(term)
        for succ_id in self.ring.node(node_id).successor_list:
            if succ_id == node_id or not self.ring.is_live(succ_id):
                continue
            replica = self.ring.node(succ_id).replicas.get(key)
            if isinstance(replica, TermSlot) and replica.has_posting(doc_id):
                replica.remove_posting(doc_id)
                try:
                    self.ring.send(
                        Message(
                            kind=MessageKind.UNPUBLISH_TERM,
                            src=node_id,
                            dst=succ_id,
                            size_bytes=TERM_BYTES + QUERY_HEADER_BYTES,
                        )
                    )
                except NodeFailedError:
                    continue

    def _open_write_batches(
        self,
        owner_id: int,
        terms: List[str],
        batch_message: Callable[[int, int, int, int], Message],
    ) -> Tuple[Dict[str, int], Set[str]]:
        """Locate → size → send, shared by :meth:`publish_batch` and
        :meth:`unpublish_batch`: destination-group *terms* (one per item
        of the batch, repeats included) and send each peer one
        ``batch_message(owner, peer, its item count, hops)``.

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
                    batch_message(
                        owner_id, node_id, batch_sizes[node_id], peer_hops[node_id]
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
            owner_id, [term for term, __ in postings], publish_batch_message
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
            owner_id, [term for term, __ in removals], unpublish_batch_message
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

    # -- query registration (querying peer → indexing peers) -----------------

    def register_query(self, issuer_id: int, terms: Tuple[str, ...]) -> int:
        """Cache an issued query at the indexing peer of every query term.

        Section 5.1: "a query is only maintained at peers whose indexing
        terms contain at least one query term" — i.e. at the peers
        responsible for the query's own terms.  Returns the number of
        peers that cached it.

        Registration on its own — inserting training queries, where
        nothing is fetched.  A query that is *executed* registers through
        the visit that fetches its postings
        (:meth:`fetch_slot_views` with ``register``).
        """
        cached_at, __, __ = self.register_query_observing(issuer_id, terms)
        return cached_at

    def register_query_observing(
        self, issuer_id: int, terms: Tuple[str, ...]
    ) -> Tuple[int, Dict[str, int], Set[str]]:
        """:meth:`register_query`, additionally reporting what the
        registration round observed: every reachable term's current slot
        version and the set of unreachable terms.

        Registration already routes to the indexing peer of *each* query
        term, so the version snapshot the result cache needs to validate
        an entry rides along at zero additional message cost.  Returns
        ``(peers that cached the query, term -> slot version,
        unreachable terms)``.
        """
        qhash = self.query_hash(terms)
        cached_at = 0
        versions: Dict[str, int] = {}
        failed: Set[str] = set()
        for term in terms:
            try:
                slot, __, __ = self._locate_slot(issuer_id, term, create=True)
            except NodeFailedError:
                failed.add(term)
                continue
            assert slot is not None
            slot.cache.add(terms, qhash)
            versions[term] = slot.version
            cached_at += 1
        return cached_at, versions, failed

    # -- search (querying peer → indexing peer) ---------------------------------

    def fetch_postings(
        self, issuer_id: int, term: str
    ) -> Tuple[List[PostingEntry], int]:
        """Retrieve the inverted list and indexed document frequency for
        one query term.

        Raises :class:`NodeFailedError` if the responsible peer is down
        (the caller drops the term, per Section 7).  Unindexed terms
        return an empty list — indistinguishable, at the protocol level,
        from a term no document chose.
        """
        slot, node_id, hops = self._locate_slot(issuer_id, term, create=False)
        self.ring.send(search_message(issuer_id, node_id, hops + 1))
        if slot is None:
            self.ring.send(postings_message(node_id, issuer_id, 0))
            return [], 0
        postings = slot.entries()
        self.ring.send(postings_message(node_id, issuer_id, len(postings)))
        return postings, slot.indexed_document_frequency

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
                    Message(
                        kind=MessageKind.SEARCH_TERM,
                        src=issuer_id,
                        dst=node_id,
                        size_bytes=QUERY_HEADER_BYTES + len(batch) * TERM_BYTES,
                        hops=hops,
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
                self.ring.send(postings_message(node_id, issuer_id, total_postings))
            except NodeFailedError:
                failed.extend(batch)
                continue
            results.update(batch_results)
        return results, failed

    # -- slot-version probes (querying peer → indexing peers) -----------------

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
                    version_probe_message(issuer_id, node_id, len(batch), hops)
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
                self.ring.send(version_value_message(node_id, issuer_id, len(batch)))
            except NodeFailedError:
                failed.update(batch)
                continue
            versions.update(batch_versions)
        return versions, failed

    # -- query-result cache (querying peer ↔ result-home peer) ----------------

    def result_cache_stats(self) -> Tuple[int, int, int]:
        """(entries, hits, misses) aggregated over all peers' caches."""
        entries = sum(len(c) for c in self._result_caches.values())
        hits = sum(c.hits for c in self._result_caches.values())
        misses = sum(c.misses for c in self._result_caches.values())
        return entries, hits, misses

    def _result_home(self, issuer_id: int, qhash: int) -> Tuple[int, int]:
        """Route to the peer responsible for a query's canonical hash —
        the deterministic home of its cached result."""
        result = self.ring.lookup(issuer_id, qhash)
        if not self.ring.node(result.node_id).alive:
            raise NodeFailedError(result.node_id)
        return result.node_id, result.hops

    def probe_result(
        self,
        issuer_id: int,
        terms: Tuple[str, ...],
        top_k: int,
        slot_versions: Dict[str, int],
        failed_terms: FrozenSet[str],
    ) -> Optional[RankedList]:
        """Ask the query's result-home peer for a still-valid cached
        result; ``None`` on miss, staleness, or an unreachable home.

        A stale entry for the *same* keyword tuple is dropped on sight
        (slot versions are monotone, so it can never validate again);
        an entry disagreeing only on the keyword tuple — a canonical-hash
        collision or a reordered query — is left in place.
        """
        if self.result_cache_size <= 0:
            return None
        qhash = self.query_hash(terms)
        try:
            node_id, hops = self._result_home(issuer_id, qhash)
            self.ring.send(result_probe_message(issuer_id, node_id, hops + 1))
        except NodeFailedError:
            return None
        cache = self._result_caches.get(node_id)
        if cache is None:
            # Allocate on first probe so every probe is accounted as a
            # hit or a miss, even before the home stores anything.
            cache = self._result_caches[node_id] = QueryResultCache(
                self.result_cache_size
            )
        entry = cache.get(qhash)
        served: Optional[RankedList] = None
        if entry is not None:
            if entry.matches(terms, top_k, slot_versions, failed_terms):
                served = entry.ranked.truncate(top_k)
            elif entry.terms == tuple(terms):
                cache.invalidate(qhash)
        if served is not None:
            cache.hits += 1
        else:
            cache.misses += 1
        try:
            self.ring.send(
                result_value_message(
                    node_id, issuer_id, len(served) if served is not None else 0
                )
            )
        except NodeFailedError:
            return None
        return served

    def store_result(
        self,
        issuer_id: int,
        terms: Tuple[str, ...],
        top_k: int,
        slot_versions: Dict[str, int],
        failed_terms: FrozenSet[str],
        ranked: RankedList,
    ) -> bool:
        """Install a freshly scored result at the query's home peer;
        True when stored (False when caching is off or the home peer is
        unreachable)."""
        if self.result_cache_size <= 0:
            return False
        qhash = self.query_hash(terms)
        try:
            node_id, hops = self._result_home(issuer_id, qhash)
            self.ring.send(
                result_store_message(
                    issuer_id, node_id, len(ranked), len(slot_versions), hops + 1
                )
            )
        except NodeFailedError:
            return False
        cache = self._result_caches.get(node_id)
        if cache is None:
            cache = self._result_caches[node_id] = QueryResultCache(
                self.result_cache_size
            )
        cache.put(
            qhash,
            CachedResult(
                terms=tuple(terms),
                top_k=top_k,
                slot_versions=dict(slot_versions),
                failed_terms=frozenset(failed_terms),
                ranked=ranked,
            ),
        )
        return True

    # -- learning poll (owner → indexing peer) ------------------------------------

    def poll_term(
        self,
        owner_id: int,
        term: str,
        index_term_hashes: Dict[str, int],
        since: int,
    ) -> Tuple[List[CachedQuery], int]:
        """One term's share of an index-update poll.

        The poll message carries *all* the document's global index terms
        (their hashes); the indexing peer of *term* returns only the
        cached queries newer than *since* for which *term* is the
        hash-closest index term among those the query actually contains
        — the Section 3 deduplication that stops a multi-term query from
        being shipped back once per matching indexing peer.

        Returns (new queries, latest sequence seen at the slot).
        """
        slot, node_id, hops = self._locate_slot(owner_id, term, create=False)
        self.ring.send(
            Message(
                kind=MessageKind.POLL_QUERIES,
                src=owner_id,
                dst=node_id,
                size_bytes=QUERY_HEADER_BYTES + len(index_term_hashes) * TERM_BYTES,
                hops=hops + 1,
            )
        )
        if slot is None:
            return [], since

        selected = self._select_fresh_queries(slot, term, index_term_hashes, since)
        mean_terms = (
            sum(len(c.terms) for c in selected) / len(selected) if selected else 0.0
        )
        self.ring.send(query_batch_message(node_id, owner_id, len(selected), mean_terms))
        return selected, slot.cache.latest_sequence

    def _select_fresh_queries(
        self,
        slot: TermSlot,
        term: str,
        index_term_hashes: Dict[str, int],
        since: int,
    ) -> List[CachedQuery]:
        """The Section 3 selection rule for one slot: cached queries
        newer than *since* for which *term* is the hash-closest of the
        owner's index terms present in the query.  Shared verbatim by
        :meth:`poll_term` and :meth:`poll_batch`."""
        selected: List[CachedQuery] = []
        for cached in slot.cache.since(since):
            present = {
                t: index_term_hashes[t]
                for t in cached.terms
                if t in index_term_hashes
            }
            if not present:
                continue
            closest = self.ring.space.closest_term_to_key(cached.query_hash, present)
            if closest == term:
                selected.append(cached)
        return selected

    def poll_batch(
        self,
        owner_id: int,
        term_cursors: Sequence[Tuple[str, int]],
        index_term_hashes: Dict[str, int],
    ) -> Tuple[Dict[str, Tuple[List[CachedQuery], int]], Set[str]]:
        """Coalesced learning poll: every (term, cursor) pair an owner
        holds, grouped by responsible indexing peer — one POLL_BATCH
        request and one QUERY_BATCH reply per *peer* instead of a
        round-trip per term, with the per-term selection rule (and the
        per-term cursors) preserved exactly via
        :meth:`_select_fresh_queries`.

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
                    poll_batch_message(
                        owner_id,
                        node_id,
                        len(batch),
                        len(index_term_hashes),
                        peer_hops[node_id],
                    )
                )
            except NodeFailedError:
                failed_terms.update(batch)
                continue
            node = self.ring.node(node_id)
            batch_results: Dict[str, Tuple[List[CachedQuery], int]] = {}
            total_selected = 0
            total_query_terms = 0
            for term in batch:
                slot = self._slot_at(node, term, create=False)
                if slot is None:
                    batch_results[term] = ([], cursor_of[term])
                    continue
                selected = self._select_fresh_queries(
                    slot, term, index_term_hashes, cursor_of[term]
                )
                batch_results[term] = (selected, slot.cache.latest_sequence)
                total_selected += len(selected)
                total_query_terms += sum(len(c.terms) for c in selected)
            mean_terms = (
                total_query_terms / total_selected if total_selected else 0.0
            )
            try:
                self.ring.send(
                    query_batch_message(node_id, owner_id, total_selected, mean_terms)
                )
            except NodeFailedError:
                failed_terms.update(batch)
                continue
            results.update(batch_results)
        return results, failed_terms

    # -- maintenance / inspection ------------------------------------------------

    def slot_snapshot(self, term: str) -> Optional[TermSlot]:
        """Direct (non-routed) read of a term slot, for tests and
        benches; does not generate traffic."""
        node = self.ring.responsible_node(self.term_hash(term))
        slot = node.get_or_replica(self.term_hash(term))
        return slot  # type: ignore[return-value]

    def indexed_document_frequency(self, term: str) -> int:
        """Current n'_k of a term (0 when unindexed); non-routed."""
        slot = self.slot_snapshot(term)
        return slot.indexed_document_frequency if slot is not None else 0
