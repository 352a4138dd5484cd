"""The indexing-peer service and its wire protocol.

:class:`IndexingProtocol` encapsulates every interaction between peers
and the distributed term index: publishing and unpublishing postings,
registering issued queries into the per-term caches, fetching inverted
lists during search, the learning poll (whose Section 3 closest-hash
deduplication the owner applies to the reply), and the query-result
cache.

Each of them is the same exchange — route to the responsible peer,
deliver a request, let the peer act, deliver a reply — and each step is
written once (DESIGN.md §11):

``_route``
    One DHT lookup to the live peer responsible for a key: the only
    ``ring.lookup`` call here and the only liveness check after one.
``_locate``
    Destination-group a batch: distinct terms → ``peer → terms``,
    ``peer → hops``, unreachable terms.  The owner's write and poll
    batches absorb a term inside the ownership interval of a peer the
    owner already knows, or of one resolved earlier in the batch,
    without a lookup; the query side's reads pay one per term.
``_exchange``
    Per located peer: deliver the request, ``serve`` each of its terms
    at the peer, deliver the reply.  The only place a failed delivery
    becomes failed terms, so one rule holds by construction: **what a
    message carries takes effect only once it is delivered.**  A lost
    request leaves the peer as it was; a lost reply leaves the peer's
    side done and the sender without an answer.

A batched operation is a request builder, a per-term serve handler and
a reply builder handed to ``_exchange`` — methods beside the public one,
so nothing is allocated per call; the write batches, the owner's
HEARTBEAT probe and RESULT_STORE are request-only.  The
one-term-per-message ``publish`` / ``unpublish`` / ``poll_term`` are the
seed protocol, driven by ``tests/core/per_term_owner.py``: route → send
→ act → send, failures raised.  Every read — ``fetch_postings`` too, a
one-term batch that raises — is one ``_search``.  Only reads keep their routes in the
ring's route cache: an owner's lookups (every absorbing batch and the
seed protocol) pass ``cached=False``, since the owner keeps the peers
it reaches itself.

Lookups and sends go through the ring's :class:`~repro.net.Transport`,
so its statistics are the true protocol cost and a lossy transport
subjects every operation to latency, loss and retries; a dropped
delivery is a :class:`~repro.exceptions.MessageDroppedError`, a
:class:`~repro.exceptions.NodeFailedError`, so the Section 7 degradation
paths apply unchanged.  Slot state lives in ``node.store[term_hash]``,
so key migration and successor replication move it transparently.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import groupby
from operator import itemgetter
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..dht.messages import Message, MessageKind, message
from ..dht.node import ChordNode
from ..dht.ring import ChordRing
from ..exceptions import NodeFailedError
from ..ir.ranking import RankedList
from ..memo import FifoMap
from .metadata import (
    SHIPPED_MUTATIONS,
    CachedQuery,
    CachedResult,
    PostingEntry,
    QueryCache,
    QueryResultCache,
    ScoringView,
    TermSlot,
    query_digest,
)

#: The kinds this module sends, bound once: on CPython 3.11 reading an
#: enum member through its class costs ~150 ns (``EnumType.__getattr__``),
#: a module global ~15 ns.
_PUBLISH_TERM = MessageKind.PUBLISH_TERM
_UNPUBLISH_TERM = MessageKind.UNPUBLISH_TERM
_PUBLISH_BATCH = MessageKind.PUBLISH_BATCH
_UNPUBLISH_BATCH = MessageKind.UNPUBLISH_BATCH
_POLL_QUERIES = MessageKind.POLL_QUERIES
_POLL_BATCH = MessageKind.POLL_BATCH
_QUERY_BATCH = MessageKind.QUERY_BATCH
_SEARCH_TERM = MessageKind.SEARCH_TERM
_POSTINGS = MessageKind.POSTINGS
_REGISTER = MessageKind.REGISTER
_RESULT_PROBE = MessageKind.RESULT_PROBE
_RESULT_VALUE = MessageKind.RESULT_VALUE
_RESULT_STORE = MessageKind.RESULT_STORE
_VERSION_PROBE = MessageKind.VERSION_PROBE
_VERSION_VALUE = MessageKind.VERSION_VALUE
_HEARTBEAT = MessageKind.HEARTBEAT

#: ``(peer → its terms in first-seen order, peer → hops of the request
#: routed to it, unreachable terms)``: ``_locate`` to ``_exchange``.
Located = Tuple[Dict[int, list], Dict[int, int], list]

#: How many slot versions a querying peer holds (``ChordNode.
#: held_versions``).  Past it the version held longest is forgotten, and
#: that term's next fetch ships its postings again.
HELD_VERSIONS = 1024

# SHIPPED_MUTATIONS (imported above) is its counterpart at the indexing
# peer: how many mutations old a held version may be and still be
# answered with a diff rather than the list.  It lives in .metadata,
# where TermSlot keeps its record to it.


class SlotView:
    """Read view of one fetched term slot, as consumed by the query
    executor: the postings plus the slot aggregates (indexed df,
    content version).

    ``scoring_view()`` delegates to the slot's per-version cached
    columns (:meth:`TermSlot.scoring_view`), so a hot term's postings
    are turned into scoring inputs once per slot *mutation*, not once
    per query, and no per-posting object is built.  A ``None`` slot
    (unindexed term) yields the same empty shape :meth:`postings`
    reports.

    ``modified`` is false when the querying peer named this very
    version in its request (*held*); the reply then ships the version
    alone (see ``IndexingProtocol._search``).  ``diff`` is what a
    modified answer ships instead of the list when that is smaller
    (:meth:`TermSlot.ship`), or ``None``: the whole list.
    ``unresolved`` is true when the request named its query by a digest
    this slot's cache could not resolve, so nothing was registered here.
    """

    __slots__ = ("term", "indexed_df", "version", "modified", "diff", "unresolved", "_slot")

    def __init__(
        self,
        term: str,
        slot: Optional[TermSlot],
        held: Optional[int] = None,
        unresolved: bool = False,
    ) -> None:
        self.term = term
        self._slot = slot
        if slot is None:
            self.indexed_df = 0
            self.version = 0
        else:
            self.indexed_df = slot.indexed_document_frequency
            self.version = slot.version
        self.modified = self.version != held
        self.diff: Optional[Tuple[List[str], list]] = None
        self.unresolved = unresolved

    def scoring_view(self) -> ScoringView:
        return self._slot.scoring_view() if self._slot is not None else [[], [], []]

    def postings(self) -> Tuple[List[PostingEntry], int]:
        """``(inverted list, indexed document frequency)``; empty list
        / 0 for an unindexed term."""
        entries = self._slot.entries() if self._slot is not None else []
        return entries, self.indexed_df


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
        #: ``term_hash(term)``: a term's ring position (MD5) — the id
        #: space's memo, so a term hashed before costs one dict probe.
        self.term_hash: Callable[[str], int] = ring.space.hash_key

    # -- hashing ------------------------------------------------------------

    def query_hash(self, terms: Sequence[str]) -> int:
        """Ring position of a whole query (its canonical keyword string);
        precomputable offline exactly as the paper notes."""
        return self.ring.space.hash_key("\x1f".join(sorted(terms)))

    # -- the exchange: route, locate, exchange ---------------------------------

    def _route(self, start_id: int, key: int, cached: bool = True) -> Tuple[ChordNode, int]:
        """Route from *start_id* to the peer responsible for *key*:
        ``(node, lookup hops)``, or :class:`NodeFailedError` when routing
        fails or ends at a peer that is down (the Section 7 window).
        An owner's lookups pass *cached* false: only reads keep their
        routes in the ring's route cache."""
        result = self.ring.lookup(start_id, key, cached=cached)
        node = self.ring.nodes[result.node_id]
        if not node.alive:
            raise NodeFailedError(result.node_id)
        return node, result.hops

    def _locate(
        self,
        start_id: int,
        terms: Sequence,
        absorb: bool,
        key_of=None,
        near: Sequence[int] = (),
    ) -> Located:
        """Destination-group a batch: resolve each distinct term's
        indexing peer (the peer of ``key_of(term)``, by default of the
        term's hash).  A peer's request reports the longest route among
        its looked-up terms, plus the delivery hop.

        With *absorb*, a lookup is paid per distinct *peer*, not per
        term: a term whose hash falls in the ownership interval
        (predecessor, node] of an already-resolved live peer is absorbed
        without one — ownership is unique on a consistent ring, so
        absorption and lookup agree whenever the ring is stabilized.  A
        peer with an unset predecessor is never absorbed into (``owns``
        means "everything" there).  Only the first resolved id at-or-past
        a key can own it, so the candidate is found by bisection.  *near*
        are peers the sender reached before (an owner's known peers):
        absorbing starts from them, and a request to one that no term
        was looked up for is delivered directly, in one hop.  A near
        peer that left (gone from ``ring.nodes``) or crashed is never
        absorbed into: the candidate is the next live one clockwise,
        under the same ownership test, and a key it does not own is
        looked up — so a crashed peer's keys fail exactly as any lookup
        there does until ``stabilize``, and after it are absorbed by its
        successor when the owner knows that peer too.  An
        absorbing batch is an owner's: its lookups leave the route cache
        alone, since the owner keeps the peers they reach as *near*.
        """
        peer_terms: Dict[int, List[str]] = {}
        peer_hops: Dict[int, int] = {}
        failed: List[str] = []
        resolved_sorted: List[int] = sorted(near) if absorb else []  # empty unless absorbing
        key_of = key_of or self.term_hash
        nodes = self.ring.nodes
        mask = self.ring.space.mask
        for term in dict.fromkeys(terms):
            key = key_of(term)
            node_id: Optional[int] = None
            if resolved_sorted:
                idx = bisect_left(resolved_sorted, key)
                known = len(resolved_sorted)
                candidate = resolved_sorted[idx % known]
                node = nodes.get(candidate)  # None: a near peer that left
                step = 1
                while (node is None or not node.alive) and step < known:
                    candidate = resolved_sorted[(idx + step) % known]  # next clockwise
                    node = nodes.get(candidate)
                    step += 1
                pred = node.predecessor if node is not None and node.alive else None
                # ChordNode.owns on the mask: key ∈ (predecessor, node].
                if pred is not None:
                    span = (candidate - pred) & mask
                    if not span or 0 < ((key - pred) & mask) <= span:
                        node_id = candidate
            if node_id is None:
                try:
                    node, hops = self._route(start_id, key, cached=not absorb)
                except NodeFailedError:
                    failed.append(term)
                    continue
                node_id = node.node_id
                if hops >= peer_hops.get(node_id, 0):
                    peer_hops[node_id] = hops + 1
            if node_id in peer_terms:
                peer_terms[node_id].append(term)
                continue
            peer_terms[node_id] = [term]
            if node_id not in peer_hops:  # absorbed into a peer of *near*
                peer_hops[node_id] = 1
            elif absorb:
                insort(resolved_sorted, node_id)
        return peer_terms, peer_hops, failed

    def _exchange(
        self,
        src_id: int,
        located: Located,
        carried: object,
        request: Callable[..., Message],
        serve: Optional[Callable[..., object]] = None,
        reply: Optional[Callable[..., Message]] = None,
    ) -> Tuple[Dict, list]:
        """One request and one reply per located peer.

        ``request(src, peer, its terms, hops, carried)`` builds the
        request, *carried* being what it carries; once delivered, the
        peer acts — ``serve(node, term, carried)`` per term — and
        ``reply(peer, src, the answers)`` builds the reply.  A term is
        answered only if both messages of its peer's exchange arrived;
        otherwise it joins the failed terms, and a peer that did not
        take its request has served nothing.

        Without *serve* and *reply* the exchange is request-only: a term
        is answered with the node that took its request, where the
        caller then applies what the request carried, in its own order.
        Returns ``(term → answer, failed terms)``: *located*'s
        unreachable terms, then each failed peer's batch.
        """
        peer_terms, peer_hops, failed = located
        send = self.ring.send
        answered: Dict = {}
        for node_id, batch in peer_terms.items():
            try:
                send(request(src_id, node_id, batch, peer_hops[node_id], carried))
            except NodeFailedError:
                failed.extend(batch)
                continue
            node = self.ring.nodes[node_id]
            if serve is None:
                for term in batch:
                    answered[term] = node
                continue
            answers = {}
            for term in batch:
                answers[term] = serve(node, term, carried)
            try:
                send(reply(node_id, src_id, answers.values()))
            except NodeFailedError:
                failed.extend(batch)
                continue
            answered.update(answers)
        return answered, failed

    # -- slot access ----------------------------------------------------------

    def _slot_at(self, node: ChordNode, term: str, create: bool) -> Optional[TermSlot]:
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

    # -- publication (owner → indexing peer) -----------------------------------

    def publish(self, owner_id: int, term: str, posting: PostingEntry) -> int:
        """Publish one (term, document) posting; returns the hop count
        of the routed publication message.  The posting is indexed once
        that message is delivered, not before."""
        node, hops = self._route(owner_id, self.term_hash(term), cached=False)
        self.ring.send(
            message(_PUBLISH_TERM, owner_id, node.node_id, hops=hops + 1)
        )
        self._slot_at(node, term, create=True).add_posting(posting)
        return hops + 1

    def unpublish(self, owner_id: int, term: str, doc_id: str) -> bool:
        """Remove a posting during term replacement; True if it existed.

        The removal takes effect at the indexing peer only.  It changes
        the slot's ``replica_stamp``, so the next replication round
        reships the slot to its replica holders; a replica promoted
        before that round still holds the posting, and the next
        maintenance round's reconcile retires it (DESIGN.md §7).
        """
        node, hops = self._route(owner_id, self.term_hash(term), cached=False)
        self.ring.send(
            message(_UNPUBLISH_TERM, owner_id, node.node_id, hops=hops + 1)
        )
        slot = self._slot_at(node, term, create=False)
        if slot is None:
            return False
        return slot.remove_posting(doc_id) is not None

    def _open_write_batches(
        self,
        owner_id: int,
        terms: List[str],
        kind: MessageKind,
        near: Sequence[int],
    ) -> Tuple[Dict[str, ChordNode], Set[str], Dict[int, list]]:
        """The request-only exchange of :meth:`publish_batch`,
        :meth:`unpublish_batch` and :meth:`heartbeat_batch`: group
        *terms* (one per item, repeats included) by destination,
        absorbing into the peers *near* first, and send each peer one
        *kind* message counting its items.  Returns ``(term → the peer
        that took its batch, failed terms, each peer located → the terms
        its message carried)``; a peer that cannot be located or reached
        loses only its own terms.
        """
        items_of: Dict[str, int] = {}
        for term in terms:
            items_of[term] = items_of.get(term, 0) + 1
        located = self._locate(owner_id, items_of, absorb=True, near=near)
        taken_at, failed = self._exchange(
            owner_id, located, (kind, items_of), self._write_batch_request
        )
        return taken_at, set(failed), located[0]

    @staticmethod
    def _write_batch_request(src, dst, batch, hops, carried) -> Message:
        kind, items_of = carried
        items = 0
        for term in batch:
            items += items_of[term]
        return message(kind, src, dst, items, hops=hops)

    def publish_batch(
        self,
        owner_id: int,
        postings: Sequence[Tuple[str, PostingEntry]],
        near: Sequence[int] = (),
    ) -> Tuple[Set[str], Set[str], List[int]]:
        """Publish many (term, posting) pairs destination-grouped: one
        lookup per distinct indexing peer, none for a peer of *near*
        (the peers the owner already knows), and one PUBLISH_BATCH
        message carrying that peer's postings (DESIGN.md §11).

        Postings are applied in *input order* (consecutive same-term
        runs go through :meth:`TermSlot.add_postings`), so slot versions
        advance in exactly the sequence a posting-at-a-time loop of
        :meth:`publish` would produce — what the fingerprint comparison
        against ``tests/core/per_term_owner.py`` checks.  A peer that
        fails loses only its own batch.  Returns ``(published terms,
        failed terms, the peers located)``.
        """
        taken_at, failed_terms, located = self._open_write_batches(
            owner_id, [term for term, __ in postings], _PUBLISH_BATCH, near
        )
        published: Set[str] = set()
        for term, run in groupby(postings, key=itemgetter(0)):
            node = taken_at.get(term)
            if node is not None:
                slot = self._slot_at(node, term, create=True)
                slot.add_postings([posting for __, posting in run])
                published.add(term)
        return published, failed_terms, list(located)

    def unpublish_batch(
        self,
        owner_id: int,
        removals: Sequence[Tuple[str, str]],
        near: Sequence[int] = (),
    ) -> Tuple[Set[str], Set[str], List[int]]:
        """Remove many (term, doc id) postings destination-grouped, the
        counterpart of :meth:`publish_batch`: one lookup per distinct
        peer not in *near*, one UNPUBLISH_BATCH message each, applied in
        input order at the indexing peers only: replicas catch up as
        after :meth:`unpublish`.

        Returns ``(terms whose posting existed and was removed, failed
        terms, the peers located)`` — like :meth:`unpublish`, resolving
        to a peer that lacks the slot/posting is not a failure.
        """
        taken_at, failed_terms, located = self._open_write_batches(
            owner_id, [term for term, __ in removals], _UNPUBLISH_BATCH, near
        )
        removed: Set[str] = set()
        for term, doc_id in removals:
            node = taken_at.get(term)
            slot = self._slot_at(node, term, create=False) if node is not None else None
            if slot is not None and slot.remove_posting(doc_id) is not None:
                removed.add(term)
        return removed, failed_terms, list(located)

    def heartbeat_batch(
        self,
        owner_id: int,
        terms: List[str],
        near: Sequence[int] = (),
    ) -> Tuple[Dict[str, ChordNode], Set[str], Dict[int, list]]:
        """An owner's liveness probe, destination-grouped like its
        writes: *terms* holds one term per published (document, term)
        posting, and each responsible peer gets one HEARTBEAT counting
        the postings it should hold — a lookup only for a peer not in
        *near*.  The probe changes nothing at the peer; the caller reads
        the slots of the peer that took each term's heartbeat.

        Returns ``(term → the peer that took its heartbeat, failed
        terms, each peer located → the terms its heartbeat carried)``.
        """
        return self._open_write_batches(owner_id, terms, _HEARTBEAT, near)

    # -- query registration (querying peer → indexing peers) -----------------

    def register_query(self, issuer_id: int, terms: Tuple[str, ...]) -> int:
        """Cache an issued query at the indexing peer of every query term.

        Section 5.1: "a query is only maintained at peers whose indexing
        terms contain at least one query term" — i.e. at the peers
        responsible for the query's own terms.  Returns the number of
        peers that cached it.

        Registration on its own — inserting training queries, where
        nothing is fetched.  A query that is *executed* registers through
        the visit that fetches it (:meth:`fetch_slot_views`, *register*).
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
        digest = query_digest(terms)
        cached_at = 0
        versions: Dict[str, int] = {}
        failed: Set[str] = set()
        for term in terms:
            try:
                node, __ = self._route(issuer_id, self.term_hash(term))
            except NodeFailedError:
                failed.add(term)
                continue
            slot = self._slot_at(node, term, create=True)
            slot.cache.add(terms, qhash, digest)
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
        or a message of the exchange is lost (the caller drops the term,
        per Section 7).  Unindexed terms return an empty list —
        indistinguishable, at the protocol level, from a term no
        document chose.  The one-term case of :meth:`fetch_postings_batch`.
        """
        node, hops = self._route(issuer_id, self.term_hash(term))
        node_id = node.node_id
        views, failed = self._search(
            issuer_id, ({node_id: [term]}, {node_id: hops + 1}, []), None
        )
        if failed:
            raise NodeFailedError(node_id)
        return views[term].postings()

    def fetch_postings_batch(
        self, issuer_id: int, terms: Sequence[str]
    ) -> Tuple[Dict[str, Tuple[List[PostingEntry], int]], List[str]]:
        """Retrieve inverted lists for several query terms: one lookup
        per term (each key is its own ring position; the route cache
        makes repeats cheap), but terms of one indexing peer share one
        SEARCH_TERM request and one POSTINGS reply.

        Returns ``(results, failed)``: each reachable term's
        ``(postings, indexed document frequency)`` pair, exactly as
        :meth:`fetch_postings` reports it, and the terms dropped because
        their peer could not be located or a message of its exchange was
        lost (Section 7 degradation either way).
        """
        views, failed = self._search(
            issuer_id, self._locate(issuer_id, terms, absorb=False), None
        )
        return {term: view.postings() for term, view in views.items()}, failed

    def fetch_slot_views(
        self,
        issuer_id: int,
        terms: Sequence[str],
        register: bool = False,
        registered: AbstractSet[str] = frozenset(),
    ) -> Tuple[Dict[str, SlotView], List[str]]:
        """Like :meth:`fetch_postings_batch` — the same messages, kinds
        and hops — but each reachable term resolves to a
        :class:`SlotView` carrying the slot aggregates (indexed df,
        version) beside the postings: the inputs of the query executor
        and the result cache.

        With *register*, the visit is also the query's registration
        (Section 5.1: the search request itself is what leaves the query
        in the indexing peer's cache): each SEARCH_TERM also carries the
        keyword tuple *terms*, which the peer that takes it caches in
        every slot the request addresses, creating the empty slot of a
        never-indexed keyword exactly as :meth:`register_query` does.
        So a term that cannot be located, or whose SEARCH_TERM is lost,
        is dropped and cached nowhere; one whose POSTINGS reply is lost
        is dropped but *is* cached — the peer saw the request.

        *registered* are the terms whose peers the querying peer has seen
        take this very tuple before (a reply to a registering request
        came back).  A SEARCH_TERM whose terms are all registered names
        the tuple by its :func:`~repro.core.metadata.query_digest`
        instead, and the peer registers the tuple its query caches
        resolve it to.  A slot that cannot resolve it (the arrival was
        evicted, or the slot came from a replica that never saw it) is
        flagged in the reply, and the querying peer sends that peer one
        REGISTER carrying the tuple (:meth:`_register_unresolved`).
        """
        located = self._locate(issuer_id, terms, absorb=False)
        if not register:
            return self._search(issuer_id, located, None)
        query = tuple(terms)
        peer_terms = located[0]
        flagged: List[str] = []
        if registered.issuperset(query):
            # Every request names the query by digest; the query hash is
            # needed only if one falls back.
            registration = (query, None, query_digest(query), peer_terms, flagged)
        else:
            by_digest = {
                node_id for node_id, batch in peer_terms.items() if registered.issuperset(batch)
            }
            registration = (
                query, self.query_hash(query), query_digest(query), by_digest, flagged
            )
        views, failed = self._search(issuer_id, located, registration)
        if flagged:
            self._register_unresolved(issuer_id, peer_terms, views, registration)
        return views, failed

    # A fetch is conditional.  The querying peer keeps the version of
    # every posting list it has been sent (``ChordNode.held_versions``, at
    # most HELD_VERSIONS terms, first in first out) and names it in its
    # next request for the term; the indexing peer answers an unchanged
    # slot with its version alone.  Slot versions come from one
    # process-global counter, drawn on every mutation and kept by replica
    # copies, so an equal version is the identical list: what is scored,
    # registered, sent and routed is what an unconditional fetch does.
    #
    # A modified slot ships what changed since the named version when
    # that is smaller than its list: the withdrawn doc ids and the rows
    # added or overwritten, each one posting unit on the wire.  A slot
    # records its last SHIPPED_MUTATIONS mutations from its first ship on
    # (TermSlot.ship); a first fetch, a held version older than the
    # record and a promoted replica (a clone, never shipped) get the
    # whole list.

    def _search(self, issuer_id, located, registration):
        """One SEARCH_TERM / POSTINGS pair per located peer; *registration*
        is what the requests leave in each addressed slot's cache —
        ``(keyword tuple, query hash, digest, the peers named the digest
        alone, the terms whose slots could not resolve it)`` — or
        ``None``.  The versions of delivered replies become the issuer's
        held versions."""
        issuer = self.ring.nodes[issuer_id]
        held = issuer.held_versions
        if held is None:
            held = issuer.held_versions = FifoMap(HELD_VERSIONS)
        views, failed = self._exchange(
            issuer_id,
            located,
            (registration, held),
            self._search_request,
            self._serve_view,
            self._postings_reply,
        )
        for term, view in views.items():
            held.put(term, view.version)
        return views, failed

    @staticmethod
    def _search_request(src, dst, batch, hops, carried) -> Message:
        registration, held = carried
        versions = 0
        for term in batch:
            if term in held:
                versions += 1
        keywords = digests = 0
        if registration is not None:
            if dst in registration[3]:
                digests = 1
            else:
                keywords = len(registration[0])
        return message(
            _SEARCH_TERM,
            src,
            dst,
            len(batch),
            versions,
            keywords,
            digests,
            hops=hops,
        )

    def _serve_view(self, node, term, carried) -> SlotView:
        """Cache the query the request registers, if any — by its tuple,
        or by the cached arrival its digest resolves to; answer, not
        modified if the request named the slot's version, else with the
        diff from the named version or the whole list."""
        registration, held = carried
        unresolved = False
        if registration is None:
            slot = self._slot_at(node, term, create=False)
        else:
            slot = self._slot_at(node, term, create=True)
            if node.node_id not in registration[3]:
                slot.cache.add(registration[0], registration[1], registration[2])
            elif slot.cache.add_repeat(registration[2]) is None:
                unresolved = True
                registration[4].append(term)
        version = held.get(term)
        view = SlotView(term, slot, version, unresolved)
        if view.modified and slot is not None:
            view.diff = slot.ship(version)
        return view

    @staticmethod
    def _postings_reply(src, dst, views) -> Message:
        shipped = unresolved = 0
        for view in views:
            if view.modified:
                diff = view.diff
                if diff is None:
                    shipped += view.indexed_df
                else:
                    shipped += len(diff[0]) + len(diff[1])
            if view.unresolved:
                unresolved += 1
        return message(_POSTINGS, src, dst, shipped, len(views), unresolved)

    def _register_unresolved(self, issuer_id, peer_terms, views, registration) -> None:
        """The fallback of a registration by digest: one REGISTER carrying
        the tuple to each peer whose delivered reply flagged a slot, sent
        to the address the search reached (no lookup), request-only.  The
        peer that takes it registers the tuple in the flagged slots; a
        lost REGISTER leaves those terms answered and cached nowhere."""
        terms, __, digest, __, flagged = registration
        peer_of = {term: node_id for node_id, batch in peer_terms.items() for term in batch}
        missed: Dict[int, List[str]] = {}
        for term in flagged:
            if term in views:  # the reply that flagged it was delivered
                missed.setdefault(peer_of[term], []).append(term)
        taken_at, __ = self._exchange(
            issuer_id, (missed, dict.fromkeys(missed, 1), []), terms, self._register_request
        )
        qhash = self.query_hash(terms)
        for term, node in taken_at.items():
            self._slot_at(node, term, create=True).cache.add(terms, qhash, digest)

    @staticmethod
    def _register_request(src, dst, batch, hops, terms) -> Message:
        return message(_REGISTER, src, dst, len(terms), hops=hops)

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
        versions, failed = self._exchange(
            issuer_id,
            self._locate(issuer_id, terms, absorb=False),
            None,
            self._version_probe,
            self._serve_version,
            self._version_value,
        )
        return versions, set(failed)

    @staticmethod
    def _version_probe(src, dst, batch, hops, carried) -> Message:
        return message(_VERSION_PROBE, src, dst, len(batch), hops=hops)

    def _serve_version(self, node, term, carried) -> int:
        slot = self._slot_at(node, term, create=False)
        return slot.version if slot is not None else 0

    @staticmethod
    def _version_value(src, dst, versions) -> Message:
        return message(_VERSION_VALUE, src, dst, len(versions))

    # -- query-result cache (querying peer ↔ result-home peer) ----------------

    def result_caches(self) -> List[Tuple[int, QueryResultCache]]:
        """``(node id, cache)`` of every live peer that holds one."""
        return [
            (node_id, cache)
            for node_id in self.ring.live_ids
            if (cache := self.ring.nodes[node_id].result_cache) is not None
        ]

    def _result_cache_at(self, node: ChordNode) -> QueryResultCache:
        cache = node.result_cache
        if cache is None:
            cache = node.result_cache = QueryResultCache(self.result_cache_size)
        return cache

    def probe_result(
        self,
        issuer_id: int,
        terms: Tuple[str, ...],
        top_k: int,
        slot_versions: Dict[str, int],
        failed_terms: FrozenSet[str],
    ) -> Optional[RankedList]:
        """Ask the query's result home — the peer responsible for its
        canonical hash — for a still-valid cached result; ``None`` on
        miss, staleness, or an unreachable home.

        A stale entry for the *same* keyword tuple is dropped on sight
        (slot versions are monotone, so it can never validate again);
        an entry disagreeing only on the keyword tuple — a canonical-hash
        collision or a reordered query — is left in place.  A probe is
        counted, as a hit or a miss, once its RESULT_VALUE is delivered:
        a hit is a query that was served from the cache.
        """
        if self.result_cache_size <= 0:
            return None
        terms = tuple(terms)
        answered, __ = self._exchange(
            issuer_id,
            self._locate(issuer_id, [terms], False, self.query_hash),
            (top_k, slot_versions, failed_terms),
            self._result_probe,
            self._serve_result,
            self._result_value,
        )
        if terms not in answered:
            return None
        cache, served = answered[terms]
        if served is not None:
            cache.hits += 1
        else:
            cache.misses += 1
        return served

    @staticmethod
    def _result_probe(src, dst, batch, hops, carried) -> Message:
        return message(_RESULT_PROBE, src, dst, hops=hops)

    def _serve_result(
        self, node, terms, probe
    ) -> Tuple[QueryResultCache, Optional[RankedList]]:
        top_k, slot_versions, failed_terms = probe
        qhash = self.query_hash(terms)
        # Allocated on first probe, so a home that has stored nothing
        # yet still accounts for the probes it answers.
        cache = self._result_cache_at(node)
        entry = cache.get(qhash)
        served: Optional[RankedList] = None
        if entry is not None:
            if entry.matches(terms, top_k, slot_versions, failed_terms):
                served = entry.ranked.truncate(top_k)
            elif entry.terms == terms:
                cache.invalidate(qhash)
        return cache, served

    @staticmethod
    def _result_value(src, dst, answers) -> Message:
        (__, served), = answers
        return message(
            _RESULT_VALUE, src, dst, len(served) if served is not None else 0
        )

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
        terms = tuple(terms)
        entry = CachedResult(
            terms=terms,
            top_k=top_k,
            slot_versions=dict(slot_versions),
            failed_terms=frozenset(failed_terms),
            ranked=ranked,
        )
        stored_at, __ = self._exchange(
            issuer_id,
            self._locate(issuer_id, [terms], False, self.query_hash),
            entry,
            self._result_store,
        )
        for node in stored_at.values():
            self._result_cache_at(node).put(self.query_hash(terms), entry)
        return bool(stored_at)

    @staticmethod
    def _result_store(src, dst, batch, hops, entry) -> Message:
        return message(
            _RESULT_STORE,
            src,
            dst,
            len(entry.ranked),
            len(entry.slot_versions),
            hops=hops,
        )

    # -- learning poll (owner → indexing peer) ------------------------------------
    #
    # A poll carries cursors only.  The indexing peer answers every query
    # cached since a term's cursor; the owner, which alone holds its
    # documents' index-term hashes, applies the Section 3 closest-hash
    # rule to what was delivered (:meth:`_keep_closest`), per document.

    def poll_term(
        self,
        owner_id: int,
        term: str,
        index_term_hashes: Dict[str, int],
        since: int,
    ) -> Tuple[List[CachedQuery], int]:
        """One term's share of an index-update poll: one POLL_QUERIES
        request carrying the cursor *since*, one QUERY_BATCH reply
        carrying the slot's queries cached after it — an empty one for a
        term without a slot.  Of those, the owner keeps the queries for
        which *term* is the hash-closest of *index_term_hashes* among the
        terms the query contains — the Section 3 deduplication that
        stops a multi-term query from being counted once per matching
        indexing peer.

        Returns (new queries, latest sequence seen at the slot, or
        *since* without one).
        """
        node, hops = self._route(owner_id, self.term_hash(term), cached=False)
        self.ring.send(
            message(_POLL_QUERIES, owner_id, node.node_id, hops=hops + 1)
        )
        answer = self._serve_poll(node, term, {term: since})
        self.ring.send(self._query_batch(node.node_id, owner_id, [answer]))
        if answer[1] is None:
            return [], since
        return self._keep_closest(term, answer, index_term_hashes)

    def poll_batch(
        self,
        owner_id: int,
        documents: Sequence[Dict[str, int]],
        near: Sequence[int] = (),
    ) -> Tuple[Dict[Tuple[int, str], Tuple[List[CachedQuery], int]], Set[str], List[int]]:
        """An owner's learning poll over several documents, each given
        as its ``index term → cursor`` map: one POLL_BATCH request and
        one QUERY_BATCH reply per responsible indexing peer, none of
        them looked up for a peer of *near* (the peers the owner already
        knows) that owns the term.  A term
        that several documents index is requested once, at the smallest
        of their cursors, and the queries cached since then ship once;
        at the owner each document keeps those past its own cursor and
        applies the §3 rule with its own index-term hashes
        (:meth:`_keep_closest`).

        Returns ``((document index, term) → (the queries that document
        keeps, latest sequence seen), failed terms, the peers located)``.
        A term resolving to a peer without the slot reports ``([],
        cursor)`` just like :meth:`poll_term`.
        """
        cursor_of = self._lowest_cursors(documents)
        located = self._locate(owner_id, cursor_of, absorb=True, near=near)
        delivered, failed = self._exchange(
            owner_id,
            located,
            cursor_of,
            self._poll_request,
            self._serve_poll,
            self._query_batch,
        )
        term_hash, keep_closest = self.term_hash, self._keep_closest
        results: Dict[Tuple[int, str], Tuple[List[CachedQuery], int]] = {}
        for index, cursors in enumerate(documents):
            hashes = {term: term_hash(term) for term in cursors}
            for term, cursor in cursors.items():
                answer = delivered.get(term)
                if answer is None:
                    continue
                candidates, latest = answer
                if latest is None:
                    results[index, term] = [], cursor
                    continue
                if cursor != cursor_of[term]:  # the arrivals past this document's own
                    answer = candidates[max(0, len(candidates) - (latest - cursor)):], latest
                results[index, term] = keep_closest(term, answer, hashes)
        return results, set(failed), list(located[0])

    @staticmethod
    def _lowest_cursors(documents: Sequence[Dict[str, int]]) -> Dict[str, int]:
        """Each distinct term of *documents*, first-seen order, at the
        smallest of its cursors: what a round's POLL_BATCH requests."""
        cursor_of: Dict[str, int] = {}
        for cursors in documents:
            for term, cursor in cursors.items():
                cursor_of[term] = min(cursor, cursor_of.get(term, cursor))
        return cursor_of

    @staticmethod
    def _poll_request(src, dst, batch, hops, carried) -> Message:
        return message(_POLL_BATCH, src, dst, len(batch), hops=hops)

    def _serve_poll(self, node, term, cursor_of) -> Tuple[List[tuple], Optional[int]]:
        """Every query cached at *term*'s slot since its cursor, as the
        cache's ``(terms, query hash)`` records (the last one's sequence
        is the latest), and the slot's latest sequence; ``([], None)``
        without a slot."""
        slot = self._slot_at(node, term, create=False)
        if slot is None:
            return [], None
        return slot.cache.records_since(cursor_of[term]), slot.cache.latest_sequence

    def _keep_closest(
        self,
        term: str,
        answer: Tuple[List[tuple], int],
        index_term_hashes: Dict[str, int],
    ) -> Tuple[List[CachedQuery], int]:
        """The Section 3 selection rule, at the owner, for one term's
        delivered *answer* ``(records, latest sequence)``: keep the
        queries for which *term* is the hash-closest of the owner's
        index terms present in the query, each as a :class:`CachedQuery`
        with its sequence — the only views a poll builds."""
        records, latest = answer
        closest = self.ring.space.closest_term_to_key
        return [
            CachedQuery(terms, query_hash, sequence)
            for sequence, (terms, query_hash) in enumerate(records, latest + 1 - len(records))
            if closest(query_hash, terms, index_term_hashes) == term
        ], latest

    @staticmethod
    def _query_batch(src, dst, answers) -> Message:
        """The reply priced per shipped query and its terms, which come
        first in a cache record and in a :class:`CachedQuery` alike."""
        total_selected = total_query_terms = 0
        for queries, __ in answers:
            total_selected += len(queries)
            for query in queries:
                total_query_terms += len(query[0])
        return message(
            _QUERY_BATCH, src, dst, total_selected, total_query_terms
        )

    # -- maintenance / inspection ------------------------------------------------

    def slot_snapshot(self, term: str) -> Optional[TermSlot]:
        """Direct (non-routed) read of a term slot, for tests and
        benches; does not generate traffic."""
        node = self.ring.responsible_node(self.term_hash(term))
        slot = node.get_or_replica(self.term_hash(term))
        return slot  # type: ignore[return-value]
