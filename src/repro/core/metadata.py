"""Metadata structures of SPRITE (paper Section 5.1).

Indexing-peer state, per term (stored as an opaque slot in the DHT):

* the inverted list — for each document containing the term as a
  *global index term*: owner address, document id, term frequency, and
  document length, in publish order (held by a posting store:
  :mod:`repro.ir.postings` in RAM, :mod:`repro.store` on disk);
* a bounded cache of the most recently issued queries mentioning the
  term (the learning fuel), each pre-hashed for the closest-hash
  deduplication rule of Section 3, and indexed by the digest a repeat
  query is registered by (:func:`query_digest`).

Owner-peer state, per term of a shared document:

* ``qScore`` — the similarity between the document and the most similar
  historical query containing the term;
* ``QF`` — the number of historical queries containing the term.
"""

from __future__ import annotations

import copy
import itertools
from collections import OrderedDict, deque
from dataclasses import dataclass
from math import inf, sqrt
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..dht.hashing import position_memo
from ..ir.postings import PostingRow, RamPostings
from ..ir.ranking import RankedList

#: A slot's postings as the three parallel columns the query executor
#: scores from, in publish order: ``[doc ids, normalized term
#: frequencies, norms]``.  See :meth:`TermSlot.scoring_view`.
ScoringView = List[list]

#: How many of its latest mutations a shipped slot records, so how many
#: mutations old a querying peer's held version may be and still be
#: answered with a diff (:meth:`TermSlot.ship`).
SHIPPED_MUTATIONS = 8

#: Width of the digest a querying peer names a repeat query by
#: (:func:`query_digest`), in bits: 8 bytes on the wire.
QUERY_DIGEST_BITS = 64


def query_digest(terms: Sequence[str]) -> int:
    """The digest of an *ordered* keyword tuple: a repeat query's
    SEARCH_TERM carries it in place of the tuple, and the indexing peer
    resolves it against its query caches (:meth:`QueryCache.add_repeat`).
    Unlike the query hash it is not sorted: the cache must register the
    very tuple the querying peer issued."""
    return position_memo(QUERY_DIGEST_BITS)["\x1f".join(terms)]


class PostingEntry(NamedTuple):
    """One inverted-list entry at an indexing peer (a named tuple: one
    is built per posting an owner publishes).

    Exactly the fields Section 5.1 lists: "the owner peer's IP address,
    the owner document ID, the term frequency in the document and the
    document length".  ``owner_peer`` is the owner's node id (our
    simulation's stand-in for an IP address).  The fields are a
    posting store's row (:data:`~repro.ir.postings.PostingRow`), in
    its order.
    """

    doc_id: str
    owner_peer: int
    raw_tf: int
    doc_length: int

    @property
    def normalized_tf(self) -> float:
        """t_ik — term frequency normalized by document length."""
        if self.doc_length <= 0:
            return 0.0
        return self.raw_tf / self.doc_length


class CachedQuery(NamedTuple):
    """A query as cached at an indexing peer (a named tuple: one is
    built per registered term visit).

    ``query_hash`` is precomputed ("every cached query is hashed also,
    which can be precomputed offline"), and ``sequence`` is the slot's
    monotone arrival counter that lets owners poll incrementally.
    """

    terms: Tuple[str, ...]
    query_hash: int
    sequence: int


# One CachedQuery is built per registered term visit: tuple.__new__ skips
# the named tuple's Python-level constructor.
_new_tuple = tuple.__new__

# Process-global stamp sequence for query caches, the counterpart of the
# posting-version sequence in repro.ir.postings: a cache draws a stamp
# when it is created and on every arrival, so two caches report the same
# stamp only if one is an unmodified copy of the other.
_CACHE_STAMPS = itertools.count(1)


class QueryCache:
    """Bounded most-recent-queries cache (Section 3: "to reduce the
    storage, each indexing peer maintains only the most recently issued
    queries").

    The cache is a FIFO of query *arrivals*: re-issuing an identical
    keyword set appends a fresh entry with a new sequence number, so QF
    — defined over historical queries, repeats included — reflects query
    popularity under skewed streams ("w-zipf").  Capacity bounds the
    number of stored arrivals; the oldest are discarded first.

    Beside the FIFO, an index ``digest → latest arrival`` of every tuple
    cached (:func:`query_digest`), kept on arrival and on eviction: a
    digest resolves while an arrival of its tuple is cached, and never
    while two cached tuples share it.  It holds at most one entry per
    distinct cached tuple.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: deque = deque()
        self._index: Dict[int, Optional[CachedQuery]] = {}
        self._next_sequence = 0
        self._stamp = next(_CACHE_STAMPS)

    @classmethod
    def from_state(
        cls,
        capacity: int,
        entries: Iterable[Tuple[Tuple[str, ...], int, int]],
        next_sequence: int,
    ) -> "QueryCache":
        """Rebuild a cache from checkpointed state (``repro.store``
        snapshots): the exact entries *and* the next sequence number, so
        ``latest_sequence`` — which owner poll cursors and the write-state
        fingerprint both observe — survives a save/load round trip."""
        cache = cls(capacity)
        for terms, query_hash, sequence in entries:
            cache._entries.append(
                CachedQuery(tuple(terms), int(query_hash), int(sequence))
            )
        cache._reindex()
        cache._next_sequence = int(next_sequence)
        return cache

    def add(
        self, terms: Tuple[str, ...], query_hash: int, digest: Optional[int] = None
    ) -> CachedQuery:
        """Record one issued query; evicts the oldest beyond capacity.
        *digest* is the tuple's :func:`query_digest` when the caller
        already has it."""
        if digest is None:
            digest = query_digest(terms)
        entry = _new_tuple(CachedQuery, (terms, query_hash, self._next_sequence))
        self._next_sequence += 1
        self._stamp = next(_CACHE_STAMPS)
        entries = self._entries
        entries.append(entry)
        index = self._index
        known = index.get(digest, entry)
        if known is entry or known is not None and known.terms == terms:
            index[digest] = entry
        else:
            index[digest] = None  # two cached tuples share it
        while len(entries) > self.capacity:
            self._evicted(entries.popleft())
        return entry

    def add_repeat(self, digest: int) -> Optional[CachedQuery]:
        """Record one more arrival of the tuple *digest* names — exactly
        what :meth:`add` of that tuple records — or nothing, returning
        ``None``, when no cached tuple or more than one has the digest."""
        index = self._index
        known = index.get(digest)
        if known is None:
            return None
        entry = _new_tuple(CachedQuery, (known.terms, known.query_hash, self._next_sequence))
        self._next_sequence += 1
        self._stamp = next(_CACHE_STAMPS)
        entries = self._entries
        entries.append(entry)
        index[digest] = entry
        while len(entries) > self.capacity:
            self._evicted(entries.popleft())
        return entry

    @property
    def digests(self) -> Mapping[int, Optional[CachedQuery]]:
        """The digest index, for audits: each value is the latest cached
        arrival of the digest's tuple, or ``None`` where two cached
        tuples share the digest.  Callers must not mutate it."""
        return self._index

    def _evicted(self, entry: CachedQuery) -> None:
        """Unindex an evicted arrival if it was its tuple's latest (the
        FIFO keeps no older one); a shared digest re-reads the index
        from what is left."""
        digest = query_digest(entry.terms)
        known = self._index[digest]
        if known is entry:
            del self._index[digest]
        elif known is None:
            self._reindex()

    def _reindex(self) -> None:
        index: Dict[int, Optional[CachedQuery]] = {}
        for entry in self._entries:
            digest = query_digest(entry.terms)
            known = index.get(digest, entry)
            if known is entry or known is not None and known.terms == entry.terms:
                index[digest] = entry
            else:
                index[digest] = None
        self._index = index

    def since(self, sequence: int) -> List[CachedQuery]:
        """All cached arrivals with sequence strictly greater than
        *sequence*, oldest first — the incremental set Q' a poll fetches."""
        return [e for e in self._entries if e.sequence > sequence]

    @property
    def latest_sequence(self) -> int:
        """The highest sequence number handed out so far (-1 if none)."""
        return self._next_sequence - 1

    @property
    def content_stamp(self) -> int:
        """Globally-unique stamp of the cache's content.  Sequence
        numbers cannot serve: they restart per cache lineage, so two
        copies of one cache that each took a *different* query agree on
        ``latest_sequence`` and disagree on content."""
        return self._stamp

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CachedQuery]:
        return iter(self._entries)

    def __deepcopy__(self, memo) -> "QueryCache":
        """Structural clone: the entries are frozen, so a new deque and a
        new digest index over the same :class:`CachedQuery` objects share
        nothing mutable.  Keeps the stamp — the content is identical."""
        clone = object.__new__(type(self))
        clone.capacity = self.capacity
        clone._entries = deque(self._entries)
        clone._index = dict(self._index)
        clone._next_sequence = self._next_sequence
        clone._stamp = self._stamp
        return clone


class TermSlot:
    """Everything an indexing peer holds for one term: the inverted list
    plus the query cache.  Stored under the term's ring hash in the DHT,
    so replication and key migration move it as a unit.

    Postings live in a pluggable store: the in-RAM dict store of
    :mod:`repro.ir.postings` unless *store* supplies another object
    honouring the same contract (``repro.store``'s SQLite backend, a
    test's reference model).  Every store enumerates postings in
    insertion order and maintains the slot aggregates the query path
    consumes — indexed document frequency and a globally-unique content
    *version* bumped on every publish/unpublish (the query-result
    cache's invalidation signal).

    Mutation must go through :meth:`add_posting`/:meth:`remove_posting`.

    Once one of its versions has been shipped (:meth:`ship`), a slot
    records its mutations: ``(version before, doc id, present before,
    present after)``, the last :data:`SHIPPED_MUTATIONS` of them (the
    version before is ``None`` for a row past the first of a store-level
    batch: no reader ever saw that state).  A slot never shipped records
    nothing, and ``()`` marks one shipped and not mutated since, so
    neither holds a container for it.
    """

    def __init__(
        self,
        term: str,
        cache: Optional[QueryCache] = None,
        store=None,
    ) -> None:
        self.term = term
        self.cache = cache if cache is not None else QueryCache(capacity=2000)
        self._store = store if store is not None else RamPostings()
        self._scoring_version = -1
        self._scoring_view: ScoringView = []
        self._entries_version = -1
        self._entries_view: List[PostingEntry] = []
        self._mutations: Optional[Sequence[tuple]] = None

    # -- aggregates ---------------------------------------------------------

    @property
    def replica_stamp(self) -> Tuple[int, int]:
        """``(postings version, query-cache stamp)`` — equal between a
        slot and a copy of it only while neither has changed: both
        halves come from process-global sequences, every
        publish/unpublish draws a version and every cached query a
        stamp.  The replication round ships a slot only where this
        differs."""
        return (self._store.version, self.cache.content_stamp)

    @property
    def indexed_document_frequency(self) -> int:
        """n'_k — the paper's surrogate for document frequency: the
        number of documents that chose this term as a global index term."""
        return len(self._store)

    @property
    def version(self) -> int:
        """Globally-unique version of the inverted list's content."""
        return self._store.version

    # -- mutation -----------------------------------------------------------

    def add_posting(self, entry: PostingEntry) -> None:
        store = self._store
        if self._mutations is None:
            store.add(*entry)
            return
        before, present = store.version, entry.doc_id in store
        store.add(*entry)
        self._record(before, entry.doc_id, present, True)

    def add_postings(self, entries: Iterable[PostingEntry]) -> None:
        """Apply one PUBLISH_BATCH run for this slot.  Each entry still
        draws its own global version tick (versions are the result
        cache's invalidation signal and must stay per-mutation), but the
        derived views are rebuilt lazily at most once afterwards.  A
        store with an ``add_many`` (the SQLite backend) gets the whole
        run at once so it can wrap it in a single transaction: an entry
        is already the store's row."""
        store = self._store
        add_many = getattr(store, "add_many", None)
        if add_many is None:
            for entry in entries:
                self.add_posting(entry)
            return
        if self._mutations is None:
            add_many(entries)
            return
        rows = list(entries)
        before = store.version
        present = {row[0] for row in rows if row[0] in store}
        add_many(rows)
        for doc_id, __, __, __ in rows:
            self._record(before, doc_id, doc_id in present, True)
            present.add(doc_id)
            before = None

    def remove_posting(self, doc_id: str) -> Optional[PostingEntry]:
        before = self._store.version
        row = self._store.remove(doc_id)
        if row is None:
            return None
        if self._mutations is not None:
            self._record(before, doc_id, True, False)
        return _new_tuple(PostingEntry, row)

    def _record(
        self, before: Optional[int], doc_id: str, present: bool, now: bool
    ) -> None:
        mutations = self._mutations
        if not mutations:
            mutations = self._mutations = []
        mutations.append((before, doc_id, present, now))
        if len(mutations) > SHIPPED_MUTATIONS:
            del mutations[0]

    # -- shipping -----------------------------------------------------------

    @property
    def mutations(self) -> Optional[Sequence[tuple]]:
        """The mutations recorded since the slot was first shipped, oldest
        first (at most :data:`SHIPPED_MUTATIONS`); ``None`` if it never
        was."""
        return self._mutations

    def ship(
        self, held: Optional[int]
    ) -> Optional[Tuple[List[str], List[PostingRow]]]:
        """What this slot's answer to a querying peer holding version
        *held* (``None``: none) ships, once the slot has been modified
        since: the diff from *held* when the record reaches back to it
        and the diff is smaller than the list, else ``None`` — the whole
        list.  The first ship starts the record.

        A diff is ``(withdrawn doc ids, rows added or overwritten)``.  A
        copy of the held list drops the withdrawn ids, then takes the
        rows in order with dict semantics — an overwrite in place, a new
        row at the end — and equals :meth:`rows`.  It replays the record
        since *held*: a document's first recorded mutation says whether
        the held list had it, and one it had that was removed since is
        withdrawn, so a re-added document moves to the end, as it did
        here."""
        mutations = self._mutations
        if mutations is None:
            self._mutations = ()
            return None
        if held is None:
            return None
        for start, mutation in enumerate(mutations):
            if mutation[0] == held:
                break
        else:
            return None
        held_has: Dict[str, bool] = {}
        withdrawn: List[str] = []
        changed: Dict[str, None] = {}
        for __, doc_id, present, now in mutations[start:]:
            if doc_id not in held_has:
                held_has[doc_id] = present
            if now:
                changed[doc_id] = None
                continue
            changed.pop(doc_id, None)
            if held_has[doc_id]:
                held_has[doc_id] = False
                withdrawn.append(doc_id)
        if len(withdrawn) + len(changed) >= len(self._store):
            return None
        lookup = self._store.lookup
        return withdrawn, [lookup(doc_id) for doc_id in changed]

    # -- reads --------------------------------------------------------------

    def has_posting(self, doc_id: str) -> bool:
        """Membership test without materializing the entry view."""
        return doc_id in self._store

    def get_posting(self, doc_id: str) -> Optional[PostingEntry]:
        """One posting without materializing the entry view."""
        row = self._store.lookup(doc_id)
        if row is None:
            return None
        return _new_tuple(PostingEntry, row)

    def rows(self) -> Iterator[PostingRow]:
        """All postings in publish order as the store's plain rows
        ``(doc id, owner, raw tf, length)``; nothing is built or kept."""
        return self._store.rows()

    def scoring_view(self) -> ScoringView:
        """All postings in publish order as three parallel columns —
        ``[doc ids, normalized term frequencies, norms]`` — the view the
        query executor scores from.  Everything about a posting that
        moves only with the slot's version is computed here, once per
        version: ``t_ik = raw_tf / length`` (:attr:`PostingEntry.
        normalized_tf`) and the divisor of Lee's normalisation,
        ``sqrt(length)``.  A zero-length document has ``t_ik`` 0.0 and
        norm ``+inf``, so it scores 0.0 without a branch per candidate.

        Three flat lists of strings and floats, whatever the store: a
        slot that is only ever queried never builds a
        :class:`PostingEntry` nor any other per-posting container, so a
        first read leaves nothing behind for the cyclic garbage
        collector to track.  Callers must not mutate the lists."""
        version = self._store.version
        if version != self._scoring_version:
            doc_ids: List[str] = []
            ntfs: List[float] = []
            norms: List[float] = []
            for doc_id, __, raw_tf, length in self._store.rows():
                doc_ids.append(doc_id)
                ntfs.append(raw_tf / length if length > 0 else 0.0)
                norms.append(sqrt(length) if length > 0 else inf)
            self._scoring_view = [doc_ids, ntfs, norms]
            self._scoring_version = version
        return self._scoring_view

    def entries(self) -> List[PostingEntry]:
        """All postings in publish order, as a cached materialized list
        of entries (rebuilt only when the slot's version has moved).
        Callers must not mutate the returned list."""
        version = self._store.version
        if version != self._entries_version:
            self._entries_view = [
                _new_tuple(PostingEntry, row) for row in self._store.rows()
            ]
            self._entries_version = version
        return self._entries_view

    # -- replication support ------------------------------------------------

    def __deepcopy__(self, memo) -> "TermSlot":
        """Structural clone for replication: the cache and the posting
        store copy themselves (each backend knows its own layout); the
        derived views are left empty and rebuild lazily on first read,
        so a replica nobody queries never pays for them.  The clone has
        never been shipped, so it records no mutation."""
        clone = object.__new__(type(self))
        clone.term = self.term
        clone.cache = copy.deepcopy(self.cache, memo)
        clone._store = copy.deepcopy(self._store, memo)
        clone._scoring_version = -1
        clone._scoring_view = []
        clone._entries_version = -1
        clone._entries_view = []
        clone._mutations = None
        return clone


@dataclass
class CachedResult:
    """One fully-scored query result held at an indexing peer.

    ``terms`` is the *exact ordered* keyword tuple the result was scored
    for — queries with the same keyword set but a different order share
    a canonical hash yet accumulate floating-point contributions in a
    different order, so a hit requires tuple equality, not set equality.
    ``slot_versions`` snapshots every query term's slot version at
    scoring time (0 for terms with no slot); because slot versions are
    globally unique, version equality proves the postings are unchanged.
    ``failed_terms`` records which terms were dropped to unreachable
    peers — a result computed under a partial failure must not be served
    once the peers recover (or vice versa).
    """

    terms: Tuple[str, ...]
    top_k: int
    slot_versions: Dict[str, int]
    failed_terms: FrozenSet[str]
    ranked: RankedList

    def matches(
        self,
        terms: Tuple[str, ...],
        top_k: int,
        slot_versions: Mapping[str, int],
        failed_terms: FrozenSet[str],
    ) -> bool:
        """Whether this entry can answer the given request exactly."""
        return (
            self.terms == tuple(terms)
            and self.top_k >= top_k
            and self.slot_versions == dict(slot_versions)
            and self.failed_terms == failed_terms
        )


class QueryResultCache:
    """Bounded LRU of scored query results, one per indexing peer.

    Keyed by the canonical query hash of Section 3 (already used for
    cached-query deduplication), so the cache for a query lives at a
    deterministic ring position any querying peer can route to.  Entries
    are validated — not eagerly invalidated — via the per-slot version
    counters snapshotted in :class:`CachedResult`: a publish, unpublish,
    or learning replacement bumps the term slot's version, and the next
    probe sees the mismatch and discards the entry.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[int, CachedResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, query_hash: int) -> Optional[CachedResult]:
        """The entry under *query_hash* (refreshing its recency), or
        ``None``.  Validity checking is the caller's job — the cache
        cannot see current slot versions."""
        entry = self._entries.get(query_hash)
        if entry is not None:
            self._entries.move_to_end(query_hash)
        return entry

    def put(self, query_hash: int, entry: CachedResult) -> None:
        """Insert/replace the entry, evicting the least recently used."""
        self._entries[query_hash] = entry
        self._entries.move_to_end(query_hash)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate(self, query_hash: int) -> bool:
        """Drop a stale entry; True if it existed."""
        return self._entries.pop(query_hash, None) is not None

    def entries(self) -> List[Tuple[int, "CachedResult"]]:
        """(query hash, entry) pairs in LRU order, without refreshing
        recency — the invariant checker reads without perturbing."""
        return list(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class TermStats:
    """Owner-side per-term learning statistics (Section 5.1(b)):
    the largest historical qScore and the cumulative query frequency."""

    max_qscore: float = 0.0
    query_frequency: int = 0

    def absorb(self, qscore: float, additional_qf: int) -> None:
        """Fold in one poll's worth of evidence: max for qScore
        (max(S1∪S2) = max(max S1, max S2)), sum for QF (cumulative)."""
        if qscore > self.max_qscore:
            self.max_qscore = qscore
        self.query_frequency += additional_qf
