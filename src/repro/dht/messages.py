"""Typed inter-peer messages with size accounting.

Every inter-peer interaction in the simulation is expressed as a
:class:`Message` so the network cost of index construction, maintenance
polling, and query processing can be *measured* rather than estimated
(DESIGN.md "simulation honesty" convention).  Sizes are modelled in
abstract bytes: a term ≈ 8 bytes, a posting entry ≈ 24 bytes (doc id,
owner address, TF, length), a query ≈ 8 bytes per term — the constants
are centralized here so cost benches state their units precisely.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from ..net.trace import category_of_kind


class MessageKind(Enum):
    """Every message type exchanged by peers in the reproduction."""

    LOOKUP = "lookup"                       # Chord routing step
    PUBLISH_TERM = "publish_term"           # owner → indexing peer: add posting
    UNPUBLISH_TERM = "unpublish_term"       # owner → indexing peer: remove posting
    POLL_QUERIES = "poll_queries"           # owner → indexing peer: index update poll
    QUERY_BATCH = "query_batch"             # indexing peer → owner: cached queries
    SEARCH_TERM = "search_term"             # querying peer → indexing peer
    POSTINGS = "postings"                   # indexing peer → querying peer
    REPLICATE = "replicate"                 # indexing peer → successor(s)
    HEARTBEAT = "heartbeat"                 # liveness probe
    RECONCILE = "reconcile"                 # indexing peer ↔ owner: posting audit
    ADVISE_HOT_TERM = "advise_hot_term"     # §7 load-balance advice
    RESULT_PROBE = "result_probe"           # querying peer → result home: cached result?
    RESULT_VALUE = "result_value"           # result home → querying peer: hit/miss reply
    RESULT_STORE = "result_store"           # querying peer → result home: store result
    VERSION_PROBE = "version_probe"         # querying peer → indexing peer: slot versions?
    VERSION_VALUE = "version_value"         # indexing peer → querying peer: version reply
    PUBLISH_BATCH = "publish_batch"         # owner → indexing peer: add n postings
    UNPUBLISH_BATCH = "unpublish_batch"     # owner → indexing peer: remove n postings
    POLL_BATCH = "poll_batch"               # owner → indexing peer: poll n term cursors
    SYNC_DIGEST = "sync_digest"             # recovering peer ↔ successor: slot checksums
    SYNC_DELTA = "sync_delta"               # successor → recovering peer: changed postings
    SYNC_FULL = "sync_full"                 # successor → recovering peer: whole slot


#: Abstract size constants (bytes) used by the cost model.
TERM_BYTES = 8
POSTING_BYTES = 24
QUERY_HEADER_BYTES = 16
ADDRESS_BYTES = 6
RESULT_ENTRY_BYTES = 16
VERSION_BYTES = 8
CHECKSUM_BYTES = 16


@dataclass(frozen=True)
class Message:
    """A single simulated network message.

    ``hops`` is the number of overlay hops the message traversed (1 for
    a direct peer-to-peer send once the address is known, ``1 + lookup
    hops`` when a DHT lookup was needed first).
    """

    kind: MessageKind
    src: int
    dst: int
    size_bytes: int = QUERY_HEADER_BYTES
    hops: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        if self.hops < 0:
            raise ValueError("hops must be >= 0")


def publish_message(src: int, dst: int, hops: int) -> Message:
    """An index-publication message (one term + one posting)."""
    return Message(
        kind=MessageKind.PUBLISH_TERM,
        src=src,
        dst=dst,
        size_bytes=TERM_BYTES + POSTING_BYTES,
        hops=hops,
    )


def unpublish_message(src: int, dst: int, hops: int = 1) -> Message:
    """One posting's deletion: routed from the owner, or forwarded
    peer-to-replica over a known address."""
    return Message(
        kind=MessageKind.UNPUBLISH_TERM,
        src=src,
        dst=dst,
        size_bytes=TERM_BYTES + QUERY_HEADER_BYTES,
        hops=hops,
    )


def search_message(src: int, dst: int, hops: int, num_terms: int = 1) -> Message:
    """A search request for the *num_terms* query terms one indexing
    peer is responsible for."""
    return Message(
        kind=MessageKind.SEARCH_TERM,
        src=src,
        dst=dst,
        size_bytes=QUERY_HEADER_BYTES + num_terms * TERM_BYTES,
        hops=hops,
    )


def postings_message(src: int, dst: int, num_postings: int) -> Message:
    """The inverted-list reply for one term."""
    return Message(
        kind=MessageKind.POSTINGS,
        src=src,
        dst=dst,
        size_bytes=QUERY_HEADER_BYTES + num_postings * POSTING_BYTES,
    )


def query_batch_message(src: int, dst: int, num_queries: int, terms_per_query: float) -> Message:
    """A batch of cached queries returned during a learning poll."""
    return Message(
        kind=MessageKind.QUERY_BATCH,
        src=src,
        dst=dst,
        size_bytes=QUERY_HEADER_BYTES
        + int(num_queries * (QUERY_HEADER_BYTES + terms_per_query * TERM_BYTES)),
    )


def result_probe_message(src: int, dst: int, hops: int) -> Message:
    """A result-cache probe (one canonical query hash)."""
    return Message(
        kind=MessageKind.RESULT_PROBE,
        src=src,
        dst=dst,
        size_bytes=QUERY_HEADER_BYTES,
        hops=hops,
    )


def result_value_message(src: int, dst: int, num_entries: int) -> Message:
    """The cached-result reply: the ranked entries on a hit, empty on a
    miss (``num_entries=0``)."""
    return Message(
        kind=MessageKind.RESULT_VALUE,
        src=src,
        dst=dst,
        size_bytes=QUERY_HEADER_BYTES + num_entries * RESULT_ENTRY_BYTES,
    )


def result_store_message(
    src: int, dst: int, num_entries: int, num_versions: int, hops: int
) -> Message:
    """Install a scored result (ranked entries + validity metadata)."""
    return Message(
        kind=MessageKind.RESULT_STORE,
        src=src,
        dst=dst,
        size_bytes=QUERY_HEADER_BYTES
        + num_entries * RESULT_ENTRY_BYTES
        + num_versions * (TERM_BYTES + VERSION_BYTES),
        hops=hops,
    )


def version_probe_message(src: int, dst: int, num_terms: int, hops: int) -> Message:
    """Ask an indexing peer for the current versions of its term slots."""
    return Message(
        kind=MessageKind.VERSION_PROBE,
        src=src,
        dst=dst,
        size_bytes=QUERY_HEADER_BYTES + num_terms * TERM_BYTES,
        hops=hops,
    )


def version_value_message(src: int, dst: int, num_terms: int) -> Message:
    """The version reply for a batch of term slots."""
    return Message(
        kind=MessageKind.VERSION_VALUE,
        src=src,
        dst=dst,
        size_bytes=QUERY_HEADER_BYTES + num_terms * VERSION_BYTES,
    )


def publish_batch_message(src: int, dst: int, num_postings: int, hops: int) -> Message:
    """A destination-grouped publication batch (n terms + n postings).

    Amortizes the per-message header and the routing lookup over every
    posting bound for one indexing peer (DESIGN.md §11)."""
    return Message(
        kind=MessageKind.PUBLISH_BATCH,
        src=src,
        dst=dst,
        size_bytes=QUERY_HEADER_BYTES + num_postings * (TERM_BYTES + POSTING_BYTES),
        hops=hops,
    )


def unpublish_batch_message(src: int, dst: int, num_terms: int, hops: int) -> Message:
    """A destination-grouped removal batch: n (term hash, doc id)
    pairs, 8 abstract bytes each."""
    return Message(
        kind=MessageKind.UNPUBLISH_BATCH,
        src=src,
        dst=dst,
        size_bytes=QUERY_HEADER_BYTES + num_terms * (TERM_BYTES + TERM_BYTES),
        hops=hops,
    )


def poll_batch_message(
    src: int, dst: int, num_terms: int, num_index_terms: int, hops: int
) -> Message:
    """A coalesced learning poll: every (term, cursor) pair an owner has
    on one indexing peer, plus the owner's full index-term hash list the
    peer needs for the §3 closest-hash dedup."""
    return Message(
        kind=MessageKind.POLL_BATCH,
        src=src,
        dst=dst,
        size_bytes=QUERY_HEADER_BYTES
        + num_terms * (TERM_BYTES + VERSION_BYTES)
        + num_index_terms * TERM_BYTES,
        hops=hops,
    )


def sync_digest_message(src: int, dst: int, num_slots: int) -> Message:
    """One side of the recovery digest round: per-slot checksums (or the
    per-slot match verdicts on the reply leg)."""
    return Message(
        kind=MessageKind.SYNC_DIGEST,
        src=src,
        dst=dst,
        size_bytes=QUERY_HEADER_BYTES + num_slots * (TERM_BYTES + CHECKSUM_BYTES),
    )


def sync_delta_message(src: int, dst: int, num_postings: int) -> Message:
    """Incremental catch-up for one changed slot: only the postings that
    differ from (or were removed since) the recovering peer's snapshot."""
    return Message(
        kind=MessageKind.SYNC_DELTA,
        src=src,
        dst=dst,
        size_bytes=QUERY_HEADER_BYTES + num_postings * (TERM_BYTES + POSTING_BYTES),
    )


def sync_full_message(src: int, dst: int, num_postings: int) -> Message:
    """Full resync of one slot (no usable snapshot of it): every posting
    travels — the Section 7 baseline the snapshot path avoids."""
    return Message(
        kind=MessageKind.SYNC_FULL,
        src=src,
        dst=dst,
        size_bytes=QUERY_HEADER_BYTES + num_postings * (TERM_BYTES + POSTING_BYTES),
    )


#: All kinds, for table-driven tests.
ALL_KINDS: Tuple[MessageKind, ...] = tuple(MessageKind)


def category_of(kind: MessageKind) -> str:
    """The traffic category of ``kind``: ``"write"``, ``"query"``,
    ``"routing"``, or ``"maintenance"``.  The kind-name table lives in
    :mod:`repro.net.trace` (which may not import this package); a kind
    it does not know is an error here, not ``"other"``."""
    category = category_of_kind(kind.value)
    if category == "other":
        raise ValueError(f"uncategorized message kind: {kind!r}")
    return category
