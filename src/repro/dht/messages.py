"""Typed inter-peer messages and the cost model that prices them.

Every inter-peer interaction in the simulation is a :class:`Message`, so
the network cost of index construction, maintenance polling and query
processing is *measured* rather than estimated (DESIGN.md "simulation
honesty" convention).  What a message of a given kind carries, what that
costs and which traffic category it belongs to is that kind's one row —
its :class:`MessageKind` definition, the whole cost model (DESIGN.md §7
prints it; :data:`WIRE` is the same rows as a dict) — and
:func:`message` is the only place a :class:`Message` is built, its size
computed by :func:`wire_size` from the counts of what it carries.  Sizes
are abstract bytes: a term ≈ 8, a posting entry ≈ 24 (doc id, owner
address, TF, length), a header ≈ 16, a query digest 8.

A message is built once per send, so its shape is a named tuple, and a
kind carries its :attr:`~MessageKind.ordinal` so that
:class:`~repro.dht.stats.NetworkStats` reaches the kind's counters by
list index instead of hashing the enum.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from operator import mul
from typing import Dict, Tuple

#: Abstract size constants (bytes) the rows below are written in.
TERM_BYTES = 8
POSTING_BYTES = 24
QUERY_HEADER_BYTES = 16
ADDRESS_BYTES = 6
RESULT_ENTRY_BYTES = 16
VERSION_BYTES = 8
CHECKSUM_BYTES = 16
DIGEST_BYTES = 8
FLAG_BYTES = 1


class MessageKind(Enum):
    """Every message type exchanged by peers, one row each: ``wire name
    (the enum's value), traffic category, fixed bytes, bytes per unit of
    each thing the message counts``.  The comment under a row names its
    units, in the order :func:`wire_size` takes their counts.  A row's
    ``ordinal`` is its position in the table, 0 … ``len(MessageKind) - 1``."""

    category: str
    fixed_bytes: int
    unit_bytes: Tuple[int, ...]
    ordinal: int

    def __new__(
        cls, value: str, category: str, fixed_bytes: int, unit_bytes: Tuple[int, ...] = ()
    ) -> "MessageKind":
        kind = object.__new__(cls)
        kind._value_ = value
        kind.category = category
        kind.fixed_bytes = fixed_bytes
        kind.unit_bytes = unit_bytes
        kind.ordinal = len(cls.__members__)
        return kind

    # Chord routing step
    LOOKUP = "lookup", "routing", ADDRESS_BYTES + QUERY_HEADER_BYTES

    # owner → indexing peer: add / remove one posting
    PUBLISH_TERM = "publish_term", "write", TERM_BYTES + POSTING_BYTES
    UNPUBLISH_TERM = "unpublish_term", "write", TERM_BYTES + QUERY_HEADER_BYTES
    # owner → indexing peer: add n postings
    PUBLISH_BATCH = "publish_batch", "write", QUERY_HEADER_BYTES, (TERM_BYTES + POSTING_BYTES,)
    # owner → indexing peer: remove n (term hash, doc id) pairs
    UNPUBLISH_BATCH = "unpublish_batch", "write", QUERY_HEADER_BYTES, (TERM_BYTES + TERM_BYTES,)
    # owner → indexing peer, index update poll: one (term, cursor) pair
    POLL_QUERIES = "poll_queries", "write", QUERY_HEADER_BYTES + TERM_BYTES + VERSION_BYTES
    # owner → indexing peer: (term, cursor) pairs polled
    POLL_BATCH = "poll_batch", "write", QUERY_HEADER_BYTES, (TERM_BYTES + VERSION_BYTES,)
    # indexing peer → owner: cached queries returned (the owner applies
    # the §3 closest-hash dedup to them); their terms in total
    QUERY_BATCH = "query_batch", "write", QUERY_HEADER_BYTES, (QUERY_HEADER_BYTES, TERM_BYTES)

    # querying peer → indexing peer: query terms this peer is responsible
    # for; slot versions the querying peer already holds for them; keywords
    # of the query the request registers (none when it registers nothing or
    # names the query by digest); digests naming the registered query
    SEARCH_TERM = (
        "search_term",
        "query",
        QUERY_HEADER_BYTES,
        (TERM_BYTES, VERSION_BYTES, TERM_BYTES, DIGEST_BYTES),
    )
    # indexing peer → querying peer: posting units of the slots whose
    # version differs from the one the request named (a whole list's
    # postings, or a diff's withdrawn ids and changed rows); slots answered
    # (a version each); slots whose registration digest did not resolve
    POSTINGS = (
        "postings", "query", QUERY_HEADER_BYTES, (POSTING_BYTES, VERSION_BYTES, FLAG_BYTES)
    )
    # querying peer → indexing peer, after an unresolved digest: keywords
    # of the query, registered in the slots the reply flagged
    REGISTER = "register", "query", QUERY_HEADER_BYTES, (TERM_BYTES,)
    # querying peer → result home: cached result?
    RESULT_PROBE = "result_probe", "query", QUERY_HEADER_BYTES
    # result home → querying peer: ranked entries (none on a miss)
    RESULT_VALUE = "result_value", "query", QUERY_HEADER_BYTES, (RESULT_ENTRY_BYTES,)
    # querying peer → result home: ranked entries; (term, slot version)
    # validity pairs
    RESULT_STORE = (
        "result_store",
        "query",
        QUERY_HEADER_BYTES,
        (RESULT_ENTRY_BYTES, TERM_BYTES + VERSION_BYTES),
    )
    # querying peer → indexing peer: terms whose slot version is asked
    VERSION_PROBE = "version_probe", "query", QUERY_HEADER_BYTES, (TERM_BYTES,)
    # indexing peer → querying peer: versions
    VERSION_VALUE = "version_value", "query", QUERY_HEADER_BYTES, (VERSION_BYTES,)

    # indexing peer → successor: keys offered (a stamp digest each); keys
    # shipped (priced at one posting each, whatever the slot holds)
    REPLICATE = (
        "replicate", "maintenance", 0, (TERM_BYTES + VERSION_BYTES, TERM_BYTES + POSTING_BYTES)
    )
    # liveness probe
    HEARTBEAT = "heartbeat", "maintenance", QUERY_HEADER_BYTES
    # indexing peer ↔ owner: posting audit
    RECONCILE = "reconcile", "maintenance", QUERY_HEADER_BYTES + TERM_BYTES
    # §7 load-balance advice
    ADVISE_HOT_TERM = "advise_hot_term", "maintenance", TERM_BYTES + TERM_BYTES
    # recovering peer ↔ successor: slots (a checksum, or a match verdict
    # on the reply leg, each)
    SYNC_DIGEST = "sync_digest", "maintenance", QUERY_HEADER_BYTES, (TERM_BYTES + CHECKSUM_BYTES,)
    # successor → recovering peer: postings that differ from, or were
    # removed since, the snapshot
    SYNC_DELTA = "sync_delta", "maintenance", QUERY_HEADER_BYTES, (TERM_BYTES + POSTING_BYTES,)
    # successor → recovering peer: a whole slot's postings
    SYNC_FULL = "sync_full", "maintenance", QUERY_HEADER_BYTES, (TERM_BYTES + POSTING_BYTES,)


#: The cost model in row form: ``kind → (category, fixed bytes, bytes
#: per unit)``, for audits and for DESIGN.md's table.
WIRE: Dict[MessageKind, Tuple[str, int, Tuple[int, ...]]] = {
    kind: (kind.category, kind.fixed_bytes, kind.unit_bytes) for kind in MessageKind
}


def wire_size(kind: MessageKind, *counts: int) -> int:
    """Bytes of one *kind* message carrying *counts* units, one count
    per unit its row prices (integer arithmetic only)."""
    unit_bytes = kind.unit_bytes
    if len(counts) != len(unit_bytes):
        raise _wrong_counts(kind, counts)
    return kind.fixed_bytes + sum(map(mul, counts, unit_bytes))


def _wrong_counts(kind: MessageKind, counts: Tuple[int, ...]) -> TypeError:
    return TypeError(
        f"{kind.name} counts {len(kind.unit_bytes)} things, got {len(counts)} counts"
    )


def units_carried(kind: MessageKind, messages: int, total_bytes: int) -> int:
    """Invert a one-unit row: how many units *messages* messages of
    *kind* totalling *total_bytes* carried between them."""
    (unit_bytes,) = kind.unit_bytes
    return (total_bytes - kind.fixed_bytes * messages) // unit_bytes


_new_tuple = tuple.__new__


class Message(
    namedtuple(
        "Message",
        ("kind", "src", "dst", "size_bytes", "hops"),
        defaults=(QUERY_HEADER_BYTES, 1),
    )
):
    """A single simulated network message: ``(kind, src, dst,
    size_bytes, hops)``, immutable.

    ``hops`` is the number of overlay hops the message traversed (1 for
    a direct peer-to-peer send once the address is known, ``1 + lookup
    hops`` when a DHT lookup was needed first).  A negative size or hop
    count is a ``ValueError``.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: MessageKind,
        src: int,
        dst: int,
        size_bytes: int = QUERY_HEADER_BYTES,
        hops: int = 1,
    ) -> "Message":
        if size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        if hops < 0:
            raise ValueError("hops must be >= 0")
        return _new_tuple(cls, (kind, src, dst, size_bytes, hops))


def message(kind: MessageKind, src: int, dst: int, *counts: int, hops: int = 1) -> Message:
    """The *kind* message from *src* to *dst* carrying *counts* units —
    the only place a :class:`Message` is built.  The size is
    :func:`wire_size`'s, written out here, and the tuple is made without
    :meth:`Message.__new__` once the size and hops are checked: both
    calls would show on the query path, which sends one per request and
    one per reply.  A row with no units (a routed LOOKUP hop, HEARTBEAT,
    RESULT_PROBE) is its fixed bytes, read without the unit sum."""
    unit_bytes = kind.unit_bytes
    if not unit_bytes and not counts:
        size = kind.fixed_bytes
    elif len(counts) != len(unit_bytes):
        raise _wrong_counts(kind, counts)
    else:
        size = kind.fixed_bytes + sum(map(mul, counts, unit_bytes))
    if size < 0 or hops < 0:
        return Message(kind, src, dst, size, hops)  # raises the ValueError
    return _new_tuple(Message, (kind, src, dst, size, hops))


#: All kinds in table order, ``ALL_KINDS[kind.ordinal] is kind``: for
#: table-driven tests, and for the stats rows indexed by ordinal.
ALL_KINDS: Tuple[MessageKind, ...] = tuple(MessageKind)
