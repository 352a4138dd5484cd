"""The twin-system differential: every system-level reference is a row.

Two systems are built alike from the oracle's base configuration; the
*twin* gets a row's substitution — a reference kept under ``tests/``, or
a switch that makes the system forget what it keeps.  Both replay one of
the oracle's flows, then the same read program (:data:`STEPS`), and must
agree bit for bit on

- every read: rankings with score bits, every :class:`QueryExecution`
  field but ``ranking_reused``, fetched lists, lost terms;
- what every document's learner observed, in order, the write-state
  fingerprint (but for the rank order of slot versions where a row
  applies the same writes in another order) and the result-cache
  tallies;
- how many executes reused a held ranking (none, if the twin never does);
- every ``NetworkStats`` counter but those of the kinds the row's
  ``delta`` names: an exact byte difference (default minus twin) from
  what the default system's wire saw (:class:`Wire`), or ``None``, free;
- on the lossy transport, the RNG state and the trace table (a message
  more or fewer, or sent in another order, shifts every later drop).

A row names the transports and result-cache sizes it is meaningful on,
with the reason (``why``) when not all; ``check`` makes it non-vacuous
on the explicit program.  A reference whose property runs below the
system level is :data:`EXEMPT`, with that level.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.core.system import SpriteSystem
from repro.dht.messages import (
    DIGEST_BYTES,
    FLAG_BYTES,
    POSTING_BYTES,
    TERM_BYTES,
    VERSION_BYTES,
    MessageKind,
    wire_size,
)
from repro.exceptions import NodeFailedError
from repro.net.faults import FaultInjector
from repro.net.trace import DROPPED
from repro.net.transport import DeliveryPolicy, LossyTransport
from repro.sim.oracle import DifferentialOracle, write_state_fingerprint

from .core.legacy_executor import install_legacy_executor
from .core.peer_side_dedup import addressed_hashes, install_peer_side_dedup
from .core.per_document_rounds import install_per_document_rounds
from .core.per_term_owner import install_per_term_owners
from .ir.legacy_postings import LegacyPostings, install_legacy_store

K = MessageKind
TRANSPORTS = {
    "perfect": lambda: None,
    "lossy": lambda: LossyTransport(
        faults=FaultInjector(drop_probability=0.2),
        policy=DeliveryPolicy(max_retries=0),
        seed=11,
    ),
}
FLOWS = ("learn", "bulk-churn")

#: What a read program is made of: a round of every oracle query with
#: ``cache=True`` / ``False``, a learning iteration (it moves slot
#: versions, so held lists go stale), withdrawing and re-sharing the last
#: fifth of the corpus, and fetching every test query's terms as one
#: batch or one term at a time.
STEPS = ("query", "query-uncached", "learn", "reshare", "batch", "one-term")
#: The explicit program: two query rounds each way around two learning
#: iterations, then both fetches.
PROGRAM = (
    "query", "learn", "query-uncached", "query", "learn", "query-uncached", "batch", "one-term"
)


def pairs(ranked):
    return [(e.doc_id, e.score) for e in ranked]


def always_ship(system: SpriteSystem) -> SpriteSystem:
    """Make *system* fetch unconditionally: the querying peer's held
    versions are forgotten before every search it makes."""
    protocol = system.protocol
    search = protocol._search

    def unconditional(issuer_id, located, registration):
        protocol.ring.nodes[issuer_id].held_versions = None
        return search(issuer_id, located, registration)

    protocol._search = unconditional
    return system


def ship_whole_lists(system: SpriteSystem) -> SpriteSystem:
    """Make *system* answer a modified slot with its whole list: the diff
    each answer computes is dropped before the reply is priced."""
    protocol = system.protocol
    serve = protocol._serve_view

    def whole(node, term, carried):
        view = serve(node, term, carried)
        view.diff = None
        return view

    protocol._serve_view = whole
    return system


def send_tuple(system: SpriteSystem) -> SpriteSystem:
    """Make *system* register every query by its keyword tuple: no
    SEARCH_TERM names a query by digest."""
    by_tuple(system.protocol)
    return system


def by_tuple(protocol):
    """:func:`send_tuple` on an indexing protocol alone."""
    fetch = protocol.fetch_slot_views

    def tuple_only(issuer_id, terms, register=False, registered=frozenset()):
        return fetch(issuer_id, terms, register)

    protocol.fetch_slot_views = tuple_only
    return protocol


def forget_rankings(system: SpriteSystem) -> SpriteSystem:
    """Make *system* score every query: the querying peer's held
    rankings are forgotten before every execute."""
    processor = system.processor
    execute = processor.execute

    def scoring(issuer_id, query, top_k=None, cache=True):
        system.ring.nodes[issuer_id].held_rankings = None
        return execute(issuer_id, query, top_k=top_k, cache=cache)

    processor.execute = scoring
    return system


class Wire:
    """What the default system's wire saw, over delivered messages only.

    Reads: the versions SEARCH_TERM requests carried, the postings
    POSTINGS replies withheld and the terms answered as not modified —
    each such list must be the copy this wire saw delivered to that
    peer — and the posting units diffs saved, with how many diffs
    withdrew a document: each diff, applied to that peer's copy, must
    give the slot's rows.  The exchange builds each message and sends it
    at once, so a send of the message built last settles its counts.
    Registration: the keywords beyond the digest that each SEARCH_TERM
    naming its query by digest left out, and the slots replies flagged as
    unresolved.  Polls: the hash lists a peer-side §3 rule would have
    added to each POLL_BATCH — those of every document the request
    addresses — and, of what the QUERY_BATCH replies shipped, the bytes
    of the queries no document kept and of the extra copies a reply per
    (document, term) would ship of a query several documents keep."""

    def __init__(self, protocol) -> None:
        self.versions = self.withheld = self.hash_bytes = self.duplicate_bytes = 0
        self.overlap_bytes = 0
        self.saved = self.withdrawing_diffs = 0
        self.digests = self.keywords_named = self.flagged = 0
        self.poll_requests = 0
        self.not_modified: Counter = Counter()
        copies = {}
        ring = protocol.ring
        request, reply, send = protocol._search_request, protocol._postings_reply, ring.send
        poll_batch, poll_request = protocol.poll_batch, protocol._poll_request
        built = [None, 0, (), 0]  # the message, versions it carries, views it answers, keywords
        polled = [(), None, 0]  # the round's documents, the POLL_BATCH built last, its hashes

        def counting_request(src, dst, batch, hops, carried):
            registration, held = carried
            named = len(registration[0]) if registration is not None and dst in registration[3] else 0
            versions = sum(t in held for t in batch)
            built[:] = request(src, dst, batch, hops, carried), versions, (), named
            return built[0]

        def counting_reply(src, dst, views):
            built[:] = reply(src, dst, views), 0, list(views), 0
            return built[0]

        def counting_send(message):
            send(message)
            if message is polled[1]:
                self.poll_requests += 1
                self.hash_bytes += TERM_BYTES * polled[2]
            elif message.kind is K.QUERY_BATCH:
                self.duplicate_bytes += message.size_bytes - K.QUERY_BATCH.fixed_bytes
            if message is not built[0]:
                return
            self.versions += built[1]
            if built[3]:
                self.digests += 1
                self.keywords_named += built[3]
            for view in built[2]:
                self.flagged += view.unresolved
                rows = list(view._slot.rows()) if view._slot is not None else []
                key = message.dst, view.term
                if not view.modified:
                    assert copies[key] == rows, view.term
                    self.withheld += view.indexed_df
                    self.not_modified[view.term] += 1
                    continue
                if view.diff is not None:
                    withdrawn, changed = view.diff
                    copy = {row[0]: row for row in copies[key]}
                    for doc_id in withdrawn:
                        del copy[doc_id]
                    copy.update((row[0], row) for row in changed)
                    assert list(copy.values()) == rows, view.term
                    self.saved += view.indexed_df - len(withdrawn) - len(changed)
                    self.withdrawing_diffs += bool(withdrawn)
                copies[key] = rows

        def counting_poll(owner_id, documents):
            polled[0] = documents
            result = poll_batch(owner_id, documents)
            kept = [query for selected, __ in result[0].values() for query in selected]
            # A term's queries are told apart by their sequence at its slot.
            once = {
                (term, query.sequence): query
                for (__, term), (selected, __) in result[0].items()
                for query in selected
            }
            self.duplicate_bytes -= _units(once.values())
            self.overlap_bytes += _units(kept) - _units(once.values())
            return result

        def counting_poll_request(src, dst, batch, hops, carried):
            polled[1:] = poll_request(src, dst, batch, hops, carried), addressed_hashes(
                polled[0], batch
            )
            return polled[1]

        protocol._search_request, protocol._postings_reply = counting_request, counting_reply
        protocol.poll_batch, protocol._poll_request = counting_poll, counting_poll_request
        ring.send = counting_send


def _units(queries) -> int:
    """What *queries* add to a QUERY_BATCH beyond its header."""
    queries = list(queries)
    return wire_size(K.QUERY_BATCH, len(queries), sum(len(c.terms) for c in queries)) - (
        K.QUERY_BATCH.fixed_bytes
    )


def read_delta(wire: Wire) -> Dict[MessageKind, int]:
    """A conditional fetch: SEARCH_TERM heavier by a version per version
    carried, POSTINGS lighter by a posting per posting withheld or saved
    by a diff."""
    return {
        K.SEARCH_TERM: VERSION_BYTES * wire.versions,
        K.POSTINGS: -POSTING_BYTES * (wire.withheld + wire.saved),
    }


def digest_delta(wire: Wire) -> Dict[MessageKind, int]:
    """Registration by digest: SEARCH_TERM lighter by all but one
    keyword's 8 bytes per request that named its query by digest,
    POSTINGS heavier by a flag per slot that could not resolve one.
    REGISTER may not differ, so no fallback may fire: it is a message the
    twin does not send, and on the lossy transport it would shift every
    later drop."""
    return {
        K.SEARCH_TERM: DIGEST_BYTES * wire.digests - TERM_BYTES * wire.keywords_named,
        K.POSTINGS: FLAG_BYTES * wire.flagged,
    }


def diff_delta(wire: Wire) -> Dict[MessageKind, int]:
    """Diffs: POSTINGS lighter by a posting per unit a diff saved."""
    return {K.POSTINGS: -POSTING_BYTES * wire.saved}


def poll_delta(wire: Wire) -> Dict[MessageKind, int]:
    """The §3 rule at the owner: POLL_BATCH lighter by the hash lists,
    QUERY_BATCH heavier by the queries no document kept and lighter by
    the copies of a query several documents keep, shipped once."""
    return {
        K.POLL_BATCH: -wire.hash_bytes,
        K.QUERY_BATCH: wire.duplicate_bytes - wire.overlap_bytes,
    }


def free(*kinds: MessageKind) -> Callable[[Wire], Dict[MessageKind, None]]:
    return lambda wire: dict.fromkeys(kinds)


class Row(NamedTuple):
    name: str
    substitute: Callable[[SpriteSystem], SpriteSystem]
    delta: Callable[[Wire], Dict[MessageKind, Optional[int]]] = lambda wire: {}
    transports: Tuple[str, ...] = tuple(TRANSPORTS)
    result_caches: Tuple[int, ...] = (0, 32)
    why: str = ""
    reuses: bool = True
    #: False where the twin applies the same writes in another order:
    #: the final state must coincide, the rank order of slot versions not.
    version_rank: bool = True
    #: False where the twin looks up other keys than the default: both
    #: systems then route without a cache, since a cache hit is one hop
    #: and every later message's hops would depend on which keys each
    #: side had looked up.
    route_cache: bool = True
    #: ``check(default's wire, its reused rankings, twin)`` on the explicit program.
    check: Callable[[Wire, int, SpriteSystem], bool] = lambda wire, reused, twin: True


PER_TERM = "sends other messages by design, so only the perfect transport keeps both in step"
ROWS = (
    # Versions were named and postings withheld, and some were stale: a
    # named version does not always withhold.
    Row("always_ship", always_ship, read_delta,
        check=lambda w, reused, twin: w.versions > sum(w.not_modified.values()) > 0 < w.withheld),
    # Some answer shipped a diff and, on the perfect transport, some diff
    # withdrew a document (the lossy cells drop too many withdrawals and
    # re-fetches to count on one).
    Row("ship_whole_lists", ship_whole_lists, diff_delta,
        check=lambda w, reused, twin: w.saved > 0 and (
            w.withdrawing_diffs > 0 or isinstance(twin.ring.transport, LossyTransport))),
    # Some request named its query by digest.
    Row("send_tuple", send_tuple, digest_delta,
        check=lambda w, reused, twin: w.digests > 0 or twin.config.result_cache_size),
    # With a result cache a repeat over unchanged lists is answered before
    # anything is fetched: those cells check that the two compose.  A twin
    # that holds no ranking never names a query by digest.
    Row("forget_rankings", forget_rankings, digest_delta, reuses=False,
        check=lambda w, reused, twin: reused > 0 or twin.config.result_cache_size),
    # The saving the placement buys: the hash lists outweigh the duplicates.
    Row("peer_side_dedup", install_peer_side_dedup, poll_delta,
        check=lambda w, reused, twin: w.hash_bytes > w.duplicate_bytes > 0),
    Row("per_term_owners", install_per_term_owners,
        free(K.LOOKUP, K.PUBLISH_TERM, K.UNPUBLISH_TERM, K.PUBLISH_BATCH, K.UNPUBLISH_BATCH,
             K.POLL_QUERIES, K.POLL_BATCH, K.QUERY_BATCH),
        transports=("perfect",), route_cache=False,
        why="one message per (document, term) " + PER_TERM,
        check=lambda w, reused, twin: twin.ring.stats.kind(K.PUBLISH_TERM).messages > 0),
    # Each document polled on its own, and polled more often than the
    # owner's round does.
    Row("per_document_rounds", install_per_document_rounds,
        free(K.LOOKUP, K.POLL_BATCH, K.QUERY_BATCH, K.PUBLISH_BATCH, K.UNPUBLISH_BATCH),
        transports=("perfect",), version_rank=False, route_cache=False,
        why="a round per document " + PER_TERM,
        check=lambda w, reused, twin: twin.ring.stats.kind(K.POLL_BATCH).messages
        > w.poll_requests),
    Row("legacy_executor", install_legacy_executor, free(K.LOOKUP, K.SEARCH_TERM, K.POSTINGS),
        transports=("perfect",), result_caches=(0,), reuses=False,
        why="one fetch per query term " + PER_TERM + "; it never consults the result cache",
        check=lambda w, reused, twin: reused > 0),
    Row("legacy_store", install_legacy_store,
        check=lambda w, reused, twin: any(
            type(slot._store) is LegacyPostings
            for node in twin.ring.nodes.values() for slot in node.store.values()
        )),
)

#: References whose property runs below the system level, and that level.
EXEMPT = {
    "core/reference_selection.py": "index-term selection: test_learning.py",
    "core/replication_reference.py": "replication round: test_replication_delta.py",
    "dht/full_rebuild.py": "ring membership repair: test_incremental_stabilize.py",
    "dht/linear_finger_scan.py": "finger selection: test_node.py, reference_router.py",
    "dht/reference_router.py": "whole lookups: test_finger_selection.py",
    "ir/legacy_inverted_index.py": "centralized reference scoring: test_counts_index.py",
    "net/legacy_lossy.py": "lossy delivery per attempt: test_lossy_reference.py",
}


def run_program(system: SpriteSystem, oracle: DifferentialOracle, program) -> Tuple[list, int, int]:
    """Run the read *program* on *system*: ``(what every read returned,
    executes that reused a held ranking, terms lost)``."""
    reads, reused, lost = [], 0, 0
    issuer = system.ring.live_ids[0]
    docs = list(oracle.corpus)
    reshared = docs[-max(1, len(docs) // 5):]
    for step in program:
        if step == "learn":
            system.run_learning_iteration()
        elif step == "reshare":
            system.bulk_unshare([doc.doc_id for doc in reshared])
            system.bulk_share(reshared)
        elif step.startswith("query"):
            for query in oracle.train + oracle.test:
                ranked, execution = system.execute(query, cache=step == "query")
                reused += execution.ranking_reused
                lost += execution.terms_failed
                reads.append((pairs(ranked), replace(execution, ranking_reused=False)))
        elif step == "batch":
            for query in oracle.test:
                results, failed = system.protocol.fetch_postings_batch(issuer, query.terms)
                reads.append(sorted(
                    (term, [p.doc_id for p in postings], df)
                    for term, (postings, df) in results.items()
                ))
                reads.append(failed)
                lost += len(failed)
        else:
            for term in (term for query in oracle.test for term in query.terms):
                try:
                    reads.append(system.protocol.fetch_postings(issuer, term))
                except NodeFailedError:
                    reads.append(term)
                    lost += 1
    return reads, reused, lost


def log_polls(system: SpriteSystem) -> list:
    """Log ``(owner, document, queries)`` for what every document's
    learner observes from here on — whether its owner polled it alone or
    in a round with others — owners created later included."""
    log, owner_at = [], system._owner_at

    def logged(owner):
        poll = owner._poll

        def observing(states):
            observed, peers = poll(states)
            for state, queries in zip(states, observed):
                log.append((owner.node_id, state.document.doc_id, queries))
            return observed, peers

        owner._poll = observing
        return owner

    for owner in system.owners.values():
        logged(owner)
    system._owner_at = lambda node_id: (
        system.owners[node_id] if node_id in system.owners else logged(owner_at(node_id))
    )
    return log


def assert_agree(
    default: SpriteSystem,
    twin: SpriteSystem,
    delta: Dict[MessageKind, Optional[int]],
    version_rank: bool = True,
) -> None:
    """Twin systems that ran the same operations agree on state (the
    rank order of slot versions only with *version_rank*), the result
    caches and every message counter but *delta*'s (see the module
    docstring), and a lossy transport drew the same drops."""
    ours, theirs = write_state_fingerprint(default), write_state_fingerprint(twin)
    if not version_rank:
        del ours["version_rank"], theirs["version_rank"]
    assert ours == theirs
    assert default.protocol.result_cache_stats() == twin.protocol.result_cache_stats()
    ours, theirs = default.ring.stats.summary(), twin.ring.stats.summary()
    none = {"messages": 0, "bytes": 0, "hops": 0}
    for kind, allowed in delta.items():
        mine, its = ours.pop(kind.value, none), theirs.pop(kind.value, none)
        if allowed is not None:
            assert {**mine, "bytes": mine["bytes"] - allowed} == its, kind
    assert ours == theirs
    transports = default.ring.transport, twin.ring.transport
    if isinstance(transports[0], LossyTransport):
        assert transports[0].rng.getstate() == transports[1].rng.getstate()
        assert transports[0].trace.summary_table() == transports[1].trace.summary_table()


def run_row(row: Row, oracle: DifferentialOracle, transport: str, flow: str,
            result_cache: int, program) -> None:
    """One cell of the table: *row* on *transport*, *flow* and
    *result_cache*, followed by the read *program*."""

    def build() -> SpriteSystem:
        sprite, chord = oracle.configs({
            "sprite": {"result_cache_size": result_cache},
            "chord": {} if row.route_cache else {"route_cache_size": 0},
        })
        return SpriteSystem(
            oracle.corpus, sprite_config=sprite, chord_config=chord,
            transport=TRANSPORTS[transport](),
        )

    default, twin = build(), row.substitute(build())
    wire = Wire(default.protocol)
    seen = []
    for system in (default, twin):
        polls = log_polls(system)
        oracle.replay(system, flow)
        seen.append((polls, *run_program(system, oracle, program)))
    (polls, reads, reused, lost), (twin_polls, twin_reads, twin_reused, __) = seen
    assert polls == twin_polls
    assert reads == twin_reads
    assert twin_reused == (reused if row.reuses else 0)
    delta = row.delta(wire)
    assert_agree(default, twin, delta, row.version_rank)
    if program == PROGRAM:
        assert row.check(wire, reused, twin)
        if transport == "lossy":
            # Terms really were lost, and so were messages of every kind
            # whose bytes the row moves.
            trace = default.ring.transport.trace
            assert lost and all(trace.filtered(kind=k.value, outcome=DROPPED) for k in delta)
