"""The twin-system differential: every system-level claim of "this path
changes no result" is a row.

Two systems are built alike from one :class:`Deployment`; the *twin*
gets a row's substitution — a reference kept under ``tests/``, a switch
that makes the system forget what it keeps, or a configuration delta
(``config``: a result-neutral ``SpriteConfig`` / ``ChordConfig``
switch).  Both replay one of the flows (:data:`FLOWS`), then the same
read program (:data:`STEPS`), and must agree bit for bit on

- every read: rankings with score bits, fetched lists, lost terms;
- every :class:`QueryExecution` field but ``ranking_reused``, and how
  many executes reused a held ranking (none, if the twin never does) —
  where both systems run the same result cache;
- what every document's learner observed, in order, the write-state
  fingerprint (but for the rank order of slot versions where a row
  applies the same writes in another order) and, where both run the
  same result cache, its tallies;
- every ``NetworkStats`` counter but those of the kinds the row's
  ``delta`` names: an exact byte difference (default minus twin) from
  what the default system's wire saw (:class:`Wire`), or ``None``, free,
  and the message or hop counts its ``routing`` names, where the twin
  looks up what the default absorbs.
  Hop counts only where both rings are configured alike: another finger
  arity or route cache takes other paths to the same owners;
- on the lossy transport, the RNG state and the trace table (a message
  more or fewer, or sent in another order, shifts every later drop).

A row names the transports and result-cache sizes it is meaningful on,
with the reason (``why``) when not all; ``check`` makes it non-vacuous
on the explicit program.  A reference whose property runs below the
system level is :data:`EXEMPT`, with that level.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.config import ChordConfig, SpriteConfig
from repro.core.metadata import TermSlot
from repro.core.owner import OwnerPeer
from repro.core.system import SpriteSystem
from repro.corpus.corpus import Corpus
from repro.corpus.relevance import Query
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
from repro.sim.engine import Delta, build_simulation, micro_configs
from repro.store import SqlitePostings

from .core.legacy_executor import install_legacy_executor
from .core.peer_side_dedup import addressed_hashes, install_peer_side_dedup
from .core.per_document_rounds import install_per_document_rounds
from .core.per_term_owner import install_owners, install_per_term_owners
from .ir.legacy_postings import LegacyPostings, install_legacy_store
from .probes import result_cache_stats

K = MessageKind
TRANSPORTS = {
    "perfect": lambda: None,
    "lossy": lambda: LossyTransport(
        faults=FaultInjector(drop_probability=0.2),
        policy=DeliveryPolicy(max_retries=0),
        seed=11,
    ),
}
#: ``learn``: share → register the training queries → learn.
#: ``bulk-churn``: bulk share → register → learn → withdraw and re-share
#: the first fifth of the corpus (the write-heavy flow).
FLOWS = ("learn", "bulk-churn")

#: What a read program is made of: a round of every deployment query with
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


class Deployment(NamedTuple):
    """A corpus, its training and test queries, and the seeded micro
    ring (:func:`~repro.sim.engine.micro_configs`) both systems of a
    twin cell are built on."""

    corpus: Corpus
    train: List[Query]
    test: List[Query]
    num_peers: int
    seed: int

    def configs(self, *deltas: Delta) -> Tuple[SpriteConfig, ChordConfig]:
        """The micro configuration with *deltas* applied in order."""
        return micro_configs(self.num_peers, self.seed, *deltas)

    def build(self, *deltas: Delta, transport=None) -> SpriteSystem:
        sprite, chord = self.configs(*deltas)
        return SpriteSystem(
            self.corpus, sprite_config=sprite, chord_config=chord, transport=transport
        )

    def full_index(self) -> SpriteSystem:
        """SPRITE without learning, shared: every document publishes every
        term (F = ∞), weighted against the true corpus size."""
        system = self.build({"sprite": {
            "initial_terms": 10**6,
            "max_index_terms": 10**6,
            "assumed_corpus_size": len(self.corpus),
        }})
        system.share_corpus()
        return system

    def replay(self, system: SpriteSystem, flow: str) -> None:
        """Run the named *flow* (:data:`FLOWS`) on *system*."""
        bulk = flow == "bulk-churn"
        if bulk:
            system.bulk_share()
        else:
            system.share_corpus()
        system.register_queries(self.train)
        system.run_learning()
        if bulk:
            docs = list(self.corpus)
            churn_ids = [d.doc_id for d in docs[: max(1, math.ceil(len(docs) / 5))]]
            system.bulk_unshare(churn_ids)
            system.bulk_share([system.corpus.get(doc_id) for doc_id in churn_ids])


@lru_cache(maxsize=None)
def seeded(seed: int) -> Deployment:
    """The corpus and query pool :func:`~repro.sim.engine.build_simulation`
    draws for *seed* (the first half trains), on its 24-peer ring."""
    engine = build_simulation(seed=seed)
    queries = list(engine.queries)
    half = len(queries) // 2
    return Deployment(engine.system.corpus, queries[:half], queries[half:], 24, seed)


def write_state_fingerprint(system: SpriteSystem) -> Dict[str, object]:
    """Everything the write path can influence, as a comparable value.

    Four parts:

    ``slots``
        Per (indexing peer, term): the postings in publish order, the
        indexed document frequency, and the query cache's latest
        sequence number.
    ``caches``
        Per (indexing peer, term): the query cache's entries ``(keyword
        tuple, query hash, sequence)``, oldest first — what learning
        polls, so a query registered under the wrong tuple shows here.
    ``version_rank``
        The slot keys sorted by slot version.  Versions come from one
        process-global counter, so their *absolute* values differ
        between two separately built systems — but every write path
        applies mutations in the same order, so the *rank order* of
        final slot versions must coincide.
    ``owners``
        Per (owner peer, shared document): index terms in selection
        order, poll cursors, iterations run, the learner's raw
        statistics, and its current rank list.
    """
    slots: Dict[Tuple[int, str], object] = {}
    caches: Dict[Tuple[int, str], tuple] = {}
    versions: List[Tuple[int, Tuple[int, str]]] = []
    for node in system.ring.nodes.values():
        for value in node.store.values():
            if not isinstance(value, TermSlot):
                continue
            key = (node.node_id, value.term)
            slots[key] = (
                tuple(value.entries()),
                value.indexed_document_frequency,
                value.cache.latest_sequence,
            )
            caches[key] = tuple(value.cache)
            versions.append((value.version, key))
    versions.sort()
    owners: Dict[Tuple[int, str], object] = {}
    for node_id, owner in system.owners.items():
        for doc_id, state in owner.shared.items():
            owners[(node_id, doc_id)] = (
                tuple(state.index_terms),
                tuple(sorted(state.poll_cursors.items())),
                state.learning_iterations_run,
                tuple(
                    sorted(
                        (term, (s.max_qscore, s.query_frequency))
                        for term, s in state.learner.stats.items()
                    )
                ),
                tuple((rt.term, rt.score) for rt in state.learner.rank_list()),
            )
    return {
        "slots": slots,
        "caches": caches,
        "version_rank": tuple(key for __, key in versions),
        "owners": owners,
    }


def slot_stores(system: SpriteSystem) -> list:
    """The posting store behind every slot on the ring."""
    return [slot._store for node in system.ring.nodes.values() for slot in node.store.values()]


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


class ForgetfulOwner(OwnerPeer):
    """An owner that knows no peer: its known peers read empty and
    forget whatever an exchange located, so each poll and write batch
    looks up every peer it reaches."""

    peers = property(lambda self: [], lambda self, located: None)


def forget_peers(system: SpriteSystem) -> SpriteSystem:
    """Make every owner of *system* forget its known peers before every
    exchange."""
    return install_owners(system, ForgetfulOwner)


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
    (document, term) would ship of a query several documents keep.
    ``stats`` is the default system's own counters."""

    def __init__(self, protocol) -> None:
        self.stats = protocol.ring.stats
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

        def counting_poll(owner_id, documents, near=()):
            polled[0] = documents
            result = poll_batch(owner_id, documents, near)
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


def total_hops(stats) -> int:
    """Hops over every kind a ring's ``NetworkStats`` recorded."""
    return sum(row.hops for row in stats.snapshot().values())


def as_built(system: SpriteSystem) -> SpriteSystem:
    """No substitution: a row's ``config`` is the whole difference."""
    return system


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
    #: Kinds whose named counters the twin's routing may move while their
    #: bytes, and every other kind, stay exact: a twin that looks up what
    #: the default absorbs sends more LOOKUPs, and its requests travel
    #: further.
    routing: Dict[MessageKind, Tuple[str, ...]] = {}
    #: ``check(default's wire, its reused rankings, twin)`` on the explicit program.
    check: Callable[[Wire, int, SpriteSystem], bool] = lambda wire, reused, twin: True
    #: A configuration delta applied to the twin's build only.
    config: Delta = {}


PER_TERM = "sends other messages by design, so only the perfect transport keeps both in step"
PATHS = "routes other hops, and on the lossy transport every hop is a delivery that draws"
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
    # An owner that forgets its peers looks them up again.
    Row("forget_peers", forget_peers,
        routing={K.LOOKUP: ("messages", "hops"), K.POLL_BATCH: ("hops",),
                 K.PUBLISH_BATCH: ("hops",), K.UNPUBLISH_BATCH: ("hops",)},
        transports=("perfect",), route_cache=False,
        why="an owner that looks up every peer it reaches " + PATHS,
        check=lambda w, reused, twin: twin.ring.stats.kind(K.LOOKUP).messages
        > w.stats.kind(K.LOOKUP).messages),
    Row("legacy_executor", install_legacy_executor, free(K.LOOKUP, K.SEARCH_TERM, K.POSTINGS),
        transports=("perfect",), result_caches=(0,), reuses=False,
        why="one fetch per query term " + PER_TERM + "; it never consults the result cache",
        check=lambda w, reused, twin: reused > 0),
    Row("legacy_store", install_legacy_store,
        check=lambda w, reused, twin: any(
            type(store) is LegacyPostings for store in slot_stores(twin)
        )),
    # Every lookup routes hop by hop, and so takes more hops.
    Row("perf-paths", as_built, config={"chord": {"route_cache_size": 0}},
        transports=("perfect",), why="a ring without a route cache " + PATHS,
        check=lambda w, reused, twin: total_hops(twin.ring.stats) > total_hops(w.stats)),
    # A ReCord-style ring: the same owners in fewer hops.
    Row("ring-paths", as_built, config={"chord": {"finger_arity": 8}},
        transports=("perfect",), why="a ring of arity 8 " + PATHS,
        check=lambda w, reused, twin: total_hops(twin.ring.stats) < total_hops(w.stats)),
    # A repeat over unchanged lists is answered from the result caches.
    Row("result-cache", as_built,
        free(K.LOOKUP, K.SEARCH_TERM, K.POSTINGS, K.VERSION_PROBE, K.VERSION_VALUE,
             K.RESULT_PROBE, K.RESULT_VALUE, K.RESULT_STORE),
        config={"sprite": {"result_cache_size": 128}},
        transports=("perfect",), result_caches=(0,),
        why="the twin's result cache is the switch, and it answers a repeat with other "
        "messages, so only the perfect transport keeps both in step",
        check=lambda w, reused, twin: result_cache_stats(twin.protocol)[1] > 0),
    # SQLite recomputes every float through the expressions the in-RAM
    # store uses, so there is no tolerance to hide behind.
    Row("store-paths", as_built, config={"sprite": {"store_backend": "sqlite"}},
        check=lambda w, reused, twin: all(
            type(store) is SqlitePostings and store._bloom is not None
            for store in slot_stores(twin)
        )),
    Row("store-bloom", as_built,
        config={"sprite": {"store_backend": "sqlite", "store_bloom": False}},
        check=lambda w, reused, twin: all(
            type(store) is SqlitePostings and store._bloom is None
            for store in slot_stores(twin)
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


def run_program(
    system: SpriteSystem, deployment: Deployment, program
) -> Tuple[list, list, int, int]:
    """Run the read *program* on *system*: ``(what every read returned,
    every execution's diagnostics, executes that reused a held ranking,
    terms lost)``."""
    reads, executions, reused, lost = [], [], 0, 0
    issuer = system.ring.live_ids[0]
    docs = list(deployment.corpus)
    reshared = docs[-max(1, len(docs) // 5):]
    for step in program:
        if step == "learn":
            system.run_learning_iteration()
        elif step == "reshare":
            system.bulk_unshare([doc.doc_id for doc in reshared])
            system.bulk_share(reshared)
        elif step.startswith("query"):
            for query in deployment.train + deployment.test:
                ranked, execution = system.execute(query, cache=step == "query")
                reused += execution.ranking_reused
                lost += execution.terms_failed
                reads.append(pairs(ranked))
                executions.append(replace(execution, ranking_reused=False))
        elif step == "batch":
            for query in deployment.test:
                results, failed = system.protocol.fetch_postings_batch(issuer, query.terms)
                reads.append(sorted(
                    (term, [p.doc_id for p in postings], df)
                    for term, (postings, df) in results.items()
                ))
                reads.append(failed)
                lost += len(failed)
        else:
            for term in (term for query in deployment.test for term in query.terms):
                try:
                    reads.append(system.protocol.fetch_postings(issuer, term))
                except NodeFailedError:
                    reads.append(term)
                    lost += 1
    return reads, executions, reused, lost


def log_polls(system: SpriteSystem) -> list:
    """Log ``(owner, document, queries)`` for what every document's
    learner observes from here on — whether its owner polled it alone or
    in a round with others — owners created later included."""
    log, owner_at = [], system._owner_at

    def logged(owner):
        poll = owner._poll

        def observing(states):
            observed = poll(states)
            for state, queries in zip(states, observed):
                log.append((owner.node_id, state.document.doc_id, queries))
            return observed

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
    routing: Dict[MessageKind, Tuple[str, ...]] = {},
) -> None:
    """Twin systems that ran the same operations agree on state (the
    rank order of slot versions only with *version_rank*), the result
    caches where both run the same one, every message counter but
    *delta*'s and the *routing* counters named (hops only where both
    rings are configured alike; see the module docstring), and a lossy
    transport drew the same drops."""
    ours, theirs = write_state_fingerprint(default), write_state_fingerprint(twin)
    if not version_rank:
        del ours["version_rank"], theirs["version_rank"]
    assert ours == theirs
    if default.config.result_cache_size == twin.config.result_cache_size:
        assert result_cache_stats(default.protocol) == result_cache_stats(twin.protocol)
    ours, theirs = default.ring.stats.summary(), twin.ring.stats.summary()
    if default.ring.config != twin.ring.config:
        for summary in (ours, theirs):
            for counters in summary.values():
                del counters["hops"]
    none = {"messages": 0, "bytes": 0, "hops": 0}
    for kind, names in routing.items():
        for summary in (ours, theirs):
            counters = summary.setdefault(kind.value, dict(none))
            for name in names:
                counters.pop(name, None)
    for kind, allowed in delta.items():
        mine, its = ours.pop(kind.value, none), theirs.pop(kind.value, none)
        if allowed is not None:
            assert {**mine, "bytes": mine["bytes"] - allowed} == its, kind
    assert ours == theirs
    transports = default.ring.transport, twin.ring.transport
    if isinstance(transports[0], LossyTransport):
        assert transports[0].rng.getstate() == transports[1].rng.getstate()
        assert transports[0].trace.summary_table() == transports[1].trace.summary_table()


def run_row(row: Row, deployment: Deployment, transport: str, flow: str,
            result_cache: int, program) -> None:
    """One cell of the table: *row* on *transport*, *flow* and
    *result_cache*, followed by the read *program*.  Every system built
    here is closed on the way out: one on SQLite owns a database and a
    temp dir."""
    cell = {
        "sprite": {"result_cache_size": result_cache},
        "chord": {} if row.route_cache else {"route_cache_size": 0},
    }
    built = []
    try:
        for config in ({}, row.config):
            built.append(deployment.build(cell, config, transport=TRANSPORTS[transport]()))
        default, twin = built[0], row.substitute(built[1])
        wire = Wire(default.protocol)
        seen = []
        for system in (default, twin):
            polls = log_polls(system)
            deployment.replay(system, flow)
            seen.append((polls, *run_program(system, deployment, program)))
        (polls, reads, executions, reused, lost), (
            twin_polls, twin_reads, twin_executions, twin_reused, __
        ) = seen
        assert polls == twin_polls
        assert reads == twin_reads
        if default.config.result_cache_size == twin.config.result_cache_size:
            assert executions == twin_executions
            assert twin_reused == (reused if row.reuses else 0)
        delta = row.delta(wire)
        assert_agree(default, twin, delta, row.version_rank, row.routing)
        if program == PROGRAM:
            assert row.check(wire, reused, twin)
            if transport == "lossy":
                # Terms really were lost, and so were messages of every kind
                # whose bytes the row moves.
                trace = default.ring.transport.trace
                assert lost and all(
                    trace.filtered(kind=k.value, outcome=DROPPED) for k in delta
                )
    finally:
        for system in built:
            if system.store_runtime is not None:
                system.store_runtime.close()
