"""The fused visit: one SEARCH_TERM both fetches a peer's slots and
leaves the query in their caches (paper §4/§5.1).

``QueryProcessor.execute(cache=True)`` used to register the query in a
pass of its own — a second DHT lookup per term that sent nothing — and
then fetch.  Now the fetch registers.  Three twin systems pin what that
may and may not change:

* **fused ≡ reference** — against ``register_query`` followed by the
  seed executor (``tests/core/legacy_executor.py``): the same rankings
  with score bits, the same :class:`QueryExecution`, and the same
  learning fuel — every slot's query cache entry for entry, the same
  slots existing, the empty slots of never-indexed keywords included;
* **fused vs unfused on the wire** — against ``register_query`` then
  ``fetch_slot_views`` without registration (what ``execute`` sent
  before): the same SEARCH_TERM / POSTINGS messages and bytes but for
  the keyword tuple each fused request carries, and exactly one LOOKUP
  fewer per located term;
* **the failure contract** on a lossy transport, where the twins' RNG
  streams diverge by construction: a term that was not dropped is cached
  exactly once, an undelivered SEARCH_TERM caches nothing, a lost
  POSTINGS reply drops the term but leaves the query cached, and the
  ranking is what the reference executor returns for the surviving terms
  on a loss-free twin.

(The global version / stamp *ranks* of the slots one query creates may
differ between twins — creation follows peer groups now, not query term
order.  They are only ever compared for equality, never here.)

The failure contract is the search instance of a rule every batched
exchange of the protocol obeys — what a message carries takes effect
only once it is delivered — so ``TestLostLeg`` states it as one table
over *exchange × lost leg*, and ``TestDeliveredBeforeApplied`` pins the
three sites that used to act before they sent.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro.config import ChordConfig
from repro.core.indexer import IndexingProtocol
from repro.core.metadata import PostingEntry, TermSlot
from repro.core.query_processing import QueryProcessor
from repro.corpus.relevance import Query
from repro.dht import ChordRing
from repro.dht.messages import MessageKind
from repro.dht.replication import ReplicationManager
from repro.exceptions import NodeFailedError
from repro.net.faults import FaultInjector
from repro.net.transport import (
    DeliveryOutcome,
    DeliveryPolicy,
    DeliveryReceipt,
    LossyTransport,
    PerfectTransport,
)

from .legacy_executor import execute_legacy
from ..probes import result_cache_stats

VOCAB = [f"kw{i:03d}" for i in range(40)]
#: Keywords no document is indexed under: the first query that names one
#: creates its empty slot.
GHOSTS = ["ghost-a", "ghost-b", "ghost-c"]

#: The rings the differential runs on.
STACKS = {
    "route-cache": {},
    "no-route-cache": {"route_cache": 0},
    "record-8": {"arity": 8},
    "crashed-peer": {"crash": True},
}


def build_stack(
    route_cache: int = 65536,
    arity: int = 2,
    crash: bool = False,
    transport=None,
    seed: int = 7,
):
    ring = ChordRing(
        ChordConfig(
            num_peers=64, seed=seed, route_cache_size=route_cache, finger_arity=arity
        ),
        transport=transport,
    )
    protocol = IndexingProtocol(ring)
    processor = QueryProcessor(protocol, assumed_corpus_size=10_000)
    rng = random.Random(seed)
    for d in range(30):
        owner = ring.random_live_id(rng)
        for term in sorted(rng.sample(VOCAB, 6)):
            posting = PostingEntry(f"d{d:03d}", owner, rng.randint(1, 9), 50 + 7 * d)
            while True:  # a lossy transport may take several tries to build on
                try:
                    protocol.publish(owner, term, posting)
                    break
                except NodeFailedError:
                    continue
    if crash:
        # Crashed and not repaired: the Section 7 window, where lookups
        # for the peer's keys fail until the ring stabilizes.
        ring.fail(ring.successor_of(protocol.term_hash(VOCAB[7])))
    return ring, protocol, processor


def query_stream(count: int = 60, seed: int = 23) -> List[Query]:
    rng = random.Random(seed)
    queries = []
    for i in range(count):
        terms = rng.sample(VOCAB, rng.randint(1, 3))
        if i % 4 == 0:
            terms.append(rng.choice(GHOSTS))
        queries.append(Query(f"q{i:03d}", tuple(terms)))
    return queries


def issuer_of(ring, i: int) -> int:
    return ring.live_ids[(i * 5) % ring.num_live]


def pairs(ranked) -> List[Tuple[str, float]]:
    return [(e.doc_id, e.score) for e in ranked]


def slots_of(ring) -> Dict[Tuple[int, str], TermSlot]:
    """Every term slot in the system, by ``(holding peer, term)``."""
    return {
        (node.node_id, slot.term): slot
        for node in ring.nodes.values()
        for slot in node.store.values()
        if isinstance(slot, TermSlot)
    }


def learning_fuel(ring):
    """What the learning side can see of the slots: which exist, how many
    postings each holds, and each query cache entry for entry."""
    return {
        where: (
            slot.indexed_document_frequency,
            [(c.terms, c.query_hash, c.sequence) for c in slot.cache],
            slot.cache.latest_sequence,
        )
        for where, slot in slots_of(ring).items()
    }


def count_located(ring) -> List[int]:
    """Count, in ``[0]`` of the returned list, the lookups *ring* routes
    to completion from here on (a failed lookup raises and sends no
    LOOKUP)."""
    located = [0]
    lookup = ring.lookup

    def counting(*args, **kwargs):
        result = lookup(*args, **kwargs)
        located[0] += 1
        return result

    ring.lookup = counting
    return located


@pytest.mark.parametrize("stack", STACKS.values(), ids=STACKS.keys())
class TestFusedEqualsReference:
    def test_rankings_executions_and_learning_fuel(self, stack) -> None:
        ring_f, __, proc_fused = build_stack(**stack)
        ring_r, __, proc_ref = build_stack(**stack)
        dropped = 0
        for i, query in enumerate(query_stream()):
            issuer = issuer_of(ring_f, i)
            ranked_f, exec_f = proc_fused.execute(issuer, query, top_k=10)
            # execute_legacy(cache=True) is register_query, then one
            # fetch_postings per term.
            ranked_r, exec_r = execute_legacy(proc_ref, issuer, query, top_k=10)
            assert pairs(ranked_f) == pairs(ranked_r)
            assert exec_f == exec_r
            dropped += exec_f.terms_failed
        assert learning_fuel(ring_f) == learning_fuel(ring_r)
        # The stream did create empty slots, and every query was cached.
        fuel = learning_fuel(ring_f)
        assert any(df == 0 for df, __, __ in fuel.values())
        assert sum(latest + 1 for __, __, latest in fuel.values()) == sum(
            len(q.terms) for q in query_stream()
        ) - dropped
        assert (dropped > 0) == bool(stack.get("crash"))

    def test_same_search_traffic_one_lookup_fewer_per_term(self, stack) -> None:
        ring_f, __, proc_fused = build_stack(**stack)
        ring_u, proto_unfused, __ = build_stack(**stack)
        before_f, before_u = ring_f.stats.snapshot(), ring_u.stats.snapshot()
        located = count_located(ring_f)
        # The fused request carries the keyword tuple it registers.
        __, __, keyword_bytes, __ = MessageKind.SEARCH_TERM.unit_bytes
        tuple_bytes = 0
        for i, query in enumerate(query_stream()):
            issuer = issuer_of(ring_f, i)
            requests = ring_f.stats.kind(MessageKind.SEARCH_TERM).messages
            proc_fused.execute(issuer, query, top_k=10)
            requests = ring_f.stats.kind(MessageKind.SEARCH_TERM).messages - requests
            tuple_bytes += requests * len(query.terms) * keyword_bytes
            # What execute sent before the visit was fused.
            proto_unfused.register_query(issuer, query.terms)
            proto_unfused.fetch_slot_views(issuer, query.terms)
        fused = ring_f.stats.delta_since(before_f)
        unfused = ring_u.stats.delta_since(before_u)
        assert tuple_bytes > 0
        for kind, extra in ((MessageKind.SEARCH_TERM, tuple_bytes), (MessageKind.POSTINGS, 0)):
            assert fused[kind].messages == unfused[kind].messages > 0
            assert fused[kind].bytes == unfused[kind].bytes + extra
            if ring_f.route_cache is None:
                assert fused[kind].hops == unfused[kind].hops
            else:
                # The unfused fetch re-used the route its registration
                # pass had cached a moment before, so its SEARCH_TERM
                # reported that 1-hop route; the fused request reports
                # the route it actually took.
                assert fused[kind].hops >= unfused[kind].hops
        assert located[0] > 0
        assert (
            fused[MessageKind.LOOKUP].messages
            == unfused[MessageKind.LOOKUP].messages - located[0]
            == located[0]
        )
        assert learning_fuel(ring_f) == learning_fuel(ring_u)


class TestFailureContract:
    """On a lossy transport: what each kind of loss leaves behind."""

    @staticmethod
    def build():
        transport = LossyTransport(
            faults=FaultInjector(drop_probability=0.35),
            policy=DeliveryPolicy(max_retries=0),
            seed=5,
        )
        return build_stack(transport=transport)

    def test_what_each_loss_leaves_behind(self) -> None:
        ring, protocol, processor = self.build()
        # The same postings behind a perfect transport; only ever read
        # with cache=False, so it stays as built.
        ring_twin, __, proc_twin = build_stack()
        # Spy on the application sends: which peers took a SEARCH_TERM,
        # and whose POSTINGS reply was lost.
        send = ring.send
        took_search: List[int] = []
        lost_reply: List[int] = []

        def spying(message):
            try:
                send(message)
            except NodeFailedError:
                if message.kind is MessageKind.POSTINGS:
                    lost_reply.append(message.src)
                raise
            if message.kind is MessageKind.SEARCH_TERM:
                took_search.append(message.dst)

        ring.send = spying
        seen = {"kept": 0, "unvisited": 0, "lost-reply": 0}
        for i, query in enumerate(query_stream(count=120)):
            arrivals_before = {
                where: slot.cache.latest_sequence for where, slot in slots_of(ring).items()
            }
            del took_search[:], lost_reply[:]
            ranked, execution = processor.execute(issuer_of(ring, i), query, top_k=10)

            arrivals = {
                where: slot.cache.latest_sequence - arrivals_before.get(where, -1)
                for where, slot in slots_of(ring).items()
            }
            surviving = tuple(t for t in query.terms if t not in execution.dropped_terms)
            expected = (
                execute_legacy(
                    proc_twin, issuer_of(ring_twin, i), Query("twin", surviving), 10, cache=False
                )[0]
                if surviving
                else []
            )
            assert pairs(ranked) == pairs(expected)
            for term in query.terms:
                peer = ring.successor_of(protocol.term_hash(term))
                gained = arrivals.get((peer, term), 0)
                if term not in execution.dropped_terms:
                    assert gained == 1
                    assert protocol.slot_snapshot(term).cache.since(-1)[-1].terms == query.terms
                    seen["kept"] += 1
                elif peer in lost_reply:
                    assert gained == 1  # the peer saw the request
                    seen["lost-reply"] += 1
                else:
                    assert peer not in took_search
                    assert gained == 0
                    seen["unvisited"] += 1
            # Nothing else in the system heard of the query.
            assert sum(arrivals.values()) == sum(
                arrivals.get((ring.successor_of(protocol.term_hash(t)), t), 0)
                for t in query.terms
            )
        assert all(seen.values()), seen  # every case of the contract occurred


class DropKinds(PerfectTransport):
    """A perfect network that loses every message of the given kinds —
    optionally only those to or from one peer.  ``kinds`` may be set
    after the stack is built, so set-up runs on a quiet network."""

    def __init__(self) -> None:
        super().__init__()
        self.kinds: frozenset = frozenset()
        self.peer = None
        self.dropped = 0

    def deliver(self, message, dst_alive: bool = True) -> DeliveryReceipt:
        if message.kind in self.kinds and self.peer in (None, message.src, message.dst):
            self.dropped += 1
            return DeliveryReceipt(DeliveryOutcome.DROPPED, attempts=1, latency_ms=0.0)
        return super().deliver(message, dst_alive)


def index_state(ring):
    """Everything the indexing peers hold, primaries and replicas: per
    slot, the postings in publish order and the cached queries."""
    return {
        (node.node_id, held, slot.term): (
            tuple(slot.entries()),
            [(c.terms, c.query_hash, c.sequence) for c in slot.cache],
        )
        for node in ring.nodes.values()
        for held, slots in (("store", node.store), ("replica", node.replicas))
        for slot in slots.values()
        if isinstance(slot, TermSlot)
    }


def _one_document(polled):
    """A one-document ``poll_batch`` answer keyed by term alone."""
    results, failed, __ = polled
    return {term: answer for (__, term), answer in results.items()}, failed


#: The batched exchanges: ``name → (request kind, reply kind or None for
#: a request-only exchange, call(protocol, src, terms) → (answered,
#: failed))``.  Every call addresses the same *terms*.
POSTING = PostingEntry("fresh", 1, 3, 77)
EXCHANGES = {
    "search-views": (
        MessageKind.SEARCH_TERM,
        MessageKind.POSTINGS,
        lambda p, src, terms: p.fetch_slot_views(src, terms, register=True),
    ),
    "search-postings": (
        MessageKind.SEARCH_TERM,
        MessageKind.POSTINGS,
        lambda p, src, terms: p.fetch_postings_batch(src, terms),
    ),
    "version-probe": (
        MessageKind.VERSION_PROBE,
        MessageKind.VERSION_VALUE,
        lambda p, src, terms: p.probe_slot_versions(src, terms),
    ),
    "poll-batch": (
        MessageKind.POLL_BATCH,
        MessageKind.QUERY_BATCH,
        lambda p, src, terms: _one_document(p.poll_batch(src, [dict.fromkeys(terms, -1)])),
    ),
    "publish-batch": (
        MessageKind.PUBLISH_BATCH,
        None,
        lambda p, src, terms: p.publish_batch(src, [(t, POSTING) for t in terms])[:2],
    ),
    "unpublish-batch": (
        MessageKind.UNPUBLISH_BATCH,
        None,
        lambda p, src, terms: p.unpublish_batch(src, [(t, "d000") for t in terms])[:2],
    ),
}
LOST_LEGS = [
    (name, leg)
    for name, (__, reply, __) in EXCHANGES.items()
    for leg in ("request", "reply")
    if leg == "request" or reply is not None
]


class TestLostLeg:
    """The one rule of the exchange, per operation and per leg: what a
    message carries takes effect only once it is delivered.  One peer's
    messages of one kind are lost; every other peer's exchange must run
    as if nothing had happened."""

    @staticmethod
    def build():
        transport = DropKinds()
        ring, protocol, __ = build_stack(transport=transport)
        # Terms of document d000 first, so the unpublish has postings to
        # find; a ghost keyword, so registration has a slot to create.
        of_d000 = [
            t
            for t in VOCAB
            if (slot := protocol.slot_snapshot(t)) and slot.has_posting("d000")
        ]
        terms = tuple(dict.fromkeys(of_d000 + VOCAB[:12] + GHOSTS[:1]))
        src = ring.live_ids[3]
        for i in range(3):  # something for the poll to return
            protocol.register_query(src, (terms[i], terms[i + 1]))
        ReplicationManager(ring, replication_factor=2).replicate_round()
        return transport, ring, protocol, src, terms

    @pytest.mark.parametrize("name,leg", LOST_LEGS)
    def test_a_lost_leg_fails_its_peer_and_nothing_else(self, name, leg) -> None:
        request_kind, reply_kind, call = EXCHANGES[name]
        # The loss-free twin says what every peer would have answered.
        __, ring_twin, proto_twin, src_twin, terms_twin = self.build()
        transport, ring, protocol, src, terms = self.build()
        assert (src, terms) == (src_twin, terms_twin)
        peer_of = {t: ring.successor_of(protocol.term_hash(t)) for t in terms}
        victim = peer_of[terms[0]]
        lost = [t for t in terms if peer_of[t] == victim]
        kept = [t for t in terms if peer_of[t] != victim]
        assert lost and kept and victim != src

        before = index_state(ring)
        transport.peer = victim
        transport.kinds = frozenset(
            {request_kind if leg == "request" else reply_kind}
        )
        answered, failed = call(protocol, src, terms)
        expected, none_failed = call(proto_twin, src, terms)
        assert transport.dropped == 1
        assert not none_failed

        # Results: the victim's terms failed, in located order; every
        # other term is answered exactly as on the loss-free twin.
        assert list(failed) == lost or failed == set(lost)
        if isinstance(answered, dict):
            assert set(answered) == set(kept)
            if name == "search-views":
                answered, expected = (
                    {t: (v.indexed_df, v.scoring_view()) for t, v in views.items()}
                    for views in (answered, expected)
                )
            if name != "version-probe":  # versions are process-global
                assert answered == {t: expected[t] for t in kept}
        else:  # the write batches answer with the set of applied terms
            assert answered == expected - set(lost)

        # What the peers kept.  A lost request leaves the victim's slots
        # as they were — nothing cached, no posting moved, no slot
        # created — and their replicas too: a deletion that never
        # arrived is never forwarded.  Everything else, the victim's
        # side of an exchange whose reply was lost included, is what the
        # twin's peers hold.
        after, twin = index_state(ring), index_state(ring_twin)
        for where in after.keys() | twin.keys() | before.keys():
            peer, held, term = where
            untouched = (
                leg == "request"
                and term in lost
                and (peer == victim or held == "replica")
            )
            reference = before if untouched else twin
            assert after.get(where) == reference.get(where), where
        if name == "search-views" and leg == "reply":
            # Dropped from the result, but cached: the peer saw the request.
            for term in lost:
                cached = protocol.slot_snapshot(term).cache.since(-1)
                assert cached[-1].terms == terms


class TestDeliveredBeforeApplied:
    """Three sites that used to act first and send afterwards."""

    def test_a_lost_deletion_forward_leaves_the_replica_its_posting(self) -> None:
        transport = DropKinds()
        ring, protocol, __ = build_stack(transport=transport)
        owner = ring.live_ids[0]
        terms = VOCAB[:20]
        protocol.publish_batch(
            owner, [(t, PostingEntry("victim", owner, 2, 90)) for t in terms]
        )
        ReplicationManager(ring, replication_factor=1).replicate_round()

        def replica_postings() -> int:
            return sum(
                slot.has_posting("victim")
                for node in ring.nodes.values()
                for slot in node.replicas.values()
            )

        assert replica_postings() == len(terms)
        transport.kinds = frozenset({MessageKind.UNPUBLISH_TERM})
        removed, failed, __ = protocol.unpublish_batch(owner, [(t, "victim") for t in terms])
        # The primaries took their batches; every forward was lost, so
        # every replica still has what nobody told it to delete.
        assert (removed, failed) == (set(terms), set())
        assert transport.dropped == len(terms)
        assert replica_postings() == len(terms)
        transport.kinds = frozenset()
        protocol.publish_batch(
            owner, [(t, PostingEntry("victim", owner, 2, 90)) for t in terms]
        )
        protocol.unpublish_batch(owner, [(t, "victim") for t in terms])
        assert replica_postings() == 0

    def test_a_posting_is_indexed_once_its_publish_term_is_delivered(self) -> None:
        transport = DropKinds()
        ring, protocol, __ = build_stack(transport=transport)
        before = index_state(ring)
        transport.kinds = frozenset({MessageKind.PUBLISH_TERM})
        with pytest.raises(NodeFailedError):
            protocol.publish(ring.live_ids[0], GHOSTS[0], PostingEntry("new", 1, 1, 10))
        with pytest.raises(NodeFailedError):
            protocol.publish(ring.live_ids[0], VOCAB[0], PostingEntry("new", 1, 1, 10))
        # Reported as failed, and failed: no posting, no slot.
        assert index_state(ring) == before
        transport.kinds = frozenset()
        protocol.publish(ring.live_ids[0], GHOSTS[0], PostingEntry("new", 1, 1, 10))
        assert protocol.slot_snapshot(GHOSTS[0]).has_posting("new")

    def test_a_probe_is_a_hit_once_its_result_value_is_delivered(self) -> None:
        transport = DropKinds()
        ring, __, __ = build_stack(transport=transport)
        protocol = IndexingProtocol(ring, result_cache_size=8)
        issuer, terms = ring.live_ids[0], (VOCAB[1], VOCAB[2])
        ranked, __ = QueryProcessor(protocol, assumed_corpus_size=10_000).execute(
            issuer, Query("q", terms), top_k=5, cache=False
        )
        versions, __ = protocol.probe_slot_versions(issuer, terms)
        assert result_cache_stats(protocol) == (1, 0, 1)  # stored after one miss
        transport.kinds = frozenset({MessageKind.RESULT_VALUE})
        assert protocol.probe_result(issuer, terms, 5, versions, frozenset()) is None
        # The home found the entry, the issuer never heard: no query was
        # served from the cache, so no hit.
        assert result_cache_stats(protocol) == (1, 0, 1)
        transport.kinds = frozenset()
        served = protocol.probe_result(issuer, terms, 5, versions, frozenset())
        assert pairs(served) == pairs(ranked)
        assert result_cache_stats(protocol) == (1, 1, 1)
