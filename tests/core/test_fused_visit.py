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
  before): the same SEARCH_TERM / POSTINGS traffic, and exactly one
  LOOKUP fewer per located term;
* **the failure contract** on a lossy transport, where the twins' RNG
  streams diverge by construction: a term that was not dropped is cached
  exactly once, an undelivered SEARCH_TERM caches nothing, a lost
  POSTINGS reply drops the term but leaves the query cached, and the
  ranking is what the reference executor returns for the surviving terms
  on a loss-free twin.

(The global version / stamp *ranks* of the slots one query creates may
differ between twins — creation follows peer groups now, not query term
order.  They are only ever compared for equality, never here.)
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
from repro.dht.messages import MessageKind
from repro.dht.recursive import build_ring
from repro.exceptions import NodeFailedError
from repro.net.faults import FaultInjector
from repro.net.transport import DeliveryPolicy, LossyTransport

from .legacy_executor import execute_legacy

VOCAB = [f"kw{i:03d}" for i in range(40)]
#: Keywords no document is indexed under: the first query that names one
#: creates its empty slot.
GHOSTS = ["ghost-a", "ghost-b", "ghost-c"]

#: The rings the differential runs on.
STACKS = {
    "route-cache": {},
    "no-route-cache": {"route_cache": 0},
    "record-8": {"kind": "record", "arity": 8},
    "crashed-peer": {"crash": True},
}


def build_stack(
    route_cache: int = 65536,
    kind: str = "chord",
    arity: int = 2,
    crash: bool = False,
    transport=None,
    seed: int = 7,
):
    ring = build_ring(
        kind,
        ChordConfig(num_peers=64, seed=seed, route_cache_size=route_cache),
        arity=arity,
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
        for i, query in enumerate(query_stream()):
            issuer = issuer_of(ring_f, i)
            proc_fused.execute(issuer, query, top_k=10)
            # What execute sent before the visit was fused.
            proto_unfused.register_query(issuer, query.terms)
            proto_unfused.fetch_slot_views(issuer, query.terms)
        fused = ring_f.stats.delta_since(before_f)
        unfused = ring_u.stats.delta_since(before_u)
        for kind in (MessageKind.SEARCH_TERM, MessageKind.POSTINGS):
            assert fused[kind].messages == unfused[kind].messages > 0
            assert fused[kind].bytes == unfused[kind].bytes
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
