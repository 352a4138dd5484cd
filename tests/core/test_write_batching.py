"""Edge cases of the write protocol (ISSUE 5).

Unit-level companions to the ``test_ingest_equivalence`` property:
owner semantics that must hold identically for ``OwnerPeer`` and the
per-term reference ``PerTermOwner``
(cursor resets, idempotent publication, partial-failure isolation) and
the indexer batch methods' cost/failure contracts (one lookup per
distinct peer via interval absorption, per-peer failure isolation,
``poll_batch`` matching ``poll_term`` term for term).
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.config import ChordConfig, SpriteConfig
from repro.core.indexer import IndexingProtocol
from repro.core.metadata import PostingEntry
from repro.core.owner import OwnerPeer
from repro.corpus import Document
from repro.dht import ChordRing, MessageKind

from .per_term_owner import PerTermOwner
from ..probes import indexed_df


def make_ring(seed: int = 29, route_cache_size: int = 0) -> ChordRing:
    return ChordRing(
        ChordConfig(
            num_peers=16,
            id_bits=32,
            successor_list_size=4,
            seed=seed,
            route_cache_size=route_cache_size,
        )
    )


def make_owner(ring: ChordRing, batched: bool) -> OwnerPeer:
    config = SpriteConfig(
        initial_terms=2,
        terms_per_iteration=2,
        learning_iterations=1,
        max_index_terms=4,
        query_cache_size=32,
    )
    protocol = IndexingProtocol(ring, query_cache_size=32)
    owner_type = OwnerPeer if batched else PerTermOwner
    return owner_type(ring.live_ids[0], protocol, config)


DOC = Document(
    "d1",
    "alpha alpha alpha beta beta gamma gamma delta epsilon zeta zeta zeta zeta",
)


@pytest.mark.parametrize("batched", [True, False])
class TestOwnerEdgeCases:
    def test_unshare_then_reshare_resets_poll_cursors(self, batched: bool) -> None:
        ring = make_ring()
        owner = make_owner(ring, batched)
        state = owner.share(DOC)
        issuer = ring.live_ids[3]
        owner.protocol.register_query(issuer, ("zeta", "alpha"))
        first_poll = owner.poll_queries(DOC.doc_id)
        assert first_poll == [("zeta", "alpha")]
        advanced = dict(state.poll_cursors)
        assert any(cursor >= 0 for cursor in advanced.values())

        owner.unshare(DOC.doc_id)
        fresh = owner.share(DOC)
        assert fresh is not state
        # A re-shared document starts from scratch: every cursor back at
        # -1, so the next poll re-observes the still-cached query.
        assert set(fresh.poll_cursors) == set(fresh.index_terms)
        assert all(cursor == -1 for cursor in fresh.poll_cursors.values())
        assert owner.poll_queries(DOC.doc_id) == [("zeta", "alpha")]

    def test_publishing_already_indexed_term_is_noop(self, batched: bool) -> None:
        ring = make_ring()
        owner = make_owner(ring, batched)
        state = owner.share(DOC)
        terms_before = list(state.index_terms)
        cursors_before = dict(state.poll_cursors)
        versions_before = {
            term: owner.protocol.slot_snapshot(term).version
            for term in terms_before
        }
        messages_before = ring.stats.total_messages

        owner._publish([(state, terms_before)])

        assert state.index_terms == terms_before
        assert state.poll_cursors == cursors_before
        for term in terms_before:
            slot = owner.protocol.slot_snapshot(term)
            assert slot.version == versions_before[term]
            assert slot.indexed_document_frequency == 1
        assert ring.stats.total_messages == messages_before

    def test_one_failed_peer_does_not_lose_other_batches(self, batched: bool) -> None:
        ring = make_ring(seed=31)
        owner = make_owner(ring, batched)
        live_term, dead_term = _terms_on_distinct_peers(
            ring, owner.protocol, exclude={owner.node_id}
        )
        ring.fail(_responsible(ring, owner.protocol, dead_term))
        state = owner.share(
            Document("d-part", "alpha beta"), first_terms=[live_term, dead_term]
        )
        # The reachable peer's publication lands; the dead peer's term is
        # dropped (not indexed) instead of poisoning the whole batch.
        assert state.index_terms == [live_term]
        assert indexed_df(owner.protocol, live_term) == 1
        assert state.poll_cursors == {live_term: -1}


def _responsible(ring: ChordRing, protocol: IndexingProtocol, term: str) -> int:
    return ring.responsible_node(protocol.term_hash(term)).node_id


def _terms_on_distinct_peers(
    ring: ChordRing, protocol: IndexingProtocol, exclude: set
) -> Tuple[str, str]:
    """Two probe terms whose indexing peers differ, neither excluded and
    neither on the lookup path start (deterministic for a seeded ring)."""
    found = {}
    for i in range(200):
        term = f"probe{i:03d}"
        peer = _responsible(ring, protocol, term)
        if peer in exclude:
            continue
        if peer not in found:
            found[peer] = term
        if len(found) >= 2:
            peers = list(found)
            return found[peers[0]], found[peers[1]]
    raise AssertionError("could not find two distinct indexing peers")


class TestLocateWriteBatch:
    def test_one_lookup_per_distinct_peer(self) -> None:
        ring = make_ring()
        protocol = IndexingProtocol(ring, query_cache_size=32)
        owner_id = ring.live_ids[0]
        terms = [f"bulk{i:03d}" for i in range(48)]
        distinct_peers = {_responsible(ring, protocol, t) for t in terms}
        assert len(distinct_peers) < len(terms)  # 48 terms on a 16-peer ring

        lookups_before = ring.stats.kind(MessageKind.LOOKUP).messages
        postings = [
            (t, PostingEntry(doc_id="d", owner_peer=owner_id, raw_tf=1, doc_length=2))
            for t in terms
        ]
        published, failed, __ = protocol.publish_batch(owner_id, postings)
        lookups = ring.stats.kind(MessageKind.LOOKUP).messages - lookups_before

        assert failed == set()
        assert published == set(terms)
        assert lookups == len(distinct_peers)

    def test_batch_failure_isolated_to_dead_peers_terms(self) -> None:
        ring = make_ring(seed=31)
        protocol = IndexingProtocol(ring, query_cache_size=32)
        owner_id = ring.live_ids[0]
        live_term, dead_term = _terms_on_distinct_peers(
            ring, protocol, exclude={owner_id}
        )
        ring.fail(_responsible(ring, protocol, dead_term))
        posting = PostingEntry(doc_id="d", owner_peer=owner_id, raw_tf=1, doc_length=2)
        published, failed, __ = protocol.publish_batch(
            owner_id, [(live_term, posting), (dead_term, posting)]
        )
        assert live_term in published
        assert dead_term in failed
        assert dead_term not in published


class TestPollBatch:
    def test_poll_batch_matches_poll_term_per_term(self) -> None:
        ring = make_ring()
        protocol = IndexingProtocol(ring, query_cache_size=32)
        owner_id = ring.live_ids[0]
        issuer = ring.live_ids[5]
        index_terms = ["alpha", "beta", "gamma", "delta"]
        posting = PostingEntry(doc_id="d", owner_peer=owner_id, raw_tf=2, doc_length=8)
        for term in index_terms:
            protocol.publish(owner_id, term, posting)
        queries: List[Tuple[str, ...]] = [
            ("alpha", "beta"),
            ("gamma",),
            ("beta", "delta", "alpha"),
            ("delta", "gamma"),
            ("epsilon", "alpha"),
        ]
        for terms in queries:
            protocol.register_query(issuer, terms)
        hashes = {t: protocol.term_hash(t) for t in index_terms}

        batched, failed, __ = protocol.poll_batch(owner_id, [dict.fromkeys(index_terms, -1)])
        assert failed == set()
        assert set(batched) == {(0, t) for t in index_terms}
        total = 0
        for term in index_terms:
            singles, latest = protocol.poll_term(owner_id, term, hashes, -1)
            assert batched[0, term] == (singles, latest)
            total += len(singles)
        # §3 closest-hash dedup: each registered query comes back from
        # exactly one of the index terms it contains.
        assert total == len(queries)

    def test_poll_batch_of_unindexed_term_reports_cursor_unchanged(self) -> None:
        ring = make_ring()
        protocol = IndexingProtocol(ring, query_cache_size=32)
        owner_id = ring.live_ids[0]
        results, failed, __ = protocol.poll_batch(owner_id, [{"ghost": 7}])
        assert failed == set()
        assert results == {(0, "ghost"): ([], 7)}
