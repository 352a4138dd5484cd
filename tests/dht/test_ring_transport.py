"""Tests for the ring ↔ transport integration.

The contract under test: a ring over the default perfect transport
behaves bit-identically to the pre-transport simulator, while a lossy
transport subjects every send and every lookup hop to latency, loss,
and retry semantics — surfacing exhausted retries as
:class:`MessageDroppedError` (a :class:`NodeFailedError` subclass).
"""

from __future__ import annotations

import pytest

from repro.config import ChordConfig, SpriteConfig
from repro.core import SpriteSystem
from repro.corpus import Corpus, Document, Query
from repro.dht.messages import Message, MessageKind
from repro.dht.ring import ChordRing
from repro.exceptions import MessageDroppedError, NodeFailedError
from repro.net import (
    ConstantLatency,
    DeliveryPolicy,
    FaultInjector,
    LossyTransport,
    PerfectTransport,
    TraceLog,
)
from repro.text.analyzer import DEFAULT_ANALYZER

CONFIG = ChordConfig(num_peers=24, id_bits=16, seed=7)


def lossless_transport(**kwargs) -> LossyTransport:
    defaults = dict(
        latency=ConstantLatency(ms=10.0),
        policy=DeliveryPolicy(jitter_ms=0.0),
        seed=3,
    )
    defaults.update(kwargs)
    return LossyTransport(**defaults)


class TestPerfectDefault:
    def test_default_transport_is_perfect(self) -> None:
        assert isinstance(ChordRing(CONFIG).transport, PerfectTransport)

    def test_lookup_results_identical_with_explicit_perfect(self) -> None:
        plain = ChordRing(CONFIG)
        explicit = ChordRing(CONFIG, transport=PerfectTransport())
        keys = [i * 977 % plain.space.size for i in range(50)]
        for key in keys:
            a = plain.lookup(plain.live_ids[0], key)
            b = explicit.lookup(explicit.live_ids[0], key)
            assert (a.node_id, a.hops, a.path) == (b.node_id, b.hops, b.path)
        assert plain.stats.summary() == explicit.stats.summary()

    def test_send_to_dead_node_still_raises_node_failed(self) -> None:
        ring = ChordRing(CONFIG)
        victim = ring.live_ids[0]
        ring.fail(victim)
        with pytest.raises(NodeFailedError):
            ring.send(Message(MessageKind.HEARTBEAT, src=ring.live_ids[0], dst=victim))

    def test_clock_never_advances(self) -> None:
        ring = ChordRing(CONFIG)
        for i in range(20):
            ring.lookup(ring.live_ids[0], i * 31 % ring.space.size)
        assert ring.transport.clock.now == 0.0


@pytest.fixture()
def sprite(fast_sprite_config: SpriteConfig) -> SpriteSystem:
    topics = ["chord ring lookup", "retrieval ranking index", "churn failure replica"]
    corpus = Corpus(
        Document(f"d{i}", f"{topics[i % 3]} {topics[i % 3]} filler{i} pad{i}")
        for i in range(12)
    )
    system = SpriteSystem(
        corpus,
        sprite_config=fast_sprite_config,
        chord_config=ChordConfig(num_peers=24, id_bits=32, seed=61),
    )
    system.share_corpus()
    return system


def q(terms: str) -> Query:
    return Query("q1", tuple(DEFAULT_ANALYZER.analyze_query(terms)))


class TestPerfectWithTrace:
    def test_hops_and_sends_are_traced(self) -> None:
        trace = TraceLog()
        ring = ChordRing(CONFIG, transport=PerfectTransport(trace=trace))
        result = ring.lookup(ring.live_ids[0], 1234 % ring.space.size)
        ring.send(Message(MessageKind.HEARTBEAT, src=ring.live_ids[0],
                          dst=result.node_id))
        summary = trace.rollup()
        assert summary.messages == result.hops + 1
        assert summary.delivered == summary.messages

    def test_traced_lookup_matches_untraced(self) -> None:
        plain = ChordRing(CONFIG)
        traced = ChordRing(CONFIG, transport=PerfectTransport(trace=TraceLog()))
        for i in range(30):
            key = i * 4421 % plain.space.size
            a = plain.lookup(plain.live_ids[0], key)
            b = traced.lookup(traced.live_ids[0], key)
            assert (a.node_id, a.hops, a.path) == (b.node_id, b.hops, b.path)


class TestCaptureMessages:
    """A :class:`TraceLog` attached to a system's perfect transport
    captures a whole search's traffic without changing its ranking."""

    def test_capture_records_message_kinds_and_destinations(self, sprite) -> None:
        log = TraceLog()
        sprite.ring.transport.trace = log
        sprite.search(q("chord ring"), cache=False)
        assert len(log) > 0
        assert "search_term" in {trace.kind for trace in log.records}
        for trace in log.records:
            assert isinstance(trace.kind, str)
            assert trace.dst in sprite.ring.nodes

    def test_capture_does_not_change_results(self, sprite) -> None:
        """Attaching a trace log makes the perfect transport deliver per
        hop; a system-level search must rank exactly as without it."""
        baseline = sprite.search(q("retrieval ranking"), cache=False)
        sprite.ring.transport.trace = TraceLog()
        assert sprite.ring.transport.active
        captured = sprite.search(q("retrieval ranking"), cache=False)
        assert [(a.doc_id, a.score) for a in baseline] == [
            (a.doc_id, a.score) for a in captured
        ]


class TestLossyIntegration:
    def test_zero_loss_same_routing_as_perfect(self) -> None:
        perfect = ChordRing(CONFIG)
        lossy = ChordRing(CONFIG, transport=lossless_transport())
        for i in range(30):
            key = i * 131 % perfect.space.size
            a = perfect.lookup(perfect.live_ids[0], key)
            b = lossy.lookup(lossy.live_ids[0], key)
            assert (a.node_id, a.hops, a.path) == (b.node_id, b.hops, b.path)

    def test_lookup_hops_advance_the_clock(self) -> None:
        ring = ChordRing(CONFIG, transport=lossless_transport())
        result = ring.lookup(ring.live_ids[0], 9999 % ring.space.size)
        assert result.hops > 0
        assert ring.transport.clock.now == pytest.approx(result.hops * 10.0)

    def test_total_loss_raises_message_dropped(self) -> None:
        transport = lossless_transport(
            faults=FaultInjector(drop_probability=1.0),
            policy=DeliveryPolicy(max_retries=1, jitter_ms=0.0),
        )
        ring = ChordRing(CONFIG, transport=transport)
        start = ring.live_ids[0]
        dst = ring.live_ids[1]
        with pytest.raises(MessageDroppedError):
            ring.send(Message(MessageKind.HEARTBEAT, src=start, dst=dst))

    def test_message_dropped_is_a_node_failed_error(self) -> None:
        # Callers that degrade on NodeFailedError (query processor,
        # maintenance) handle transport loss without modification.
        assert issubclass(MessageDroppedError, NodeFailedError)

    def test_dropped_send_not_counted_in_stats(self) -> None:
        transport = lossless_transport(
            faults=FaultInjector(drop_probability=1.0),
            policy=DeliveryPolicy(max_retries=0, jitter_ms=0.0),
        )
        ring = ChordRing(CONFIG, transport=transport)
        with pytest.raises(MessageDroppedError):
            ring.send(Message(MessageKind.HEARTBEAT, src=ring.live_ids[0],
                              dst=ring.live_ids[1]))
        assert ring.stats.total_messages == 0
        assert transport.trace.rollup().dropped == 1

    def test_multi_hop_lookup_can_fail_midway(self) -> None:
        transport = lossless_transport(
            faults=FaultInjector(drop_probability=1.0),
            policy=DeliveryPolicy(max_retries=0, jitter_ms=0.0),
        )
        ring = ChordRing(CONFIG, transport=transport)
        start = ring.live_ids[0]
        # Find a key whose lookup needs at least one hop.
        key = next(
            k
            for k in range(0, ring.space.size, 997)
            if not ring.node(start).owns(k)
        )
        with pytest.raises(MessageDroppedError):
            ring.lookup(start, key)

    def test_same_seed_rings_identical_traces(self) -> None:
        def run() -> str:
            ring = ChordRing(
                CONFIG,
                transport=lossless_transport(
                    faults=FaultInjector(drop_probability=0.2)
                ),
            )
            for i in range(40):
                try:
                    ring.lookup(ring.live_ids[i % ring.num_live],
                                i * 271 % ring.space.size)
                except NodeFailedError:
                    pass
            return ring.transport.trace.summary_table()

        assert run() == run()
