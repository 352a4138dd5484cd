"""Tests for the capture-at-dispatch / timeline-replay bridge.

The contract under test (DESIGN.md §15): running an operation under
:meth:`ChordRing.capture_messages` must not change what it computes —
only observe which messages it sent — and the captured timeline must
replay through the event-driven scheduler to yield a completion time.
"""

from __future__ import annotations

import pytest

from repro.config import ChordConfig, SpriteConfig
from repro.core import SpriteSystem
from repro.core.inflight import CapturedOp, capture_query
from repro.corpus import Corpus, Document, Query
from repro.net import Scheduler, replay_timeline

CHORD = ChordConfig(num_peers=24, id_bits=32, seed=61)


@pytest.fixture()
def corpus() -> Corpus:
    docs = []
    for i in range(12):
        topic = [
            "chord ring lookup",
            "retrieval ranking index",
            "churn failure replica",
        ][i % 3]
        docs.append(Document(f"d{i}", f"{topic} {topic} filler{i} pad{i}"))
    return Corpus(docs)


@pytest.fixture()
def sprite(corpus: Corpus, fast_sprite_config: SpriteConfig) -> SpriteSystem:
    system = SpriteSystem(
        corpus, sprite_config=fast_sprite_config, chord_config=CHORD
    )
    system.share_corpus()
    return system


def q(terms: str, qid: str = "q1") -> Query:
    from repro.text.analyzer import DEFAULT_ANALYZER

    return Query(qid, tuple(DEFAULT_ANALYZER.analyze_query(terms)))


class TestCaptureMessages:
    def test_capture_records_message_kinds_and_destinations(self, sprite) -> None:
        with sprite.ring.capture_messages() as log:
            sprite.search(q("chord ring"), cache=False)
        assert len(log) > 0
        for trace in log.records:
            assert isinstance(trace.kind, str)
            assert trace.dst in sprite.ring.nodes

    def test_capture_does_not_change_results(self, sprite) -> None:
        """Attaching the capture log activates per-hop transport
        delivery; rankings must be unaffected."""
        baseline = sprite.search(q("retrieval ranking"), cache=False)
        with sprite.ring.capture_messages():
            captured = sprite.search(q("retrieval ranking"), cache=False)
        assert [(a.doc_id, a.score) for a in baseline] == [
            (a.doc_id, a.score) for a in captured
        ]

    def test_capture_detaches_on_exit(self, sprite) -> None:
        assert sprite.ring.transport.trace is None
        with sprite.ring.capture_messages():
            assert sprite.ring.transport.active
        assert sprite.ring.transport.trace is None
        assert not sprite.ring.transport.active

    def test_capture_detaches_on_error(self, sprite) -> None:
        with pytest.raises(RuntimeError):
            with sprite.ring.capture_messages():
                raise RuntimeError("boom")
        assert sprite.ring.transport.trace is None

    def test_prior_trace_log_still_sees_captured_traffic(self, sprite) -> None:
        from repro.net import TraceLog

        outer = TraceLog()
        sprite.ring.transport.trace = outer
        try:
            with sprite.ring.capture_messages() as inner:
                sprite.search(q("chord ring"), cache=False)
            assert len(inner) > 0
            assert outer.records[-len(inner):] == inner.records
            assert sprite.ring.transport.trace is outer
        finally:
            sprite.ring.transport.trace = None

    def test_nested_captures_compose(self, sprite) -> None:
        with sprite.ring.capture_messages() as outer:
            with sprite.ring.capture_messages() as inner:
                sprite.search(q("chord ring"), cache=False)
            assert outer.records == inner.records


class TestCaptureQuery:
    def test_result_matches_plain_execute(self, sprite) -> None:
        ranked, execution = sprite.execute(q("churn failure"), cache=False)
        op = capture_query(sprite, q("churn failure"), cache=False)
        cap_ranked, cap_execution = op.result
        assert [(a.doc_id, a.score) for a in ranked] == [
            (a.doc_id, a.score) for a in cap_ranked
        ]
        assert op.label == "query:q1"
        assert op.messages == len(op.timeline) > 0

    def test_timeline_message_count_covers_terms_contacted(self, sprite) -> None:
        op = capture_query(sprite, q("retrieval ranking"), cache=False)
        kinds = {kind for kind, _dst in op.timeline}
        # At minimum the query path sent term searches (plus routing).
        assert "search_term" in kinds or "query_batch" in kinds

    def test_execute_captured_facade(self, sprite) -> None:
        ranked, execution, op = sprite.execute_captured(
            q("chord ring"), cache=False
        )
        assert isinstance(op, CapturedOp)
        assert op.result[0] is ranked
        assert op.result[1] is execution


def dispatch(sched: Scheduler, op: CapturedOp):
    """Replay a captured timeline the way the concurrency harness does."""
    return sched.spawn(replay_timeline(op.timeline), label=op.label)


class TestDispatch:
    def test_dispatched_timeline_completes_with_latency(self, sprite) -> None:
        op = capture_query(sprite, q("chord ring"), cache=False)
        sched = Scheduler(service_time_ms=0.25)
        future = dispatch(sched, op)
        sched.run()
        assert future.done
        assert future.latency_ms > 0.0
        assert len(future.receipts) == op.messages

    def test_concurrent_queries_share_peer_queues(self, sprite) -> None:
        """Two identical captured queries hammer the same peers; the
        second must observe queueing the first did not."""
        op = capture_query(sprite, q("chord ring"), cache=False)
        sched = Scheduler(service_time_ms=2.0)
        first = dispatch(sched, op)
        second = dispatch(sched, op)
        sched.run()
        assert second.latency_ms > first.latency_ms
