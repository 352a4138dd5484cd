"""Tests for network-cost accounting."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.messages import Message, MessageKind
from repro.dht.stats import KindStats, NetworkStats


def msg(kind: MessageKind = MessageKind.SEARCH_TERM, size: int = 10, hops: int = 2) -> Message:
    return Message(kind, src=1, dst=2, size_bytes=size, hops=hops)


def total_hops(stats: NetworkStats) -> int:
    return sum(row.hops for row in stats.snapshot().values())


class TestRecording:
    def test_totals(self) -> None:
        stats = NetworkStats()
        stats.record(msg(size=10, hops=2))
        stats.record(msg(size=5, hops=1))
        assert stats.total_messages == 2
        assert stats.total_bytes == 15
        assert total_hops(stats) == 3

    def test_per_kind_isolation(self) -> None:
        stats = NetworkStats()
        stats.record(msg(MessageKind.SEARCH_TERM))
        stats.record(msg(MessageKind.PUBLISH_TERM))
        assert stats.kind(MessageKind.SEARCH_TERM).messages == 1
        assert stats.kind(MessageKind.PUBLISH_TERM).messages == 1
        assert stats.kind(MessageKind.REPLICATE).messages == 0

    def test_unknown_kind_returns_zeros(self) -> None:
        empty = NetworkStats().kind(MessageKind.HEARTBEAT)
        assert (empty.messages, empty.bytes, empty.hops) == (0, 0, 0)


class TestLookups:
    def test_lookup_hop_tracking(self) -> None:
        stats = NetworkStats()
        stats.record_lookup(3)
        stats.record_lookup(5)
        assert stats.lookup_hop_histogram == {3: 1, 5: 1}
        assert stats.mean_lookup_hops == 4.0
        stats.lookup_hop_histogram[99] += 1  # a copy: the caller's to subtract from
        assert stats.lookup_hop_histogram == {3: 1, 5: 1}

    def test_mean_with_no_lookups(self) -> None:
        assert NetworkStats().mean_lookup_hops == 0.0

    def test_lookup_counted_as_messages(self) -> None:
        stats = NetworkStats()
        stats.record_lookup(4)
        assert stats.kind(MessageKind.LOOKUP).messages == 1
        assert stats.kind(MessageKind.LOOKUP).hops == 4


class TestSnapshots:
    def test_delta_since(self) -> None:
        stats = NetworkStats()
        stats.record(msg(size=10, hops=1))
        snap = stats.snapshot()
        stats.record(msg(size=7, hops=2))
        delta = stats.delta_since(snap)
        assert delta[MessageKind.SEARCH_TERM].messages == 1
        assert delta[MessageKind.SEARCH_TERM].bytes == 7
        assert delta[MessageKind.SEARCH_TERM].hops == 2

    def test_delta_empty_when_nothing_happened(self) -> None:
        stats = NetworkStats()
        stats.record(msg())
        snap = stats.snapshot()
        assert stats.delta_since(snap) == {}

    def test_snapshot_is_isolated_copy(self) -> None:
        stats = NetworkStats()
        stats.record(msg())
        snap = stats.snapshot()
        stats.record(msg())
        assert snap[MessageKind.SEARCH_TERM].messages == 1


class TestSummary:
    def test_summary_structure(self) -> None:
        stats = NetworkStats()
        stats.record(msg(MessageKind.PUBLISH_TERM, size=11, hops=3))
        summary = stats.summary()
        assert summary["publish_term"] == {"messages": 1, "bytes": 11, "hops": 3}


class TestKindStats:
    def test_record_accumulates(self) -> None:
        """A kind's row accumulates in place: ``NetworkStats.record`` is
        the one writer, ``kind()`` hands out the live row."""
        stats = NetworkStats()
        stats.record(msg(size=10, hops=2))
        row = stats.kind(MessageKind.SEARCH_TERM)
        stats.record(msg(size=5, hops=1))
        assert (row.messages, row.bytes, row.hops) == (2, 15, 3)
        assert row is stats.kind(MessageKind.SEARCH_TERM)


class TestPerKindBreakdown:
    """The per-kind breakdown must always reconcile with the totals."""

    def test_totals_equal_sum_over_kinds(self) -> None:
        stats = NetworkStats()
        stats.record(msg(MessageKind.SEARCH_TERM, size=10, hops=2))
        stats.record(msg(MessageKind.SEARCH_TERM, size=4, hops=1))
        stats.record(msg(MessageKind.PUBLISH_TERM, size=32, hops=3))
        stats.record(msg(MessageKind.POSTINGS, size=100, hops=1))
        summary = stats.summary()
        assert stats.total_messages == sum(s["messages"] for s in summary.values())
        assert stats.total_bytes == sum(s["bytes"] for s in summary.values())
        assert total_hops(stats) == sum(s["hops"] for s in summary.values())

    def test_breakdown_reconciles_after_lookups_too(self) -> None:
        stats = NetworkStats()
        stats.record(msg(MessageKind.POLL_QUERIES, size=8, hops=2))
        stats.record_lookup(5)
        assert stats.total_messages == 2
        assert total_hops(stats) == 7
        assert stats.kind(MessageKind.LOOKUP).bytes == 0

    def test_summary_sorted_by_kind_value(self) -> None:
        stats = NetworkStats()
        stats.record(msg(MessageKind.SEARCH_TERM))
        stats.record(msg(MessageKind.HEARTBEAT))
        stats.record(msg(MessageKind.PUBLISH_TERM))
        assert list(stats.summary()) == sorted(stats.summary())

    def test_merged_snapshot_matches_live_totals(self) -> None:
        stats = NetworkStats()
        stats.record(msg(MessageKind.SEARCH_TERM, size=10, hops=1))
        snap = stats.snapshot()
        stats.record(msg(MessageKind.SEARCH_TERM, size=7, hops=2))
        delta = stats.delta_since(snap)
        then, since = snap[MessageKind.SEARCH_TERM], delta[MessageKind.SEARCH_TERM]
        merged = KindStats(
            then.messages + since.messages, then.bytes + since.bytes, then.hops + since.hops
        )
        assert merged == stats.kind(MessageKind.SEARCH_TERM)


class TestRowsAreReachedByOrdinal:
    """Recording runs once per delivered message and once per lookup, so
    it indexes a list by ``kind.ordinal`` and never hashes the enum."""

    @pytest.mark.parametrize("transport", ["perfect", "lossy"])
    def test_a_query_records_without_hashing_a_kind(self, monkeypatch, transport) -> None:
        from repro.config import ChordConfig, SpriteConfig
        from repro.core import SpriteSystem
        from repro.corpus import Corpus, Document, Query
        from repro.net import LossyTransport, PerfectTransport

        corpus = Corpus(
            Document(f"d{i}", f"chord chord ring ring lookup filler{i} pad{i}")
            for i in range(8)
        )
        sprite = SpriteSystem(
            corpus,
            sprite_config=SpriteConfig(initial_terms=3, query_cache_size=16),
            chord_config=ChordConfig(num_peers=16, id_bits=32, seed=5),
            transport=PerfectTransport() if transport == "perfect" else LossyTransport(seed=3),
        )
        sprite.share_corpus()
        stats = sprite.ring.stats
        before = (stats.total_messages, sum(stats.lookup_hop_histogram.values()))

        def refuse(kind):
            raise AssertionError(f"hashed {kind!r}")

        with monkeypatch.context() as patch:
            patch.setattr(MessageKind, "__hash__", refuse)
            with pytest.raises(AssertionError):
                hash(MessageKind.SEARCH_TERM)
            ranked = sprite.search(Query("q", ("chord", "ring", "nothing")), cache=True)
        after = (stats.total_messages, sum(stats.lookup_hop_histogram.values()))
        assert len(ranked) > 0
        assert after[0] > before[0] and after[1] > before[1]
        assert stats.kind(MessageKind.SEARCH_TERM).messages > 0
        assert stats.kind(MessageKind.POSTINGS).messages > 0


#: One call on a :class:`NetworkStats`: record a message of a kind,
#: record a lookup, or take a snapshot.
_CALLS = st.one_of(
    st.tuples(
        st.just("record"),
        st.sampled_from(list(MessageKind)),
        st.integers(0, 5000),
        st.integers(0, 40),
    ),
    st.tuples(st.just("lookup"), st.integers(0, 40)),
    st.tuples(st.just("snapshot")),
)


def _sums(records, kinds):
    """``kind → (messages, bytes, hops)`` over *records*, for *kinds*."""
    return {
        kind: (
            sum(1 for k, __, __ in records if k is kind),
            sum(size for k, size, __ in records if k is kind),
            sum(hops for k, __, hops in records if k is kind),
        )
        for kind in kinds
    }


def _folded(sums, key):
    out = {}
    for kind, (messages, nbytes, hops) in sums.items():
        m, b, h = out.get(key(kind), (0, 0, 0))
        out[key(kind)] = (m + messages, b + nbytes, h + hops)
    return {
        name: {"messages": m, "bytes": b, "hops": h} for name, (m, b, h) in sorted(out.items())
    }


@settings(max_examples=150, deadline=None)
@given(st.lists(_CALLS, max_size=60))
def test_every_view_is_a_sum_over_the_recorded_stream(calls) -> None:
    """Every readout equals what the calls add up to: a lookup is a LOOKUP message of no bytes, kinds appear in the
    order first recorded, and a snapshot is the readout of its moment,
    untouched by what comes after."""
    stats = NetworkStats()
    records: list = []  # (kind, bytes, hops)
    lookups: list = []  # hops of each lookup
    snapshots: list = []  # (snapshot, sums when it was taken)
    for call in calls:
        if call[0] == "record":
            __, kind, size, hops = call
            stats.record(Message(kind, 1, 2, size, hops))
            records.append((kind, size, hops))
        elif call[0] == "lookup":
            stats.record_lookup(call[1])
            records.append((MessageKind.LOOKUP, 0, call[1]))
            lookups.append(call[1])
        else:
            seen = list(dict.fromkeys(kind for kind, __, __ in records))
            snapshots.append((stats.snapshot(), _sums(records, seen)))

    seen = list(dict.fromkeys(kind for kind, __, __ in records))
    sums = _sums(records, seen)
    for kind in MessageKind:
        row = stats.kind(kind)
        assert (row.messages, row.bytes, row.hops) == sums.get(kind, (0, 0, 0))
    assert stats.total_messages == len(records)
    assert stats.total_bytes == sum(size for __, size, __ in records)
    assert total_hops(stats) == sum(hops for __, __, hops in records)
    assert stats.summary() == _folded(sums, lambda kind: kind.value)
    assert list(stats.summary()) == sorted(kind.value for kind in seen)
    assert stats.lookup_hop_histogram == Counter(lookups)
    assert stats.mean_lookup_hops == (sum(lookups) / len(lookups) if lookups else 0.0)

    snapshot = stats.snapshot()
    assert list(snapshot) == seen
    assert {k: (s.messages, s.bytes, s.hops) for k, s in snapshot.items()} == sums
    for then, then_sums in snapshots:
        assert {k: (s.messages, s.bytes, s.hops) for k, s in then.items()} == then_sums
        delta = stats.delta_since(then)
        expected = {}
        for kind in seen:
            now_row, then_row = sums[kind], then_sums.get(kind, (0, 0, 0))
            diff = tuple(a - b for a, b in zip(now_row, then_row))
            if any(diff):
                expected[kind] = diff
        assert list(delta) == list(expected)
        assert {k: (s.messages, s.bytes, s.hops) for k, s in delta.items()} == expected
