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


class TestRecording:
    def test_totals(self) -> None:
        stats = NetworkStats()
        stats.record(msg(size=10, hops=2))
        stats.record(msg(size=5, hops=1))
        assert stats.total_messages == 2
        assert stats.total_bytes == 15
        assert stats.total_hops == 3

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


class TestReset:
    def test_reset_clears_everything(self) -> None:
        stats = NetworkStats()
        stats.record(msg())
        stats.record_lookup(2)
        stats.reset()
        assert stats.total_messages == 0
        assert stats.lookup_hop_histogram == {}


class TestSummary:
    def test_summary_structure(self) -> None:
        stats = NetworkStats()
        stats.record(msg(MessageKind.PUBLISH_TERM, size=11, hops=3))
        summary = stats.summary()
        assert summary["publish_term"] == {"messages": 1, "bytes": 11, "hops": 3}


class TestKindStats:
    def test_merge(self) -> None:
        merged = KindStats(1, 10, 2).merged_with(KindStats(2, 20, 3))
        assert (merged.messages, merged.bytes, merged.hops) == (3, 30, 5)

    def test_merge_with_zero_is_identity(self) -> None:
        base = KindStats(4, 40, 8)
        merged = base.merged_with(KindStats())
        assert merged == base

    def test_merge_is_commutative(self) -> None:
        a, b = KindStats(1, 2, 3), KindStats(10, 20, 30)
        assert a.merged_with(b) == b.merged_with(a)

    def test_merge_returns_new_object(self) -> None:
        a, b = KindStats(1, 2, 3), KindStats(1, 1, 1)
        merged = a.merged_with(b)
        assert merged is not a and merged is not b
        assert (a.messages, b.messages) == (1, 1)  # inputs untouched

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
        assert stats.total_hops == sum(s["hops"] for s in summary.values())

    def test_breakdown_reconciles_after_lookups_too(self) -> None:
        stats = NetworkStats()
        stats.record(msg(MessageKind.POLL_QUERIES, size=8, hops=2))
        stats.record_lookup(5)
        assert stats.total_messages == 2
        assert stats.total_hops == 7
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
        merged = snap[MessageKind.SEARCH_TERM].merged_with(
            delta[MessageKind.SEARCH_TERM]
        )
        assert merged == stats.kind(MessageKind.SEARCH_TERM)


class TestCategorySummary:
    def test_folds_kinds_into_categories(self) -> None:
        stats = NetworkStats()
        stats.record(msg(MessageKind.PUBLISH_TERM, size=10, hops=1))
        stats.record(msg(MessageKind.PUBLISH_BATCH, size=40, hops=2))
        stats.record(msg(MessageKind.POLL_BATCH, size=30, hops=1))
        stats.record(msg(MessageKind.SEARCH_TERM, size=20, hops=3))
        stats.record(msg(MessageKind.HEARTBEAT, size=5, hops=0))
        summary = stats.category_summary()
        assert set(summary) == {"write", "query", "maintenance"}
        assert summary["write"]["messages"] == 3
        assert summary["write"]["bytes"] == 80
        assert summary["query"]["messages"] == 1
        assert summary["maintenance"]["messages"] == 1

    def test_only_categories_with_traffic_appear(self) -> None:
        stats = NetworkStats()
        assert stats.category_summary() == {}
        stats.record(msg(MessageKind.LOOKUP, size=1, hops=1))
        assert list(stats.category_summary()) == ["routing"]

    def test_category_totals_reconcile_with_kind_totals(self) -> None:
        stats = NetworkStats()
        for kind in (
            MessageKind.PUBLISH_BATCH,
            MessageKind.UNPUBLISH_BATCH,
            MessageKind.POSTINGS,
            MessageKind.REPLICATE,
            MessageKind.LOOKUP,
        ):
            stats.record(msg(kind, size=10, hops=2))
        by_category = stats.category_summary()
        assert (
            sum(entry["messages"] for entry in by_category.values())
            == stats.total_messages
        )
        assert (
            sum(entry["bytes"] for entry in by_category.values())
            == stats.total_bytes
        )


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
#: record a lookup, take a snapshot, or reset.
_CALLS = st.one_of(
    st.tuples(
        st.just("record"),
        st.sampled_from(list(MessageKind)),
        st.integers(0, 5000),
        st.integers(0, 40),
    ),
    st.tuples(st.just("lookup"), st.integers(0, 40)),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("reset")),
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
    """Every readout equals what the calls since the last reset add up
    to: a lookup is a LOOKUP message of no bytes, kinds appear in the
    order first recorded, and a snapshot is the readout of its moment,
    untouched by what comes after."""
    stats = NetworkStats()
    records: list = []  # (kind, bytes, hops) since the last reset
    lookups: list = []  # hops of each lookup since the last reset
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
        elif call[0] == "snapshot":
            seen = list(dict.fromkeys(kind for kind, __, __ in records))
            snapshots.append((stats.snapshot(), _sums(records, seen)))
        else:
            stats.reset()
            records.clear()
            lookups.clear()

    seen = list(dict.fromkeys(kind for kind, __, __ in records))
    sums = _sums(records, seen)
    for kind in MessageKind:
        row = stats.kind(kind)
        assert (row.messages, row.bytes, row.hops) == sums.get(kind, (0, 0, 0))
    assert stats.total_messages == len(records)
    assert stats.total_bytes == sum(size for __, size, __ in records)
    assert stats.total_hops == sum(hops for __, __, hops in records)
    assert stats.summary() == _folded(sums, lambda kind: kind.value)
    assert list(stats.summary()) == sorted(kind.value for kind in seen)
    assert stats.category_summary() == _folded(sums, lambda kind: kind.category)
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
