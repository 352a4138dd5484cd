"""Tests for network-cost accounting."""

from __future__ import annotations

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
        stats = KindStats()
        stats.record(msg(size=10, hops=2))
        stats.record(msg(size=5, hops=1))
        assert (stats.messages, stats.bytes, stats.hops) == (2, 15, 3)


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
