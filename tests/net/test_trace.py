"""Tests for message tracing and rollup reports."""

from __future__ import annotations

import pytest

from repro.net import (
    DELIVERED,
    DEST_DOWN,
    DROPPED,
    MessageTrace,
    TraceLog,
    percentile,
)


def trace(
    kind: str = "search_term",
    attempts: int = 1,
    latency: float = 50.0,
    outcome: str = DELIVERED,
) -> MessageTrace:
    return MessageTrace(
        kind=kind, src=1, dst=2, attempts=attempts, latency_ms=latency, outcome=outcome
    )


class TestPercentile:
    def test_empty_is_zero(self) -> None:
        assert percentile([], 50) == 0.0

    def test_empty_is_zero_at_every_quantile(self) -> None:
        """The documented 0.0-on-empty behaviour holds across the whole
        q range — including the boundaries and the fractional p99.9 the
        concurrency reports use — so reports can always print."""
        for q in (0.0, 0.1, 50, 99, 99.9, 100.0):
            assert percentile([], q) == 0.0

    def test_empty_still_validates_q(self) -> None:
        """An out-of-range q is rejected even when the sample set is
        empty — the guard runs before the empty-sample short-circuit."""
        with pytest.raises(ValueError):
            percentile([], -0.1)
        with pytest.raises(ValueError):
            percentile([], 100.1)

    def test_fractional_quantile_nearest_rank(self) -> None:
        samples = [float(v) for v in range(1, 2001)]  # 1..2000
        assert percentile(samples, 99.9) == 1999.0
        assert percentile([5.0, 6.0], 99.9) == 6.0

    def test_single_sample(self) -> None:
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 99) == 7.0

    def test_nearest_rank(self) -> None:
        samples = [float(v) for v in range(1, 101)]  # 1..100
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 90) == 90.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0

    def test_order_independent(self) -> None:
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_invalid_q_rejected(self) -> None:
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestRollup:
    def test_counts_by_outcome(self) -> None:
        log = TraceLog()
        log.record(trace(outcome=DELIVERED))
        log.record(trace(outcome=DROPPED, attempts=4))
        log.record(trace(outcome=DEST_DOWN, attempts=4))
        summary = log.rollup()
        assert summary.messages == 3
        assert summary.delivered == 1
        assert summary.dropped == 1
        assert summary.dest_down == 1
        assert summary.attempts == 9
        assert summary.retries == 6

    def test_latency_percentiles_delivered_only(self) -> None:
        log = TraceLog()
        for latency in (10.0, 20.0, 30.0):
            log.record(trace(latency=latency))
        log.record(trace(outcome=DROPPED, latency=9999.0))
        summary = log.rollup()
        assert summary.latency_p50_ms == 20.0
        assert summary.latency_p99_ms == 30.0
        assert summary.latency_p99_9_ms == 30.0
        assert summary.latency_mean_ms == pytest.approx(20.0)

    def test_p99_9_separates_from_p99_at_scale(self) -> None:
        """With ≳1000 delivered samples the deep-tail readout picks a
        strictly later rank than p99 — the whole point of reporting it."""
        log = TraceLog()
        for latency in range(1, 2001):  # 1..2000 ms
            log.record(trace(latency=float(latency)))
        summary = log.rollup()
        assert summary.latency_p99_ms == 1980.0
        assert summary.latency_p99_9_ms == 1999.0

    def test_kind_filter(self) -> None:
        log = TraceLog()
        log.record(trace(kind="lookup"))
        log.record(trace(kind="search_term"))
        assert log.rollup(kind="lookup").messages == 1
        assert log.rollup().messages == 2

    def test_by_kind_breakdown_sorted(self) -> None:
        log = TraceLog()
        log.record(trace(kind="search_term"))
        log.record(trace(kind="lookup"))
        log.record(trace(kind="lookup"))
        assert log.rollup().by_kind == (("lookup", 2), ("search_term", 1))

    def test_delivery_ratio(self) -> None:
        log = TraceLog()
        assert log.rollup().delivery_ratio == 1.0
        log.record(trace())
        log.record(trace(outcome=DROPPED))
        assert log.rollup().delivery_ratio == 0.5

    def test_filtered_by_outcome(self) -> None:
        log = TraceLog()
        log.record(trace())
        log.record(trace(outcome=DROPPED))
        assert len(log.filtered(outcome=DROPPED)) == 1

    def test_retries_property_on_trace(self) -> None:
        assert trace(attempts=3).retries == 2


class TestHopRollup:
    """The per-lookup hop columns (ISSUE 10 satellite): hop samples are
    recorded alongside message records and roll up into the summary's
    ``hops_mean`` / ``hops_p99`` / ``lookup_messages`` fields."""

    def test_defaults_are_zero_without_samples(self) -> None:
        summary = TraceLog().rollup()
        assert summary.hops_mean == 0.0
        assert summary.hops_p99 == 0.0
        assert summary.lookup_messages == 0

    def test_hop_samples_roll_up(self) -> None:
        log = TraceLog()
        for hops in (2, 4, 6):
            log.record_hops(hops)
        for __ in range(12):  # the per-hop wire messages of those lookups
            log.record(trace(kind="lookup"))
        summary = log.rollup()
        assert summary.hops_mean == pytest.approx(4.0)
        assert summary.hops_p99 == 6.0
        assert summary.lookup_messages == 12

    def test_hop_fields_attach_to_lookup_kind_rollup_only(self) -> None:
        log = TraceLog()
        log.record_hops(3)
        log.record(trace(kind="lookup"))
        log.record(trace(kind="search_term"))
        assert log.rollup(kind="lookup").hops_mean == pytest.approx(3.0)
        assert log.rollup(kind="search_term").hops_mean == 0.0

    def test_hop_fields_attach_to_routing_category(self) -> None:
        log = TraceLog()
        log.record_hops(5)
        log.record(trace(kind="lookup"))
        log.record(trace(kind="publish_batch"))
        rollup = log.category_rollup()
        assert rollup["routing"].hops_mean == pytest.approx(5.0)
        assert rollup["write"].hops_mean == 0.0

    def test_hop_samples_property_copies(self) -> None:
        log = TraceLog()
        log.record_hops(2)
        samples = log.hop_histogram
        samples[99] += 1
        assert log.hop_histogram == {2: 1}

    def test_clear_drops_hop_samples(self) -> None:
        log = TraceLog()
        log.record_hops(4)
        log.clear()
        assert log.hop_histogram == {}
        assert log.rollup().hops_mean == 0.0


class TestSummaryTable:
    def test_deterministic_and_complete(self) -> None:
        def build() -> TraceLog:
            log = TraceLog()
            log.record(trace(kind="lookup", latency=12.345))
            log.record(trace(kind="search_term", attempts=2, latency=400.0,
                             outcome=DROPPED))
            return log

        table_a = build().summary_table()
        table_b = build().summary_table()
        assert table_a == table_b
        assert "messages   2" in table_a
        assert "retries    1" in table_a
        assert "kind lookup" in table_a
        assert "p99.9=" in table_a

    def test_clear(self) -> None:
        log = TraceLog()
        log.record(trace())
        log.clear()
        assert len(log) == 0
        assert log.rollup().messages == 0


class TestCategoryRollup:
    def test_buckets_by_traffic_category(self) -> None:
        log = TraceLog()
        log.record(trace(kind="publish_batch"))
        log.record(trace(kind="poll_batch"))
        log.record(trace(kind="search_term"))
        log.record(trace(kind="lookup"))
        log.record(trace(kind="made_up_kind"))
        rollup = log.category_rollup()
        assert set(rollup) == {"write", "query", "routing", "other"}
        assert rollup["write"].messages == 2
        assert rollup["query"].messages == 1
        assert rollup["other"].messages == 1

    def test_category_messages_sum_to_total(self) -> None:
        log = TraceLog()
        for kind in ("publish_term", "unpublish_batch", "postings", "heartbeat"):
            log.record(trace(kind=kind))
        rollup = log.category_rollup()
        assert sum(s.messages for s in rollup.values()) == log.rollup().messages

    def test_category_of_kind_spans_all_labels(self) -> None:
        from repro.net.trace import category_of_kind

        assert category_of_kind("publish_batch") == "write"
        assert category_of_kind("result_probe") == "query"
        assert category_of_kind("lookup") == "routing"
        assert category_of_kind("reconcile") == "maintenance"
        assert category_of_kind("synthetic") == "other"


class TestKindNameSync:
    """repro.net must stay import-independent of repro.dht, so the
    kind → category table here is keyed by plain strings;
    ``repro.dht.messages.category_of`` resolves through it."""

    def test_every_message_kind_categorized_by_name(self) -> None:
        from repro.dht.messages import ALL_KINDS, category_of
        from repro.net.trace import category_of_kind

        for kind in ALL_KINDS:
            assert category_of_kind(kind.value) == category_of(kind)
