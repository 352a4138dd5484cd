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
    category: str = "other",
) -> MessageTrace:
    return MessageTrace(
        kind, 1, 2, attempts=attempts, latency_ms=latency, outcome=outcome, category=category
    )


class TestPercentile:
    def test_empty_is_zero(self) -> None:
        assert percentile([], 50) == 0.0

    def test_empty_is_zero_at_every_quantile(self) -> None:
        """The documented 0.0-on-empty behaviour holds across the whole
        q range — including the boundaries and the fractional p99.9 the
        ``net`` sweep's table prints — so reports can always print."""
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
        assert log.rollup().lookup_messages == 2
        assert TraceLog().rollup().lookup_messages == 0

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


class TestCategoryRollup:
    def test_buckets_by_traffic_category(self) -> None:
        log = TraceLog()
        log.record(trace(kind="publish_batch", category="write"))
        log.record(trace(kind="poll_batch", category="write"))
        log.record(trace(kind="search_term", category="query"))
        log.record(trace(kind="lookup", category="routing"))
        log.record(trace(kind="made_up_kind"))  # a kind that names no category
        rollup = log.category_rollup()
        assert set(rollup) == {"write", "query", "routing", "other"}
        assert rollup["write"].messages == 2
        assert rollup["query"].messages == 1
        assert rollup["other"].messages == 1

    def test_category_messages_sum_to_total(self) -> None:
        log = TraceLog()
        for kind, category in (
            ("publish_term", "write"),
            ("unpublish_batch", "write"),
            ("postings", "query"),
            ("heartbeat", "maintenance"),
        ):
            log.record(trace(kind=kind, category=category))
        rollup = log.category_rollup()
        assert sum(s.messages for s in rollup.values()) == log.rollup().messages
