"""Percentile choice, checksums and the stream meter."""

from __future__ import annotations

import pytest

from bench.measure import (
    Meter,
    latency_summary,
    percentile,
    ranking_checksum,
    tail_percentile,
)
from repro.exceptions import NodeFailedError
from repro.ir import RankedList


@pytest.mark.parametrize(
    "count, expected",
    [(99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0),
     (10000, 99.9), (12000, 99.9), (100000, 99.99)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(values, 100.0) == 100
    assert percentile([7.0], 99.9) == 7.0


def test_latency_summary_names_p99_only_when_it_has_ten_beyond():
    assert "p99" not in latency_summary([1e-6] * 999)
    summary = latency_summary([i * 1e-6 for i in range(1, 1001)])
    assert summary["p99"] == pytest.approx(990.0)
    assert summary["samples"] == 1000


def test_ranking_checksum_sees_order_scores_and_ids():
    base = {"q1": RankedList({"a": 0.5, "b": 0.25})}
    same = {"q1": RankedList({"b": 0.25, "a": 0.5})}
    assert ranking_checksum(base) == ranking_checksum(same)
    assert ranking_checksum(base) != ranking_checksum({"q1": RankedList({"a": 0.5, "b": 0.26})})
    assert ranking_checksum(base) != ranking_checksum({"q2": RankedList({"a": 0.5, "b": 0.25})})


def test_stream_counts_failures_and_keeps_every_sample():
    def ok(arg):
        return True

    def refused(arg):
        return False

    def down(arg):
        raise NodeFailedError(arg)

    ops = [("ok", ok, 1), ("refused", refused, 2), ("down", down, 3)] * 5
    meter = Meter()
    result = meter.stream(ops, chunk=4)
    assert len(result.latencies) == len(result.kinds) == 15
    assert result.failed == 10
    assert len(result.of_kind("down")) == 5
    assert meter.raw_s == result.raw_s > 0
    assert meter.norm_s == result.norm_s > 0


def test_an_unexpected_exception_is_not_swallowed_as_a_failed_op():
    def broken(arg):
        raise RuntimeError("harness bug")

    with pytest.raises(RuntimeError):
        Meter().stream([("x", broken, None)], chunk=1)
