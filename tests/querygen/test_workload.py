"""Tests for workload shaping (streams, splits, pattern change)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.config import WorkloadConfig
from repro.corpus import Qrels, Query, QuerySet
from repro.exceptions import QueryError
from repro.querygen.workload import (
    pattern_change_groups,
    random_split,
    without_repeats_stream,
    zipf_stream,
)


@pytest.fixture()
def query_set() -> QuerySet:
    queries = []
    for origin in range(6):
        queries.append(Query(f"q{origin}", (f"t{origin}", "shared")))
        for i in range(4):
            queries.append(
                Query(f"q{origin}.{i}", (f"t{origin}", f"n{i}"), origin_id=f"q{origin}")
            )
    return QuerySet(queries, Qrels())


class TestRandomSplit:
    def test_partition_complete_and_disjoint(self, query_set) -> None:
        train, test = random_split(query_set, 0.5, seed=3)
        train_ids = {q.query_id for q in train}
        test_ids = {q.query_id for q in test}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {q.query_id for q in query_set}

    def test_fraction_respected(self, query_set) -> None:
        train, test = random_split(query_set, 0.5, seed=3)
        assert len(train) == len(query_set) // 2

    def test_deterministic(self, query_set) -> None:
        t1, __ = random_split(query_set, 0.5, seed=11)
        t2, __ = random_split(query_set, 0.5, seed=11)
        assert [q.query_id for q in t1] == [q.query_id for q in t2]

    def test_invalid_fraction(self, query_set) -> None:
        with pytest.raises(QueryError):
            random_split(query_set, 0.0)
        with pytest.raises(QueryError):
            random_split(query_set, 1.0)


class TestWithoutRepeats:
    def test_each_query_exactly_once(self, query_set) -> None:
        stream = without_repeats_stream(query_set, seed=5)
        counts = Counter(q.query_id for q in stream)
        assert all(c == 1 for c in counts.values())
        assert len(stream) == len(query_set)

    def test_shuffled_not_original_order(self, query_set) -> None:
        stream = without_repeats_stream(query_set, seed=5)
        assert [q.query_id for q in stream] != [q.query_id for q in query_set]


class TestZipfStream:
    def test_length_defaults_to_set_size(self, query_set) -> None:
        stream = zipf_stream(query_set, WorkloadConfig(zipf_slope=0.5, seed=7))
        assert len(stream) == len(query_set)

    def test_explicit_length(self, query_set) -> None:
        cfg = WorkloadConfig(zipf_slope=0.5, stream_length=100, seed=7)
        assert len(zipf_stream(query_set, cfg)) == 100

    def test_skew_produces_repeats(self, query_set) -> None:
        cfg = WorkloadConfig(zipf_slope=1.5, stream_length=200, seed=7)
        counts = Counter(q.query_id for q in zipf_stream(query_set, cfg))
        assert max(counts.values()) >= 10  # strong skew → hot queries

    def test_popularity_roughly_monotone(self, query_set) -> None:
        """The most popular query must appear at least as often as the
        median one under positive slope."""
        cfg = WorkloadConfig(zipf_slope=1.0, stream_length=500, seed=13)
        counts = Counter(q.query_id for q in zipf_stream(query_set, cfg))
        ordered = sorted(counts.values(), reverse=True)
        assert ordered[0] >= ordered[len(ordered) // 2]

    def test_deterministic(self, query_set) -> None:
        cfg = WorkloadConfig(zipf_slope=0.5, seed=19)
        s1 = [q.query_id for q in zipf_stream(query_set, cfg)]
        s2 = [q.query_id for q in zipf_stream(query_set, cfg)]
        assert s1 == s2


class TestPatternChangeGroups:
    def test_families_stay_together(self, query_set) -> None:
        group_a, group_b = pattern_change_groups(query_set, seed=3)
        origins_a = {q.origin_id for q in group_a}
        origins_b = {q.origin_id for q in group_b}
        assert not origins_a & origins_b

    def test_groups_cover_everything(self, query_set) -> None:
        group_a, group_b = pattern_change_groups(query_set, seed=3)
        ids = {q.query_id for q in group_a} | {q.query_id for q in group_b}
        assert ids == {q.query_id for q in query_set}

    def test_groups_balanced(self, query_set) -> None:
        group_a, group_b = pattern_change_groups(query_set, seed=3)
        assert abs(len(group_a) - len(group_b)) <= 5  # one family size

    def test_qrels_shared(self, query_set) -> None:
        group_a, group_b = pattern_change_groups(query_set, seed=3)
        assert group_a.qrels is query_set.qrels
        assert group_b.qrels is query_set.qrels
