"""Tests for Query, Qrels, and QuerySet."""

from __future__ import annotations

import pytest

from repro.corpus import Qrels, Query, QuerySet
from repro.exceptions import QueryError


class TestQuery:
    def test_terms_sorted_and_deduplicated(self) -> None:
        q = Query("q1", ("zeta", "alpha", "zeta"))
        assert q.terms == ("alpha", "zeta")

    def test_empty_terms_rejected(self) -> None:
        with pytest.raises(QueryError):
            Query("q1", ())

    def test_origin_defaults_to_self(self) -> None:
        assert Query("q1", ("a",)).origin_id == "q1"

    def test_origin_preserved(self) -> None:
        assert Query("q1.3", ("a",), origin_id="q1").origin_id == "q1"

    def test_hashable_and_frozen(self) -> None:
        q = Query("q1", ("a", "b"))
        assert hash(q) == hash(Query("q1", ("b", "a")))
        with pytest.raises(AttributeError):
            q.query_id = "other"  # type: ignore[misc]

    def test_len_counts_unique_terms(self) -> None:
        assert len(Query("q1", ("a", "b", "a"))) == 2


class TestQrels:
    def test_add_and_lookup(self) -> None:
        qrels = Qrels()
        qrels.add("q1", "d1")
        qrels.add("q1", "d2")
        assert qrels.relevant("q1") == {"d1", "d2"}

    def test_unjudged_query(self) -> None:
        qrels = Qrels()
        assert qrels.relevant("nope") == set()

    def test_set_relevant_replaces(self) -> None:
        qrels = Qrels({"q1": {"d1"}})
        qrels.set_relevant("q1", ["d9"])
        assert qrels.relevant("q1") == {"d9"}

    def test_relevant_returns_copy(self) -> None:
        qrels = Qrels({"q1": {"d1"}})
        qrels.relevant("q1").add("d2")
        assert qrels.relevant("q1") == {"d1"}

    def test_container_protocol(self) -> None:
        qrels = Qrels({"q1": {"d1"}, "q2": {"d2"}})
        assert "q1" in qrels
        assert len(qrels) == 2
        assert sorted(qrels) == ["q1", "q2"]


class TestQuerySet:
    def _make(self) -> QuerySet:
        return QuerySet(
            [Query("q1", ("a",)), Query("q2", ("b",)), Query("q3", ("c",))],
            Qrels({"q1": {"d1"}}),
        )

    def test_len_and_iter(self) -> None:
        qs = self._make()
        assert len(qs) == 3
        assert [q.query_id for q in qs] == ["q1", "q2", "q3"]

    def test_duplicate_ids_rejected(self) -> None:
        with pytest.raises(QueryError):
            QuerySet([Query("q1", ("a",)), Query("q1", ("b",))])

    def test_split_shares_qrels(self) -> None:
        qs = self._make()
        train, test = qs.split({"q1", "q3"})
        assert [q.query_id for q in train] == ["q1", "q3"]
        assert [q.query_id for q in test] == ["q2"]
        assert train.qrels is qs.qrels
        assert test.qrels is qs.qrels
