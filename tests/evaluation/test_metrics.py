"""Tests for precision/recall metrics and the centralized-ratio."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.corpus import Qrels
from repro.evaluation.metrics import (
    AggregateResult,
    PrecisionRecall,
    aggregate,
    dcg,
    evaluate_rankings,
    ndcg_against_reference,
    precision_recall_at,
    relative_to_centralized,
)
from repro.ir.ranking import RankedList


def ranked(*ids: str) -> RankedList:
    return RankedList([(doc_id, float(len(ids) - i)) for i, doc_id in enumerate(ids)])


class TestPrecisionRecall:
    def test_paper_definitions(self) -> None:
        """precision K'/K, recall K'/R."""
        pr = precision_recall_at(ranked("a", "b", "c", "d"), {"a", "c", "x"}, k=4)
        assert pr.precision == pytest.approx(2 / 4)
        assert pr.recall == pytest.approx(2 / 3)
        assert pr.hits == 2

    def test_cutoff_shorter_than_list(self) -> None:
        pr = precision_recall_at(ranked("a", "b", "c"), {"c"}, k=2)
        assert pr.precision == 0.0
        assert pr.recall == 0.0

    def test_list_shorter_than_cutoff(self) -> None:
        pr = precision_recall_at(ranked("a"), {"a"}, k=10)
        assert pr.precision == pytest.approx(1 / 10)
        assert pr.recall == 1.0

    def test_empty_relevant_set(self) -> None:
        pr = precision_recall_at(ranked("a"), set(), k=5)
        assert pr.precision == 0.0 and pr.recall == 0.0

    def test_accepts_plain_sequences(self) -> None:
        pr = precision_recall_at(["a", "b"], {"b"}, k=2)
        assert pr.precision == 0.5

    def test_invalid_cutoff(self) -> None:
        with pytest.raises(ValueError):
            precision_recall_at(ranked("a"), {"a"}, k=0)


class TestAggregation:
    def test_mean_over_queries(self) -> None:
        results = {
            "q1": precision_recall_at(ranked("a", "b"), {"a"}, k=2),
            "q2": precision_recall_at(ranked("c", "d"), {"c", "d"}, k=2),
        }
        agg = aggregate(results)
        assert agg.mean_precision == pytest.approx((0.5 + 1.0) / 2)
        assert len(agg.per_query) == 2

    def test_unjudged_queries_skipped(self) -> None:
        results = {
            "good": precision_recall_at(ranked("a"), {"a"}, k=1),
            "unjudged": precision_recall_at(ranked("b"), set(), k=1),
        }
        agg = aggregate(results)
        assert len(agg.per_query) == 1
        assert agg.mean_precision == 1.0

    def test_all_unjudged(self) -> None:
        agg = aggregate({"q": precision_recall_at(ranked("a"), set(), k=1)})
        assert agg.mean_precision == 0.0 and len(agg.per_query) == 0

    def test_means_do_not_depend_on_query_order(self) -> None:
        """``relative_to_centralized`` passes its queries in set order,
        which follows the hash seed: the paper's headline ratio must
        not.  Summed left to right, 0.1 + 0.2 + 0.3 is
        0.6000000000000001 and 0.3 + 0.2 + 0.1 is 0.6."""
        scores = {"q1": 0.1, "q2": 0.2, "q3": 0.3}
        results = {
            qid: PrecisionRecall(score, score, hits=1, cutoff=10, num_relevant=1)
            for qid, score in scores.items()
        }
        forward = aggregate(results)
        backward = aggregate(dict(reversed(results.items())))
        assert repr(forward.mean_precision) == repr(backward.mean_precision)
        assert repr(forward.mean_recall) == repr(backward.mean_recall)

    def test_evaluate_rankings(self) -> None:
        qrels = Qrels({"q1": {"a"}, "q2": {"z"}})
        agg = evaluate_rankings({"q1": ranked("a", "b"), "q2": ranked("b", "c")}, qrels, k=2)
        assert agg.mean_precision == pytest.approx((0.5 + 0.0) / 2)


class TestRelativeResult:
    def test_ratio_of_means(self) -> None:
        qrels = Qrels({"q1": {"a", "b"}})
        system = {"q1": ranked("a", "x")}
        central = {"q1": ranked("a", "b")}
        rel = relative_to_centralized(system, central, qrels, k=2)
        assert rel.precision_ratio == pytest.approx(0.5)
        assert rel.recall_ratio == pytest.approx(0.5)

    def test_perfect_system_ratio_one(self) -> None:
        qrels = Qrels({"q1": {"a"}})
        rankings = {"q1": ranked("a")}
        rel = relative_to_centralized(rankings, rankings, qrels, k=1)
        assert rel.precision_ratio == 1.0
        assert rel.recall_ratio == 1.0

    def test_zero_reference_guard(self) -> None:
        qrels = Qrels({"q1": {"a"}})
        rel = relative_to_centralized(
            {"q1": ranked("x")}, {"q1": ranked("y")}, qrels, k=1
        )
        assert rel.precision_ratio == 0.0

    def test_only_common_queries_compared(self) -> None:
        qrels = Qrels({"q1": {"a"}, "q2": {"b"}})
        rel = relative_to_centralized(
            {"q1": ranked("a")},
            {"q1": ranked("a"), "q2": ranked("b")},
            qrels,
            k=1,
        )
        assert len(rel.system.per_query) == 1
        assert len(rel.reference.per_query) == 1


@given(
    st.lists(st.sampled_from(list("abcdefgh")), min_size=1, max_size=8, unique=True),
    st.sets(st.sampled_from(list("abcdefgh")), min_size=1),
    st.integers(min_value=1, max_value=10),
)
def test_precision_recall_bounds(doc_ids: list, relevant: set, k: int) -> None:
    pr = precision_recall_at(ranked(*doc_ids), relevant, k)
    assert 0.0 <= pr.precision <= 1.0
    assert 0.0 <= pr.recall <= 1.0
    assert pr.hits <= min(k, len(relevant))


class TestDcg:
    def test_rank_discount(self) -> None:
        from math import log2

        assert dcg([3.0, 2.0, 1.0]) == pytest.approx(
            3.0 + 2.0 / log2(3) + 1.0 / log2(4)
        )

    def test_empty_gains(self) -> None:
        assert dcg([]) == 0.0


class TestNdcgAgainstReference:
    def test_perfect_agreement_is_one(self) -> None:
        assert ndcg_against_reference(
            ranked("a", "b", "c"), ranked("a", "b", "c"), k=3
        ) == pytest.approx(1.0)

    def test_reversed_order_hand_computed(self) -> None:
        from math import log2

        # Reference [a,b,c] at k=3 grades a=3, b=2, c=1; the reversed
        # system ranking earns 1, 2, 3 at discounts 1, log2(3), 2.
        got = ndcg_against_reference(
            ranked("c", "b", "a"), ranked("a", "b", "c"), k=3
        )
        ideal = 3.0 + 2.0 / log2(3) + 1.0 / 2.0
        assert got == pytest.approx((1.0 + 2.0 / log2(3) + 3.0 / 2.0) / ideal)

    def test_disjoint_rankings_score_zero(self) -> None:
        assert ndcg_against_reference(
            ranked("x", "y"), ranked("a", "b"), k=2
        ) == 0.0

    def test_missing_tail_scores_below_one(self) -> None:
        partial = ndcg_against_reference(ranked("a"), ranked("a", "b"), k=2)
        assert 0.0 < partial < 1.0

    def test_empty_reference_is_zero(self) -> None:
        assert ndcg_against_reference(ranked("a"), ranked(), k=5) == 0.0

    def test_accepts_plain_sequences(self) -> None:
        assert ndcg_against_reference(["a", "b"], ["a", "b"], k=2) == 1.0

    def test_k_must_be_positive(self) -> None:
        with pytest.raises(ValueError):
            ndcg_against_reference(ranked("a"), ranked("a"), k=0)

    def test_k_truncates_both_sides(self) -> None:
        # Beyond-k disagreement is invisible at k=1.
        assert ndcg_against_reference(
            ranked("a", "x", "y"), ranked("a", "b", "c"), k=1
        ) == pytest.approx(1.0)
