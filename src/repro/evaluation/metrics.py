"""Retrieval-effectiveness metrics (paper Section 6).

"If the top K documents are returned for a query, K' of them are
relevant to the query and there are R relevant documents in the entire
corpus, then the precision is defined as K'/K and the recall as K'/R.
All precision and recall results presented later are in terms of the
ratio of a specific system over the centralized system."

The ratio is computed as *mean over the test queries of the system's
metric* divided by *mean of the centralized system's metric on the same
queries* — robust to individual queries where the centralized system
itself scores zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Set

from ..corpus.relevance import Qrels
from ..ir.ranking import RankedList


@dataclass(frozen=True)
class PrecisionRecall:
    """Precision and recall of one ranked list at one cutoff."""

    precision: float
    recall: float
    hits: int
    cutoff: int
    num_relevant: int


def precision_recall_at(
    ranked: RankedList | Sequence[str],
    relevant: Set[str],
    k: int,
) -> PrecisionRecall:
    """K'/K and K'/R for the top *k* of a ranked list.

    With an empty relevant set both metrics are 0 — such queries are
    excluded from ratio aggregation anyway.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    top = ranked.top_ids(k) if isinstance(ranked, RankedList) else list(ranked)[:k]
    hits = sum(1 for doc_id in top if doc_id in relevant)
    precision = hits / k
    recall = hits / len(relevant) if relevant else 0.0
    return PrecisionRecall(
        precision=precision,
        recall=recall,
        hits=hits,
        cutoff=k,
        num_relevant=len(relevant),
    )


def dcg(gains: Sequence[float]) -> float:
    """Discounted cumulative gain of a gain vector in rank order:
    ``Σ gain_i / log2(i + 1)`` with ranks starting at 1."""
    from math import log2

    return sum(gain / log2(i + 2) for i, gain in enumerate(gains))


def ndcg_against_reference(
    ranked: RankedList | Sequence[str],
    reference: RankedList | Sequence[str],
    k: int,
) -> float:
    """NDCG@k of a ranked list against a *reference ranking* (here: the
    centralized TF-IDF oracle), not binary judgements.

    The reference's top *k* defines graded relevance — its rank-1
    document gains ``k``, rank-2 gains ``k-1``, … — so a system is
    rewarded both for retrieving the oracle's documents and for keeping
    them in the oracle's order.  The ideal DCG is the reference scored
    against itself; an empty reference yields 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ref_ids = (
        reference.top_ids(k)
        if isinstance(reference, RankedList)
        else list(reference)[:k]
    )
    if not ref_ids:
        return 0.0
    gains = {doc_id: float(len(ref_ids) - i) for i, doc_id in enumerate(ref_ids)}
    top = ranked.top_ids(k) if isinstance(ranked, RankedList) else list(ranked)[:k]
    ideal = dcg([gains[doc_id] for doc_id in ref_ids])
    return dcg([gains.get(doc_id, 0.0) for doc_id in top]) / ideal


@dataclass(frozen=True)
class AggregateResult:
    """Mean precision/recall over a query set for one system."""

    mean_precision: float
    mean_recall: float
    per_query: Dict[str, PrecisionRecall]


def aggregate(
    results: Dict[str, PrecisionRecall],
) -> AggregateResult:
    """Average per-query metrics (queries with no judged relevant
    documents are skipped — they cannot distinguish systems).  The sums
    are correctly rounded, so the means do not depend on the order of
    *results*."""
    usable = {qid: pr for qid, pr in results.items() if pr.num_relevant > 0}
    if not usable:
        return AggregateResult(0.0, 0.0, {})
    n = len(usable)
    return AggregateResult(
        mean_precision=math.fsum(pr.precision for pr in usable.values()) / n,
        mean_recall=math.fsum(pr.recall for pr in usable.values()) / n,
        per_query=usable,
    )


def evaluate_rankings(
    rankings: Dict[str, RankedList],
    qrels: Qrels,
    k: int,
) -> AggregateResult:
    """Precision/recall@k for a batch of (query id → ranked list)."""
    return aggregate(
        {
            qid: precision_recall_at(ranked, qrels.relevant(qid), k)
            for qid, ranked in rankings.items()
        }
    )


@dataclass(frozen=True)
class RelativeResult:
    """A system's effectiveness relative to the centralized reference —
    the unit in which every paper figure is plotted."""

    system: AggregateResult
    reference: AggregateResult

    @property
    def precision_ratio(self) -> float:
        if self.reference.mean_precision <= 0.0:
            return 0.0
        return self.system.mean_precision / self.reference.mean_precision

    @property
    def recall_ratio(self) -> float:
        if self.reference.mean_recall <= 0.0:
            return 0.0
        return self.system.mean_recall / self.reference.mean_recall


def relative_to_centralized(
    system_rankings: Dict[str, RankedList],
    centralized_rankings: Dict[str, RankedList],
    qrels: Qrels,
    k: int,
) -> RelativeResult:
    """Compute the paper's headline metric: system-over-centralized
    precision and recall ratios at cutoff *k* on a common query set."""
    common = set(system_rankings) & set(centralized_rankings)
    return RelativeResult(
        system=evaluate_rankings(
            {qid: system_rankings[qid] for qid in common}, qrels, k
        ),
        reference=evaluate_rankings(
            {qid: centralized_rankings[qid] for qid in common}, qrels, k
        ),
    )
