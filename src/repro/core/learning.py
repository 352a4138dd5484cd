"""Index tuning: Algorithm 1 and the naive reference learner.

The owner peer of each shared document runs a learning iteration
periodically: it polls the indexing peers of its current global index
terms for the queries cached since the last poll (the incremental set
Q'), folds the evidence into per-term statistics, re-ranks the
document's terms, and re-publishes the index.

Two learners are implemented:

* :class:`IncrementalLearner` — the paper's Algorithm 1.  Only the
  per-term running statistics (max qScore, cumulative QF) are stored;
  each iteration touches only Q'.
* :func:`naive_rank_terms` — the "naive scheme" that reprocesses the
  *entire* historical query set each iteration.  The paper argues the
  two are equivalent (max is associative, QF is cumulative); our
  property tests verify that claim, and the learning bench measures the
  speedup.

Selection policy (Sections 5.3 and 6.2/6.3): the index starts as the
top-F most frequent terms; each iteration the target size grows by
``terms_per_iteration`` up to ``max_index_terms``; once the cap is
reached only *replacement* happens.  Within the target budget, terms
with learned evidence rank by ``Score`` (descending); currently indexed
terms without positive evidence are retained after them, ordered by
document frequency rank — so unqueried initial terms are displaced
exactly when better, query-supported terms exist (the Figure 2(b)
example: t3 at 0.524 evicts t5 at 0.501 under a 3-term cap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Set, Tuple

from ..corpus.document import Document
from .metadata import TermStats
from .scoring import combined_score, q_score

#: Signature of a term scorer: (max qScore, cumulative QF) → score.
TermScorer = Callable[[float, int], float]


@dataclass(frozen=True)
class RankedTerm:
    """One entry of the learner's rank list RL."""

    term: str
    score: float


class IncrementalLearner:
    """Algorithm 1: per-document incremental term scoring.

    One instance per shared document, owned by its owner peer.  Stores
    only ``{term: TermStats}`` — never the historical queries.
    """

    def __init__(self, document: Document, scorer: TermScorer = combined_score) -> None:
        """*scorer* defaults to the paper's ``qScore·log10 QF``; the
        ablation benches inject qScore-only and QF-only variants."""
        self.document = document
        self.stats: Dict[str, TermStats] = {}
        self.scorer = scorer

    def observe(self, new_queries: Sequence[Tuple[str, ...]]) -> None:
        """Fold the incremental query set Q' into the running statistics.

        For each document term t occurring in Q': the largest qScore of
        any query containing t is max-merged, and QF(t, Q') is added to
        the cumulative query frequency (lines 4-11 of Algorithm 1).
        Membership is tested against the document's own term counts,
        so the learner holds no copy of its term set.
        """
        if not new_queries:
            return
        doc_terms = self.document.term_freqs
        best_qscore: Dict[str, float] = {}
        qf_delta: Dict[str, int] = {}
        for query in new_queries:
            terms = set(query)
            matching = []
            for term in terms:
                if term in doc_terms:
                    matching.append(term)
            if not matching:
                continue
            qs = len(matching) / len(terms)  # qScore(Q, D) = |Q ∩ D| / |Q|
            for term in matching:
                qf_delta[term] = qf_delta.get(term, 0) + 1
                if qs > best_qscore.get(term, -1.0):
                    best_qscore[term] = qs
        for term, delta in qf_delta.items():
            stats = self.stats.setdefault(term, TermStats())
            stats.absorb(best_qscore[term], delta)

    def rank_list(self) -> List[RankedTerm]:
        """The current rank list RL: every evidenced term scored by
        ``Score = max qScore · log10 QF``, best first (deterministic
        alphabetical tie-break)."""
        ranked = [
            RankedTerm(term, self.scorer(s.max_qscore, s.query_frequency))
            for term, s in self.stats.items()
        ]
        ranked.sort(key=lambda rt: (-rt.score, rt.term))
        return ranked

    def score_of(self, term: str) -> float:
        """Current combined score of one term (0 if unevidenced)."""
        stats = self.stats.get(term)
        if stats is None:
            return 0.0
        return self.scorer(stats.max_qscore, stats.query_frequency)


def naive_rank_terms(
    document: Document, all_queries: Sequence[Tuple[str, ...]]
) -> List[RankedTerm]:
    """The naive learner: recompute Score for every document term from
    the complete historical query set.

    Used only as the reference implementation for equivalence tests and
    the speedup bench — real owners run :class:`IncrementalLearner`.
    """
    doc_terms = document.term_freqs
    max_qscore: Dict[str, float] = {}
    qf: Dict[str, int] = {}
    for query in all_queries:
        terms = set(query)
        matching = []
        for term in terms:
            if term in doc_terms:
                matching.append(term)
        if not matching:
            continue
        qs = q_score(terms, doc_terms)
        for term in matching:
            qf[term] = qf.get(term, 0) + 1
            if qs > max_qscore.get(term, -1.0):
                max_qscore[term] = qs
    ranked = [
        RankedTerm(term, combined_score(max_qscore[term], qf[term]))
        for term in qf
    ]
    ranked.sort(key=lambda rt: (-rt.score, rt.term))
    return ranked


def select_index_terms(
    document: Document,
    current_terms: Sequence[str],
    rank_list: Sequence[RankedTerm],
    target_size: int,
) -> List[str]:
    """Choose the next index-term set for a document.

    Candidates are (a) every term in the learner's rank list with a
    positive score and (b) every currently indexed term.  Positive-score
    candidates are taken best-first; remaining budget is filled with
    current terms (in the document's ``top_terms`` order, a term it lacks
    last) so the index never shrinks below its earned size merely
    because evidence is sparse.
    """
    if target_size < 1:
        raise ValueError("target_size must be >= 1")
    freqs = document.term_freqs
    chosen: List[str] = []
    chosen_set: Set[str] = set()

    for ranked in rank_list:
        if len(chosen) >= target_size:
            break
        if ranked.score <= 0.0:
            break
        if ranked.term in chosen_set:
            continue
        chosen.append(ranked.term)
        chosen_set.add(ranked.term)

    if len(chosen) < target_size:
        retained = sorted(
            (t for t in current_terms if t not in chosen_set),
            key=lambda t: (-freqs[t], t),  # a Counter: a term it lacks counts 0
        )
        for term in retained:
            if len(chosen) >= target_size:
                break
            chosen.append(term)
            chosen_set.add(term)

    if len(chosen) < target_size:
        # Still under budget (very sparse evidence): pad with the
        # document's next most frequent unchosen terms, the same signal
        # used for initial selection.  At most len(chosen) of the top
        # target_size terms are taken already, so the rest of them hold
        # all the padding.
        for term in document.top_terms(target_size):
            if len(chosen) >= target_size:
                break
            if term not in chosen_set:
                chosen.append(term)
                chosen_set.add(term)
    return chosen


def initial_terms(document: Document, count: int) -> List[str]:
    """Initial selection (Section 5.2): the top-F most frequent analyzed
    terms — "only local information is available"."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return document.top_terms(count)
