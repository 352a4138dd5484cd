"""Term-selection scoring (paper Section 5.3).

Three functions define SPRITE's learning signal:

* ``qScore(Q, D) = |Q ∩ D| / |Q|`` — how similar a historical query is
  to a document.  Deliberately *not* TF·IDF: when choosing descriptive
  queries for a document, a term occurring in many queries is *more*
  informative, not less (the paper's inversion argument).
* ``QF(t, ϑ)`` — how many queries of a query set contain term *t*.
* ``Score(t, D) = qScore_max · log10 QF`` — the combined ranking signal.
  The worked example in Figure 2(b) (0.75·log 20 = 0.975) pins the
  logarithm to base 10; the log damps QF so high-quality (high-qScore)
  queries dominate noisy popular ones.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Container, Sequence


def q_score(query_terms: AbstractSet[str] | Sequence[str], doc_terms: Container[str]) -> float:
    """``qScore(Q, D) = |Q ∩ D| / |Q|``.

    *doc_terms* is the full analyzed term set of the document — the
    owner peer has the document locally, so this needs no network.  Any
    container answers: the intersection is a membership test per query
    term, so the document's own term-count map serves without a copy.

    >>> q_score({"a", "b"}, {"a", "b", "c"})
    1.0
    >>> q_score({"a", "x", "y", "z"}, {"a", "b", "c"})
    0.25
    """
    terms = set(query_terms)
    if not terms:
        return 0.0
    hits = 0
    for term in terms:
        if term in doc_terms:
            hits += 1
    return hits / len(terms)


def combined_score(max_qscore: float, qf: int) -> float:
    """``Score = qScore · log10(QF)``.

    QF ≤ 1 scores zero: a term seen in a single query has no popularity
    evidence yet, and log10(1) = 0 — matching the paper's formula
    directly (the Figure 2(b) arithmetic is base-10).
    """
    if qf <= 1 or max_qscore <= 0.0:
        return 0.0
    return max_qscore * math.log10(qf)
