"""Test-side reference for term selection: the rank-map version.

:func:`repro.core.learning.select_index_terms` reads the document's term
counts directly: it orders the retained current terms by ``(-count,
term)`` and pads from two stable sorts of the term strings.  The
function here is what it replaced and must keep agreeing with, list for
list: build the document's whole frequency rank map first
(:func:`term_rank`, once a ``Document`` method), order the retained
terms by rank (a term the document lacks ranks after every term it
has) and pad by walking the map.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.core.learning import RankedTerm
from repro.corpus import Document


def term_rank(document: Document) -> Dict[str, int]:
    """Each term's frequency rank (0 = most frequent), in the
    :meth:`Document.top_terms` order."""
    ranked = sorted([(-count, t) for t, count in document.term_counts()])
    return {t: i for i, (__, t) in enumerate(ranked)}


def reference_select_index_terms(
    document: Document,
    current_terms: Sequence[str],
    rank_list: Sequence[RankedTerm],
    target_size: int,
) -> List[str]:
    """The selection rule, from the rank map."""
    if target_size < 1:
        raise ValueError("target_size must be >= 1")
    tf_rank = term_rank(document)
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
            key=lambda t: (tf_rank.get(t, len(tf_rank)), t),
        )
        for term in retained:
            if len(chosen) >= target_size:
                break
            chosen.append(term)
            chosen_set.add(term)

    if len(chosen) < target_size:
        for term in tf_rank:
            if len(chosen) >= target_size:
                break
            if term not in chosen_set:
                chosen.append(term)
                chosen_set.add(term)
    return chosen
