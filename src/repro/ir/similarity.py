"""Query-document similarity functions.

The paper adopts the *second method* of Lee, Chuang and Seamons
("Document ranking and the vector-space model", IEEE Software 1997):

    sim(Q, D_i) = ( Σ_j  w_Q,j × w_i,j ) / sqrt(number of terms in D_i)

i.e. an inner product normalized by the square root of the document's
term count (a cheap surrogate for full cosine normalization — "This
formula simplifies the normalization ... its performance is shown to be
almost the same as the original formula").
"""

from __future__ import annotations

import math
from typing import Mapping


def lee_similarity(
    query_weights: Mapping[str, float],
    doc_weights: Mapping[str, float],
    doc_term_count: int,
) -> float:
    """Lee et al. second-method similarity (the paper's formula).

    Parameters
    ----------
    query_weights:
        term → query-side weight (terms absent from the mapping have
        weight zero).
    doc_weights:
        term → document-side weight for the *matching* terms; terms of
        the document that the distributed index never published simply
        do not appear here, which is exactly the "w_ij erroneously
        assumed to be zero" effect Section 4 describes.
    doc_term_count:
        "number of terms in D_i" — available in the inverted-list
        metadata.  Zero-length documents score 0.
    """
    if doc_term_count <= 0:
        return 0.0
    dot = 0.0
    for term, qw in query_weights.items():
        dw = doc_weights.get(term)
        if dw is not None:
            dot += qw * dw
    return dot / math.sqrt(doc_term_count)
