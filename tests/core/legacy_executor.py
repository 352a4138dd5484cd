"""The seed's query executor, kept as the reference the tests compare
:meth:`QueryProcessor.execute` against.

One ``fetch_postings`` round trip per query term, a nested
``doc -> term -> weight`` dict, and :func:`lee_similarity` per document —
the body ``QueryProcessor._execute_legacy`` had while it lived in
``src``.  It reads only the processor's public state (``protocol``,
``weighting``, ``document_frequency_override``) and the protocol's
public calls, never the result cache.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Tuple

from repro.core.query_processing import QueryExecution, QueryProcessor
from repro.core.system import SpriteSystem
from repro.exceptions import NodeFailedError
from repro.ir.ranking import RankedList
from repro.ir.similarity import lee_similarity


def execute_legacy(
    processor: QueryProcessor,
    issuer_id: int,
    query,
    top_k: int | None = None,
    cache: bool = True,
) -> Tuple[RankedList, QueryExecution]:
    """Run *query* the way the seed did; same return shape as
    :meth:`QueryProcessor.execute`."""
    execution = QueryExecution(query_id=query.query_id)
    clock = processor.protocol.ring.transport.clock
    started_ms = clock.now
    if cache:
        processor.protocol.register_query(issuer_id, query.terms)

    query_weights: Dict[str, float] = {}
    doc_weights: Dict[str, Dict[str, float]] = {}
    doc_lengths: Dict[str, int] = {}

    for term in query.terms:
        try:
            postings, indexed_df = processor.protocol.fetch_postings(issuer_id, term)
        except NodeFailedError:
            execution.terms_failed += 1
            execution.dropped_terms.append(term)
            continue
        execution.terms_visited += 1
        if not postings or indexed_df <= 0:
            continue
        execution.postings_retrieved += len(postings)
        df = indexed_df
        if processor.document_frequency_override is not None:
            df = max(1, processor.document_frequency_override.get(term, indexed_df))
        query_weights[term] = processor.weighting.query_weight(df)
        for posting in postings:
            doc_weights.setdefault(posting.doc_id, {})[term] = (
                processor.weighting.document_weight(posting.normalized_tf, df)
            )
            doc_lengths[posting.doc_id] = posting.doc_length

    scores = {
        doc_id: lee_similarity(query_weights, weights, doc_lengths[doc_id])
        for doc_id, weights in doc_weights.items()
    }
    execution.candidate_documents = len(scores)
    execution.latency_ms = clock.now - started_ms
    ranked = (
        RankedList.top_k(scores, top_k) if top_k is not None else RankedList(scores)
    )
    return ranked, execution


def install_legacy_executor(system: SpriteSystem) -> SpriteSystem:
    """Make *system* execute every query the seed's way."""
    system.processor.execute = partial(execute_legacy, system.processor)
    return system
