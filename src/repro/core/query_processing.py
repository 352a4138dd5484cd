"""Distributed query processing (paper Section 4).

The querying peer hashes each keyword, visits the responsible indexing
peers, retrieves the inverted-list entries (term frequency, document
length, and the *indexed document frequency* counted at the peer), and
computes similarities locally:

* document-side weight  ``w_ik = t_ik × log(N / n'_k)`` with the fixed
  large N of Section 4 and the indexed document frequency n'_k;
* query-side weight     ``w_Qk = log(N / n'_k)``;
* similarity            Lee et al. second method,
  ``sim(Q, D) = Σ w_Q·w_D / sqrt(|D|)``.

Terms whose indexing peer is down — or whose messages a lossy transport
fails to deliver after retries — are dropped from the computation
(Section 7's first failure-handling option).  Every query executed with
``cache=True`` is also registered into the per-term query caches — the
side channel SPRITE's learning feeds on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import sqrt
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Set, Tuple

#: Slack factors for the early-termination bound comparisons.  Upper
#: bounds are inflated and the threshold deflated by 1e-9 — about seven
#: orders of magnitude above the worst-case accumulated floating-point
#: rounding of the bound arithmetic (~1e-16 relative per operation) —
#: so a document is pruned only when its exact score *provably* cannot
#: reach the current k-th best, not even as a tie.  This is what makes
#: the max-score path exact rather than approximate.
_BOUND_INFLATE = 1.0 + 1e-9
_THRESHOLD_DEFLATE = 1.0 - 1e-9

#: Multi-term selection only runs when the candidate pool is at least
#: this many times ``top_k`` — below that the selection pass costs more
#: than the scoring it could skip (single-term queries bypass this: the
#: impact order alone decides them in O(k)).
_PHASE_A_MIN_RATIO = 4

from ..corpus.relevance import Query
from ..exceptions import NodeFailedError
from ..ir.ranking import RankedList
from ..ir.similarity import lee_similarity
from ..ir.weighting import TfIdfWeighting
from ..perf import PROFILE
from .indexer import IndexingProtocol


@dataclass
class QueryExecution:
    """Diagnostics for one executed query (used by benches and tests).

    ``latency_ms`` is the simulated network time the query consumed —
    the transport clock's advance across all lookups, term fetches, and
    posting replies.  It stays 0.0 under the default perfect transport.
    """

    query_id: str
    terms_visited: int = 0
    terms_failed: int = 0
    postings_retrieved: int = 0
    candidate_documents: int = 0
    latency_ms: float = 0.0
    dropped_terms: List[str] = field(default_factory=list)
    #: True when the ranked list was served from an indexing peer's
    #: query-result cache (no postings were fetched or scored).
    cache_hit: bool = False


class QueryProcessor:
    """Executes keyword queries against the distributed index."""

    def __init__(
        self,
        protocol: IndexingProtocol,
        assumed_corpus_size: int,
        document_frequency_override: Optional[Mapping[str, int]] = None,
        batch_fetch: bool = True,
        early_termination: bool = True,
        result_cache: bool = False,
    ) -> None:
        """``document_frequency_override`` substitutes *true* document
        frequencies for the indexed document frequencies in the weight
        computation — an ablation hook for Section 3/4's claim that the
        indexed frequency n'_k is an adequate (or better) surrogate.
        Production use leaves it ``None``.

        ``batch_fetch`` selects the optimized executor: term fetches
        merged per indexing peer and single-pass flat-dict scoring over
        the fetched slot views.  ``False`` selects the original per-term
        fetch with nested-dict scoring, retained verbatim as the
        reference implementation — equivalence tests and the perf
        benchmark's "before" mode run it.  Both produce identical
        rankings (bit-identical scores: the optimized executor performs
        the same floating-point operations in the same order).

        ``early_termination`` adds the exact max-score selection pass
        for bounded-``top_k`` queries: terms are scored in descending
        max-impact order with provably conservative pruning, then the
        surviving candidates are rescored in the legacy operation order,
        so the returned documents, scores, and tie-broken order are
        *identical* to exhaustive scoring — only the work of scoring
        documents that cannot reach the top k is skipped.

        ``result_cache`` consults/feeds the indexing peers' query-result
        caches (when the protocol has them enabled) for bounded-``top_k``
        queries: a repeated query whose term slots are unchanged is
        answered from the cached ranked list without fetching or scoring
        any postings."""
        self.protocol = protocol
        self.weighting = TfIdfWeighting(corpus_size=assumed_corpus_size)
        self.document_frequency_override = document_frequency_override
        self.batch_fetch = batch_fetch
        self.early_termination = early_termination
        self.result_cache = result_cache

    def execute(
        self,
        issuer_id: int,
        query: Query,
        top_k: int | None = None,
        cache: bool = True,
    ) -> Tuple[RankedList, QueryExecution]:
        """Run *query* from peer *issuer_id*.

        Returns the ranked list (truncated to *top_k* when given) plus
        per-query execution diagnostics.  With ``cache=True`` the query
        is registered at its terms' indexing peers first, mirroring the
        real system where the search request itself populates the cache.
        """
        if self.batch_fetch:
            return self._execute_optimized(issuer_id, query, top_k, cache)
        return self._execute_legacy(issuer_id, query, top_k, cache)

    def _execute_optimized(
        self,
        issuer_id: int,
        query: Query,
        top_k: int | None,
        cache: bool,
    ) -> Tuple[RankedList, QueryExecution]:
        """The optimized executor: one batched fetch round-trip per
        indexing peer, then a single accumulation pass over the fetched
        slot views — per-document running dot products in a flat dict,
        normalized at the end (Lee et al. second method, identical
        operation order to the legacy nested-dict path).

        A bounded ``top_k`` adds two optional stages around that core:
        the result-cache probe/store exchange with the query's
        result-home peer (``result_cache``), and phase A, the exact
        max-score survivor selection (``early_termination``).
        ``top_k=None`` or a stage switched off simply means "rank
        everything": no probe, no phase A, and the wire traffic of the
        fetch is the same either way.  The returned documents, scores,
        and tie-broken order are identical in every mode (see
        :meth:`_topk_survivors` for the argument);
        ``candidate_documents`` counts only the documents the scorer
        actually tracked, which is fewer than exhaustive scoring reports
        whenever pruning engaged.
        """
        execution = QueryExecution(query_id=query.query_id)
        clock = self.protocol.ring.transport.clock
        started_ms = clock.now
        profiling = PROFILE.enabled
        t0 = perf_counter() if profiling else 0.0
        protocol = self.protocol

        # -- result-cache consultation (layer 3) --------------------------
        use_rcache = (
            top_k is not None
            and self.result_cache
            and protocol.result_cache_size > 0
            and self.document_frequency_override is None
        )
        reg_versions: Dict[str, int] = {}
        reg_failed: Set[str] = set()
        if cache:
            if use_rcache:
                __, reg_versions, reg_failed = protocol.register_query_observing(
                    issuer_id, query.terms
                )
            else:
                protocol.register_query(issuer_id, query.terms)
        elif use_rcache:
            reg_versions, reg_failed = protocol.probe_slot_versions(
                issuer_id, query.terms
            )
        if use_rcache:
            served = protocol.probe_result(
                issuer_id,
                tuple(query.terms),
                top_k,
                reg_versions,
                frozenset(reg_failed),
            )
            if served is not None:
                execution.cache_hit = True
                execution.latency_ms = clock.now - started_ms
                if profiling:
                    PROFILE.add_time("query.fetch", perf_counter() - t0)
                    PROFILE.count("query.executed")
                return served, execution

        # -- fetch ----------------------------------------------------------
        fetched, failed = protocol.fetch_slot_views(issuer_id, query.terms)
        failed_set = set(failed)
        if profiling:
            t1 = perf_counter()
            PROFILE.add_time("query.fetch", t1 - t0)
        else:
            t1 = 0.0

        # -- term preparation, in legacy encounter order ------------------
        weighting = self.weighting
        override = self.document_frequency_override
        # (term, view, query weight, effective df, score upper bound)
        term_infos: List[tuple] = []
        scored_terms: Set[str] = set()
        for term in query.terms:
            if term in failed_set:
                execution.terms_failed += 1
                execution.dropped_terms.append(term)
                continue
            view = fetched[term]
            execution.terms_visited += 1
            if view.indexed_df <= 0:
                continue
            execution.postings_retrieved += view.indexed_df
            if term in scored_terms:
                # A repeated keyword scores exactly once (legacy rule).
                continue
            scored_terms.add(term)
            df = view.indexed_df
            if override is not None:
                df = max(1, override.get(term, view.indexed_df))
            qw = weighting.query_weight(df)
            # contribution(doc)/sqrt(len) == qw · idf · impact, and the
            # query-side weight *is* the idf, so qw² bounds the
            # per-unit-impact factor.
            term_infos.append((term, view, qw, df, qw * qw * view.max_impact))

        # -- phase A: conservative survivor selection (layer 2) -----------
        survivors = (
            self._topk_survivors(term_infos, top_k)
            if top_k is not None and self.early_termination
            else None
        )

        # -- phase B: exact rescore, legacy operation order ---------------
        # Per document, contributions arrive in term order either way
        # (a document appears at most once per term), so both shapes sum
        # the same floats in the same order — bit-identical scores.  The
        # per-survivor lookup shape costs |terms|·|survivors| instead of
        # Σ df; fall back to the scan when survivors dominate.
        dot_products: Dict[str, float] = {}
        doc_lengths: Dict[str, int] = {}
        total_postings = sum(info[1].indexed_df for info in term_infos)
        if (
            survivors is not None
            and len(survivors) * len(term_infos) < total_postings
        ):
            survivor_list = sorted(survivors)
            for term, view, qw, df, __ in term_infos:
                for doc_id in survivor_list:
                    hit = view.scoring_lookup(doc_id)
                    if hit is None:
                        continue
                    ntf, length = hit
                    contribution = qw * weighting.document_weight(ntf, df)
                    acc = dot_products.get(doc_id)
                    dot_products[doc_id] = (
                        contribution if acc is None else acc + contribution
                    )
                    doc_lengths[doc_id] = length
        else:
            for term, view, qw, df, __ in term_infos:
                for posting in view.entries():
                    doc_id = posting.doc_id
                    if survivors is not None and doc_id not in survivors:
                        continue
                    contribution = qw * weighting.document_weight(
                        posting.normalized_tf, df
                    )
                    acc = dot_products.get(doc_id)
                    dot_products[doc_id] = (
                        contribution if acc is None else acc + contribution
                    )
                    doc_lengths[doc_id] = posting.doc_length

        scores: Dict[str, float] = {}
        for doc_id, dot in dot_products.items():
            length = doc_lengths[doc_id]
            scores[doc_id] = dot / sqrt(length) if length > 0 else 0.0
        execution.candidate_documents = len(scores)
        execution.latency_ms = clock.now - started_ms
        ranked = (
            RankedList.top_k(scores, top_k) if top_k is not None else RankedList(scores)
        )
        if profiling:
            PROFILE.add_time("query.score", perf_counter() - t1)
            PROFILE.count("query.executed")

        if use_rcache and frozenset(execution.dropped_terms) == frozenset(reg_failed):
            protocol.store_result(
                issuer_id,
                tuple(query.terms),
                top_k,
                reg_versions,
                frozenset(reg_failed),
                ranked,
            )
        return ranked, execution

    def _topk_survivors(
        self, term_infos: List[tuple], top_k: int
    ) -> Optional[Set[str]]:
        """Max-score candidate selection: the set of documents that
        could still appear in the exact top *k*, or ``None`` when no
        pruning engaged (score everything).

        Terms are processed in descending score-upper-bound order, each
        term's postings in descending impact order.  A running threshold
        θ — the k-th largest *accumulated* (hence lower-bound) score
        among tracked documents — is compared against conservative upper
        bounds: once the bound of everything still unseen falls below
        θ (with the slack factors absorbing floating-point rounding),
        unseen documents provably cannot reach the top k, not even as a
        tie, so they are never tracked.  Tracked documents are always
        kept: the exact rescore decides their final order.
        """
        if top_k <= 0:
            return set()
        total_postings = sum(info[1].indexed_df for info in term_infos)
        if total_postings <= top_k:
            # At most top_k candidate documents exist: nothing can be
            # pruned, so skip the selection pass entirely.
            return None
        if len(term_infos) == 1:
            # Single-term queries need no bound arithmetic at all: the
            # final score is qw² · impact, strictly monotone in impact
            # (qw > 0 whenever df < N), and both the impact order and
            # the ranked order break ties by doc id — so the first
            # top_k impact rows *are* the exact answer set.
            term, view, qw, df, __ = term_infos[0]
            if qw > 0.0:
                rows = view.impact_rows()
                if PROFILE.enabled:
                    PROFILE.count("topk.postings_pruned", len(rows) - top_k)
                    PROFILE.count("topk.survivors", top_k)
                return {row[0] for row in rows[:top_k]}
        elif total_postings < _PHASE_A_MIN_RATIO * top_k:
            # Too few candidates for the selection pass to pay for the
            # phase-B work it could skip.
            return None
        # Stable sort: equal bounds keep legacy encounter order.
        ordered = sorted(term_infos, key=lambda info: -info[4])
        suffix = [0.0] * (len(ordered) + 1)
        for i in range(len(ordered) - 1, -1, -1):
            suffix[i] = suffix[i + 1] + ordered[i][4]

        partial: Dict[str, float] = {}
        theta: Optional[float] = None
        pruned = False
        # Min-heap of each tracked document's *first* gain, capped at
        # top_k entries.  Any k distinct documents' lower bounds make a
        # valid threshold (the true k-th best final score is at least
        # the smallest of them), so heap[0] updates θ in O(log k) per
        # new document — no exact k-th-largest scan inside the row loop.
        first_gains: List[float] = []

        def refresh_theta() -> None:
            # Exact k-th largest accumulated partial; term boundaries
            # only (it costs a full pass over the tracked documents).
            nonlocal theta
            if len(partial) >= top_k:
                kth = heapq.nlargest(top_k, partial.values())[-1]
                if theta is None or kth > theta:
                    theta = kth

        for i, (term, view, qw, df, bound) in enumerate(ordered):
            if (
                theta is not None
                and suffix[i] * _BOUND_INFLATE < theta * _THRESHOLD_DEFLATE
            ):
                # Everything not yet tracked is bounded by suffix[i].
                pruned = True
                if PROFILE.enabled:
                    PROFILE.count("topk.terms_skipped", len(ordered) - i)
                break
            factor = qw * qw
            tail_bound = suffix[i + 1]
            rows = view.impact_rows()
            for j, (doc_id, ntf, length, impact) in enumerate(rows):
                if (
                    theta is not None
                    and (factor * impact + tail_bound) * _BOUND_INFLATE
                    < theta * _THRESHOLD_DEFLATE
                ):
                    # Impact-ordered tail: no document first seen from
                    # here on can reach the top k.  (Already-tracked
                    # documents in the tail stay survivors; skipping
                    # their increment only keeps θ conservative.)
                    pruned = True
                    if PROFILE.enabled:
                        PROFILE.count("topk.postings_pruned", len(rows) - j)
                    break
                gain = factor * impact
                acc = partial.get(doc_id)
                if acc is None:
                    partial[doc_id] = gain
                    if len(first_gains) < top_k:
                        heapq.heappush(first_gains, gain)
                        if len(first_gains) < top_k:
                            continue
                    elif gain > first_gains[0]:
                        heapq.heappushpop(first_gains, gain)
                    else:
                        continue
                    if theta is None or first_gains[0] > theta:
                        theta = first_gains[0]
                else:
                    partial[doc_id] = acc + gain
            refresh_theta()

        if PROFILE.enabled:
            PROFILE.count("topk.survivors", len(partial))
        if not pruned:
            return None
        return set(partial)

    def _execute_legacy(
        self,
        issuer_id: int,
        query: Query,
        top_k: int | None,
        cache: bool,
    ) -> Tuple[RankedList, QueryExecution]:
        """The original per-term-fetch, nested-dict execution path,
        retained as the reference implementation: equivalence tests
        compare :meth:`_execute_optimized` against it, and the perf
        benchmark uses it as the "before" measurement."""
        execution = QueryExecution(query_id=query.query_id)
        clock = self.protocol.ring.transport.clock
        started_ms = clock.now
        if cache:
            self.protocol.register_query(issuer_id, query.terms)

        query_weights: Dict[str, float] = {}
        doc_weights: Dict[str, Dict[str, float]] = {}
        doc_lengths: Dict[str, int] = {}

        for term in query.terms:
            try:
                postings, indexed_df = self.protocol.fetch_postings(issuer_id, term)
            except NodeFailedError:
                execution.terms_failed += 1
                execution.dropped_terms.append(term)
                continue
            execution.terms_visited += 1
            if not postings or indexed_df <= 0:
                continue
            execution.postings_retrieved += len(postings)
            df = indexed_df
            if self.document_frequency_override is not None:
                df = max(1, self.document_frequency_override.get(term, indexed_df))
            query_weights[term] = self.weighting.query_weight(df)
            for posting in postings:
                doc_weights.setdefault(posting.doc_id, {})[term] = (
                    self.weighting.document_weight(posting.normalized_tf, df)
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

    def search(
        self, issuer_id: int, query: Query, top_k: int | None = None, cache: bool = True
    ) -> RankedList:
        """Convenience wrapper returning only the ranked list."""
        ranked, __ = self.execute(issuer_id, query, top_k=top_k, cache=cache)
        return ranked
