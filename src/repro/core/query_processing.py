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

The querying peer keeps the last ranking it computed for each bounded
query and takes it again while every fetched list is at the version it
was ranked from.

Terms whose indexing peer is down — or whose messages a lossy transport
fails to deliver after retries — are dropped from the computation
(Section 7's first failure-handling option).  Every query executed with
``cache=True`` is also left in the per-term query caches of the peers it
visits — the side channel SPRITE's learning feeds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..corpus.relevance import Query
from ..ir.ranking import RankedList
from ..ir.weighting import TfIdfWeighting
from ..memo import FifoMap
from .indexer import IndexingProtocol, SlotView

#: How many rankings a querying peer holds (``ChordNode.held_rankings``).
#: Past it the ranking held longest is forgotten, and that query's next
#: execution scores again.
HELD_RANKINGS = 256

_NOTHING_REGISTERED: frozenset = frozenset()


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
    #: True when the postings were fetched but the querying peer already
    #: held the ranking of these very slot versions (nothing was scored).
    ranking_reused: bool = False


class QueryProcessor:
    """Executes keyword queries against the distributed index."""

    def __init__(
        self,
        protocol: IndexingProtocol,
        assumed_corpus_size: int,
        document_frequency_override: Optional[Mapping[str, int]] = None,
    ) -> None:
        """``document_frequency_override`` substitutes *true* document
        frequencies for the indexed document frequencies in the weight
        computation — an ablation hook for Section 3/4's claim that the
        indexed frequency n'_k is an adequate (or better) surrogate.
        Production use leaves it ``None``.

        When the protocol has result caching on
        (``result_cache_size > 0``), bounded-``top_k`` queries consult
        and feed the indexing peers' query-result caches: a repeated
        query whose term slots are unchanged is answered from the cached
        ranked list without fetching or scoring any postings."""
        self.protocol = protocol
        self.weighting = TfIdfWeighting(corpus_size=assumed_corpus_size)
        self.document_frequency_override = document_frequency_override

    def execute(
        self,
        issuer_id: int,
        query: Query,
        top_k: int | None = None,
        cache: bool = True,
    ) -> Tuple[RankedList, QueryExecution]:
        """Run *query* from peer *issuer_id*: fetch-and-register →
        score → rank.

        Returns the ranked list (truncated to *top_k* when given) plus
        per-query execution diagnostics.  Each indexing peer is visited
        once: with ``cache=True`` the SEARCH_TERM that fetches a peer's
        slots is also what leaves the query in their caches (the search
        request itself populates the cache, Section 5.1).  A term whose
        peer cannot be located or does not take the request is dropped
        and cached nowhere; a term whose POSTINGS reply is lost is
        dropped but cached — the peer saw it
        (:meth:`IndexingProtocol.fetch_slot_views`).

        One batched round-trip per indexing peer, then the ranking
        (:meth:`_rank`), each piece of work done at the rate it changes:
        the ranking itself once per (keyword tuple, ``top_k``, N, slot
        versions) at this peer — a repeat over unchanged lists takes the
        one it holds (``ChordNode.held_rankings``, at most HELD_RANKINGS,
        first in first out; ``ranking_reused``) — and within a ranking
        IDF once per term, ``t_ik`` and ``sqrt(|D|)`` once per slot
        version (the view).  Slot versions come from one process-global
        counter, so equal versions are identical lists and the held
        ranking is the one scoring would compute.  The held ranking also
        keeps the terms whose peers answered a registering execution of
        the query; a request to such peers alone names the query by
        digest (:meth:`IndexingProtocol.fetch_slot_views`, *registered*).  ``top_k=None`` and a
        document-frequency override always score.
        ``candidate_documents`` is the number of distinct documents in
        the fetched lists, whether scored now or when the held ranking
        was made.

        A bounded ``top_k`` on a result-caching protocol adds the
        probe/store exchange with the query's result-home peer around
        that core; ``top_k=None`` means "rank everything" and never
        probes.  The probe needs the slot versions before any posting
        moves, so there registration stays its own round
        (register-observing → probe → fetch); the fetch traffic is the
        same either way.
        """
        execution = QueryExecution(query_id=query.query_id)
        clock = self.protocol.ring.transport.clock
        started_ms = clock.now
        protocol = self.protocol

        # -- result-cache consultation ------------------------------------
        use_rcache = (
            top_k is not None
            and protocol.result_cache_size > 0
            and self.document_frequency_override is None
        )
        reg_versions: Dict[str, int] = {}
        reg_failed: Set[str] = set()
        if use_rcache:
            if cache:
                __, reg_versions, reg_failed = protocol.register_query_observing(
                    issuer_id, query.terms
                )
            else:
                reg_versions, reg_failed = protocol.probe_slot_versions(
                    issuer_id, query.terms
                )
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
                return served, execution

        # -- fetch (and register, unless the result-cache round did) --------
        register = cache and not use_rcache
        held = key = entry = None
        if top_k is not None and self.document_frequency_override is None:
            issuer = protocol.ring.nodes[issuer_id]
            held = issuer.held_rankings
            if held is None:
                held = issuer.held_rankings = FifoMap(HELD_RANKINGS)
            key = (tuple(query.terms), top_k, self.weighting.corpus_size)
            entry = held.get(key)
        registered = entry[3] if entry is not None else _NOTHING_REGISTERED
        fetched, failed = protocol.fetch_slot_views(
            issuer_id, query.terms, register=register, registered=registered
        )
        failed_set = set(failed)

        # -- diagnostics, and the slot versions the ranking depends on ------
        versions: List[Optional[int]] = []
        for term in query.terms:
            if term in failed_set:
                execution.terms_failed += 1
                execution.dropped_terms.append(term)
                versions.append(None)
                continue
            view = fetched[term]
            execution.terms_visited += 1
            execution.postings_retrieved += view.indexed_df
            versions.append(view.version)

        # -- rank, unless this peer holds the ranking of these versions -----
        if held is None:
            ranked, candidates = self._rank(query.terms, fetched, failed_set, top_k)
        else:
            validity = tuple(versions)
            if register and not registered.issuperset(fetched):
                registered = registered.union(fetched)
            if entry is not None and entry[0] == validity:
                __, ranked, candidates, __ = entry
                execution.ranking_reused = True
                if registered is not entry[3]:
                    held[key] = (validity, ranked, candidates, registered)
            else:
                ranked, candidates = self._rank(query.terms, fetched, failed_set, top_k)
                held.put(key, (validity, ranked, candidates, registered))
        execution.candidate_documents = candidates
        execution.latency_ms = clock.now - started_ms

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

    def _rank(
        self,
        terms: Sequence[str],
        fetched: Mapping[str, SlotView],
        failed: Set[str],
        top_k: Optional[int],
    ) -> Tuple[RankedList, int]:
        """The scoring pass: ``(ranking, candidate documents)``.

        Terms in query order, postings in publish order: one multiply-add
        per posting into a flat dict of running dot products, normalized
        at the end (Lee et al. second method).  Contributions reach a
        document in query term order, each as ``w_Q × (t_ik × idf)``, and
        a repeated keyword scores once, so the scores are bit-identical
        to the seed's per-term, nested-dict executor (kept as the
        reference in ``tests/core/legacy_executor.py``)."""
        weighting = self.weighting
        override = self.document_frequency_override
        dot_products: Dict[str, float] = {}
        accumulated = dot_products.get
        norms: Dict[str, float] = {}
        scored_terms: Set[str] = set()
        for term in terms:
            if term in failed or term in scored_terms:
                continue
            view = fetched[term]
            df = view.indexed_df
            if df <= 0:
                continue
            scored_terms.add(term)
            if override is not None:
                df = max(1, override.get(term, df))
            qw = weighting.query_weight(df)
            # document_weight(t_ik, df) is t_ik × idf; taken at t_ik = 1
            # it is the idf itself, so the posting loop multiplies.
            idf = weighting.document_weight(1.0, df)
            doc_ids, ntfs, term_norms = view.scoring_view()
            for doc_id, ntf in zip(doc_ids, ntfs):
                dot_products[doc_id] = accumulated(doc_id, 0.0) + qw * (ntf * idf)
            # A document's norm is the one its last scored term reports.
            norms.update(zip(doc_ids, term_norms))

        scores = {doc_id: dot / norms[doc_id] for doc_id, dot in dot_products.items()}
        ranked = (
            RankedList.top_k(scores, top_k) if top_k is not None else RankedList(scores)
        )
        return ranked, len(scores)

    def search(
        self, issuer_id: int, query: Query, top_k: int | None = None, cache: bool = True
    ) -> RankedList:
        """Convenience wrapper returning only the ranked list."""
        ranked, __ = self.execute(issuer_id, query, top_k=top_k, cache=cache)
        return ranked
