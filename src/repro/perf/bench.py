"""The tracked end-to-end performance workload.

One reproducible scenario exercises every hot path the optimization
layer touches: build a ring, publish a synthetic term index, run a
Zipf-popular query stream from a fixed set of querying peers (repeated
queries are what a route cache feeds on — the paper's "w-zipf" streams
repeat queries heavily), and interleave join/leave churn so stabilize
cost shows up in the totals.

``run_perf_workload(cfg)`` executes the scenario once and returns a
:class:`PerfWorkloadResult` with phase timings, throughput, network
statistics, and a **ranking checksum** — a digest of every query's
ranked answer list.  Running the workload with ``optimized=False``
(route cache off, incremental repair off, legacy per-term fetch and
nested-dict scoring) must produce the *same checksum*: the optimization
layer changes speed, never results.  ``benchmarks/test_bench_perf.py``
asserts exactly that while recording before/after numbers into
``BENCH_PERF.json``.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from hashlib import sha256
from time import perf_counter
from typing import Dict, List, Optional

from ..config import ChordConfig
from ..core.indexer import IndexingProtocol
from ..core.metadata import PostingEntry
from ..core.query_processing import QueryProcessor
from ..corpus.relevance import Query
from ..dht.messages import MessageKind
from ..dht.recursive import build_ring
from .profile import PROFILE


@dataclass(frozen=True)
class PerfWorkloadConfig:
    """Shape of one benchmark scenario.

    The default is the tracked "paper-scale" workload of ISSUE 2:
    2,000 peers / 5,000 queries.  The CI smoke run shrinks every axis
    (see ``smoke_config``) so it finishes in a couple of seconds.
    """

    num_peers: int = 2000
    num_documents: int = 180
    vocabulary_size: int = 900
    terms_per_document: int = 16
    num_queries: int = 5000
    distinct_queries: int = 600
    max_query_terms: int = 3
    num_query_peers: int = 64
    churn_every: int = 200
    zipf_exponent: float = 0.8
    seed: int = 4111
    optimized: bool = True
    #: Exact max-score early termination (ISSUE 4); only meaningful with
    #: ``optimized=True`` (the legacy path has no bounded-top-k mode).
    early_termination: bool = True
    #: Per-indexing-peer query-result cache capacity (0 = off).
    result_cache_size: int = 0
    #: Overlay routing structure ("chord" / "record", DESIGN.md §16);
    #: rankings are bit-identical across rings — only hop counts differ.
    ring: str = "chord"
    #: ReCord branching factor (only meaningful with ``ring="record"``).
    ring_arity: int = 2

    def replaced(self, **kwargs) -> "PerfWorkloadConfig":
        merged = {**asdict(self), **kwargs}
        return PerfWorkloadConfig(**merged)


def paper_scale_config(optimized: bool = True) -> PerfWorkloadConfig:
    """The 2,000-peer / 5,000-query workload the issue tracks."""
    return PerfWorkloadConfig(optimized=optimized)


def smoke_config(optimized: bool = True) -> PerfWorkloadConfig:
    """A seconds-scale shrink of the same scenario for CI."""
    return PerfWorkloadConfig(
        num_peers=200,
        num_documents=60,
        vocabulary_size=300,
        terms_per_document=12,
        num_queries=500,
        distinct_queries=80,
        num_query_peers=16,
        churn_every=100,
        optimized=optimized,
    )


@dataclass
class PerfWorkloadResult:
    """Measured outcome of one workload run (JSON-friendly)."""

    optimized: bool
    num_peers: int
    num_queries: int
    build_s: float
    publish_s: float
    query_s: float
    churn_s: float
    total_s: float
    queries_per_s: float
    lookups: int
    lookups_per_s: float
    mean_lookup_hops: float
    total_messages: int
    ranking_checksum: str
    route_cache: Optional[Dict[str, float]]
    profile: Dict[str, Dict[str, object]]
    #: Query-result-cache counters (entries/hits/misses); ``None`` when
    #: result caching was off for the run.
    result_cache: Optional[Dict[str, int]] = None
    #: Process peak RSS at the end of the run (kb; see
    #: :func:`repro.perf.profile.memory_usage`).  Per-phase snapshots
    #: live in the profile's ``mem.*`` gauges.
    peak_rss_kb: int = 0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def _zipf_weights(n: int, exponent: float) -> List[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(n)]


def run_perf_workload(cfg: PerfWorkloadConfig) -> PerfWorkloadResult:
    """Execute the scenario once and measure it.

    Deterministic for a given config: same seed → same ring, documents,
    query stream, churn schedule, and (optimized or not) the same
    ranking checksum.
    """
    prior_enabled = PROFILE.enabled
    PROFILE.reset()
    PROFILE.enable()
    try:
        return _run(cfg)
    finally:
        if not prior_enabled:
            PROFILE.disable()


def _run(cfg: PerfWorkloadConfig) -> PerfWorkloadResult:
    rng = random.Random(cfg.seed)

    t0 = perf_counter()
    chord = ChordConfig(
        num_peers=cfg.num_peers,
        seed=cfg.seed,
        route_cache_size=65536 if cfg.optimized else 0,
        incremental_repair=cfg.optimized,
    )
    ring = build_ring(cfg.ring, chord, arity=cfg.ring_arity)
    protocol = IndexingProtocol(ring, result_cache_size=cfg.result_cache_size)
    processor = QueryProcessor(
        protocol,
        assumed_corpus_size=1_000_000,
        batch_fetch=cfg.optimized,
        early_termination=cfg.early_termination,
        result_cache=cfg.result_cache_size > 0,
    )
    build_s = perf_counter() - t0
    PROFILE.record_memory("build")

    # -- publish a synthetic term index (Zipf-skewed vocabulary) ----------
    vocab = [f"term{i:04d}" for i in range(cfg.vocabulary_size)]
    weights = _zipf_weights(cfg.vocabulary_size, cfg.zipf_exponent)
    t0 = perf_counter()
    for d in range(cfg.num_documents):
        doc_id = f"doc{d:05d}"
        owner_id = ring.random_live_id(rng)
        doc_length = rng.randint(80, 240)
        terms = list(
            dict.fromkeys(
                rng.choices(vocab, weights=weights, k=cfg.terms_per_document)
            )
        )
        for term in terms:
            protocol.publish(
                owner_id,
                term,
                PostingEntry(
                    doc_id=doc_id,
                    owner_peer=owner_id,
                    raw_tf=rng.randint(1, 12),
                    doc_length=doc_length,
                ),
            )
    publish_s = perf_counter() - t0
    PROFILE.record_memory("publish")

    # -- query pool: distinct queries with Zipf popularity ----------------
    pool: List[Query] = []
    for q in range(cfg.distinct_queries):
        k = rng.randint(1, cfg.max_query_terms)
        terms = tuple(
            dict.fromkeys(rng.choices(vocab, weights=weights, k=k))
        )
        pool.append(Query(query_id=f"perfq{q:04d}", terms=terms))
    pool_weights = _zipf_weights(cfg.distinct_queries, cfg.zipf_exponent)
    issuer_pool = rng.sample(ring.live_ids, cfg.num_query_peers)
    issuer_of = {
        query.query_id: issuer_pool[i % len(issuer_pool)]
        for i, query in enumerate(pool)
    }

    # -- query stream with interleaved churn ------------------------------
    checksum = sha256()
    protected = set(issuer_pool)
    lookups_before = ring.stats.kind(MessageKind.LOOKUP).messages
    query_s = 0.0
    churn_s = 0.0
    t_phase = perf_counter()
    for i in range(cfg.num_queries):
        if cfg.churn_every and i and i % cfg.churn_every == 0:
            query_s += perf_counter() - t_phase
            t_churn = perf_counter()
            ring.join(name=f"churner-{i}")
            candidates = [n for n in ring.live_ids if n not in protected]
            ring.leave(rng.choice(candidates))
            ring.stabilize()
            churn_s += perf_counter() - t_churn
            t_phase = perf_counter()
        query = pool[rng.choices(range(cfg.distinct_queries), weights=pool_weights)[0]]
        ranked, __ = processor.execute(issuer_of[query.query_id], query, top_k=20)
        checksum.update(query.query_id.encode())
        for entry in ranked:
            checksum.update(f"{entry.doc_id}:{entry.score!r}".encode())
    query_s += perf_counter() - t_phase
    memory = PROFILE.record_memory("query")

    lookups = ring.stats.kind(MessageKind.LOOKUP).messages - lookups_before
    total_s = build_s + publish_s + query_s + churn_s
    return PerfWorkloadResult(
        optimized=cfg.optimized,
        num_peers=cfg.num_peers,
        num_queries=cfg.num_queries,
        build_s=round(build_s, 4),
        publish_s=round(publish_s, 4),
        query_s=round(query_s, 4),
        churn_s=round(churn_s, 4),
        total_s=round(total_s, 4),
        queries_per_s=round(cfg.num_queries / query_s, 2) if query_s else 0.0,
        lookups=lookups,
        lookups_per_s=round(lookups / (query_s + churn_s), 2)
        if query_s + churn_s
        else 0.0,
        mean_lookup_hops=round(ring.stats.mean_lookup_hops, 3),
        total_messages=ring.stats.total_messages,
        ranking_checksum=checksum.hexdigest(),
        route_cache=ring.route_cache.stats() if ring.route_cache else None,
        profile=PROFILE.summary(),
        result_cache=(
            dict(
                zip(
                    ("entries", "hits", "misses"),
                    protocol.result_cache_stats(),
                )
            )
            if cfg.result_cache_size > 0
            else None
        ),
        peak_rss_kb=memory["peak_rss_kb"],
    )
