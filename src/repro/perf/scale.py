"""The scale-out workload: process-sharded phases at 100k-peer scale.

Paper-scale benches (2k peers) finish in about a second; this harness
is how the repo chases the 10⁵–10⁶-node regime real DHT deployments
live in (see PAPERS.md on BitTorrent-DHT indexing).  The workload is
partitioned into **shards**: each shard is an independent sub-ring with
its own slice of the peer, document, and query budget, its own seeded
RNG stream, and a streamed synthetic corpus (documents are generated,
published as one destination-grouped batch, and dropped — never
materialized as a list).

Determinism contract (DESIGN.md §13)
------------------------------------

The unit of determinism is the **shard, not the worker**: shard *i*'s
entire run is a pure function of ``(config, i)`` — its RNG seed is
``seed · 1_000_003 + i``, an integer derivation (never tuple seeding,
which hashes and therefore varies across processes under
``PYTHONHASHSEED``).  Workers only decide *where* shards execute:
``workers=1`` runs them inline, ``workers=N`` fans them out over a
``multiprocessing`` pool, and the merge step concatenates per-shard
ranking checksums in shard-id order either way.  Hence the invariant
``tests/perf/test_scale.py`` pins: the merged checksum is identical for
any worker count.

Throughput is reported two ways: ``queries_per_s`` divides by summed
per-shard query seconds (per-core throughput — stable across worker
counts and CI machines, the number the BENCH_SCALE gate watches) and
``wall_queries_per_s`` divides by harness wall clock (what parallelism
actually buys).  Memory is accounted per shard (peak RSS + allocation
delta) and rolled up as the max across shard processes.
"""

from __future__ import annotations

import random
import sys
from dataclasses import asdict, dataclass
from hashlib import sha256
from time import perf_counter
from typing import Dict, List, Tuple

from ..config import ChordConfig
from ..core.indexer import IndexingProtocol
from ..core.metadata import PostingEntry
from ..core.query_processing import QueryProcessor
from ..corpus.relevance import Query
from ..corpus.sampling import CategoricalSampler, zipf_weights
from ..corpus.stream import stream_synthetic_docs
from ..dht.ring import ChordRing
from ..exceptions import ConfigurationError

#: Per-shard seed stride (prime, far above any shard count) — keeps the
#: integer seed streams of distinct (seed, shard) pairs disjoint.
_SEED_STRIDE = 1_000_003


def memory_usage() -> Dict[str, int]:
    """Process memory snapshot, cheap enough for phase boundaries.

    ``rss_kb``
        Current resident set size from ``/proc/self/status`` (0 where
        procfs is unavailable).
    ``peak_rss_kb``
        Lifetime peak RSS from ``getrusage`` (kilobytes; macOS reports
        bytes and is converted).  Monotone per process.
    ``allocated_blocks``
        Live CPython allocation count (:func:`sys.getallocatedblocks`)
        — a deterministic allocation gauge that, unlike RSS, moves even
        when the allocator never returns pages to the OS.
    """
    peak_kb = 0
    try:
        import resource

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":
            peak_kb //= 1024
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        peak_kb = 0
    rss_kb = 0
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    rss_kb = int(line.split()[1])
                    break
    except (OSError, ValueError):  # pragma: no cover - no procfs
        rss_kb = 0
    # ru_maxrss is sampled by the kernel and can trail VmRSS by a few
    # pages right after an allocation spike; clamp so "peak" is never
    # reported below "current".
    return {
        "rss_kb": rss_kb,
        "peak_rss_kb": max(peak_kb, rss_kb),
        "allocated_blocks": sys.getallocatedblocks(),
    }


@dataclass(frozen=True)
class ScaleWorkloadConfig:
    """Shape of one scale-out run.

    The default is the tracked mid-size row; ``scale_smoke_config`` /
    ``scale_paper_config`` give the CI and headline shapes.  Shard
    count fixes the partitioning (and therefore the results); the
    worker count is pure execution placement.
    """

    num_peers: int = 20_000
    num_documents: int = 25_000
    vocabulary_size: int = 6_000
    terms_per_document: int = 8
    num_queries: int = 6_000
    distinct_queries: int = 600
    max_query_terms: int = 3
    queriers_per_shard: int = 32
    top_k: int = 20
    num_shards: int = 8
    workers: int = 1
    zipf_exponent: float = 0.8
    result_cache_size: int = 0
    seed: int = 6111

    def replaced(self, **kwargs) -> "ScaleWorkloadConfig":
        merged = {**asdict(self), **kwargs}
        return ScaleWorkloadConfig(**merged)


def scale_paper_config() -> ScaleWorkloadConfig:
    """The 100k-peer / ~1M-posting headline row of BENCH_SCALE.json."""
    return ScaleWorkloadConfig(
        num_peers=100_000,
        num_documents=125_000,
        vocabulary_size=12_000,
        num_queries=10_000,
        distinct_queries=1_000,
        num_shards=16,
        workers=2,
    )


def scale_smoke_config() -> ScaleWorkloadConfig:
    """A seconds-scale shrink for CI (still 4 shards / 2 workers)."""
    return ScaleWorkloadConfig(
        num_peers=400,
        num_documents=600,
        vocabulary_size=500,
        num_queries=400,
        distinct_queries=100,
        queriers_per_shard=8,
        num_shards=4,
        workers=2,
    )


def _shard_slice(total: int, num_shards: int, shard_id: int) -> int:
    """Shard *shard_id*'s share of *total* (remainder to low shards)."""
    share, remainder = divmod(total, num_shards)
    return share + (1 if shard_id < remainder else 0)


@dataclass
class ShardResult:
    """One shard's measured outcome (plain fields: crosses processes)."""

    shard_id: int
    num_peers: int
    num_documents: int
    num_queries: int
    build_s: float
    publish_s: float
    query_s: float
    postings_published: int
    ranking_checksum: str
    peak_rss_kb: int
    allocated_blocks_delta: int


def _run_shard(cfg: ScaleWorkloadConfig, shard_id: int) -> ShardResult:
    """Run one shard inline: build its sub-ring, stream-publish its
    corpus slice, run its query stream.  Deterministic in
    ``(cfg, shard_id)`` — see the module docstring."""
    seed = cfg.seed * _SEED_STRIDE + shard_id
    rng = random.Random(seed)
    num_peers = max(1, _shard_slice(cfg.num_peers, cfg.num_shards, shard_id))
    num_documents = _shard_slice(cfg.num_documents, cfg.num_shards, shard_id)
    num_queries = _shard_slice(cfg.num_queries, cfg.num_shards, shard_id)
    blocks_before = memory_usage()["allocated_blocks"]

    t0 = perf_counter()
    ring = ChordRing(
        ChordConfig(
            num_peers=num_peers,
            seed=seed,
            route_cache_size=65536,
        )
    )
    protocol = IndexingProtocol(ring, result_cache_size=cfg.result_cache_size)
    processor = QueryProcessor(protocol, assumed_corpus_size=1_000_000)
    build_s = perf_counter() - t0

    # -- streamed publish: generate → batch-publish → drop ----------------
    vocabulary = [f"term{i:05d}" for i in range(cfg.vocabulary_size)]
    weights = zipf_weights(cfg.vocabulary_size, cfg.zipf_exponent)
    postings_published = 0
    t0 = perf_counter()
    for doc in stream_synthetic_docs(
        rng,
        vocabulary=vocabulary,
        weights=weights,
        num_documents=num_documents,
        terms_per_document=cfg.terms_per_document,
        id_prefix=f"s{shard_id:02d}-doc",
    ):
        owner_id = ring.random_live_id(rng)
        batch = [
            (
                term,
                PostingEntry(
                    doc_id=doc.doc_id,
                    owner_peer=owner_id,
                    raw_tf=raw_tf,
                    doc_length=doc.length,
                ),
            )
            for term, raw_tf in doc.term_tfs
        ]
        protocol.publish_batch(owner_id, batch)
        postings_published += len(batch)
    publish_s = perf_counter() - t0

    # -- query stream: Zipf-popular picks from a distinct pool ------------
    term_sampler = CategoricalSampler(vocabulary, weights)
    pool: List[Query] = []
    for q in range(cfg.distinct_queries):
        k = rng.randint(1, cfg.max_query_terms)
        terms = tuple(dict.fromkeys(term_sampler.sample_many(rng, k)))
        pool.append(Query(query_id=f"s{shard_id:02d}-q{q:05d}", terms=terms))
    issuers = rng.sample(
        ring.live_ids, min(cfg.queriers_per_shard, num_peers)
    )
    pick_sampler = CategoricalSampler(
        range(cfg.distinct_queries),
        zipf_weights(cfg.distinct_queries, cfg.zipf_exponent),
    )
    picks = pick_sampler.sample_many(rng, num_queries)

    checksum = sha256()
    t0 = perf_counter()
    for i, pick in enumerate(picks):
        query = pool[pick]
        ranked, __ = processor.execute(
            issuers[i % len(issuers)], query, top_k=cfg.top_k
        )
        checksum.update(query.query_id.encode())
        for entry in ranked:
            checksum.update(f"{entry.doc_id}:{entry.score!r}".encode())
    query_s = perf_counter() - t0
    memory = memory_usage()

    return ShardResult(
        shard_id=shard_id,
        num_peers=num_peers,
        num_documents=num_documents,
        num_queries=num_queries,
        build_s=round(build_s, 4),
        publish_s=round(publish_s, 4),
        query_s=round(query_s, 4),
        postings_published=postings_published,
        ranking_checksum=checksum.hexdigest(),
        peak_rss_kb=memory["peak_rss_kb"],
        allocated_blocks_delta=memory["allocated_blocks"] - blocks_before,
    )


def _shard_worker(payload: Tuple[Dict, int]) -> Dict:
    """Pool entry point (module-level so it pickles under spawn)."""
    cfg_dict, shard_id = payload
    return asdict(_run_shard(ScaleWorkloadConfig(**cfg_dict), shard_id))


@dataclass
class ScaleWorkloadResult:
    """Merged outcome of one sharded run (JSON-friendly)."""

    num_peers: int
    num_documents: int
    num_queries: int
    num_shards: int
    workers: int
    build_s: float
    publish_s: float
    query_s: float
    wall_s: float
    #: Per-core throughputs: totals over summed per-shard phase seconds
    #: — stable across worker counts, the gated numbers.
    queries_per_s: float
    docs_per_s: float
    postings_per_s: float
    #: End-to-end throughput against harness wall clock (includes
    #: build + publish and reflects actual parallelism).
    wall_queries_per_s: float
    postings_published: int
    ranking_checksum: str
    shard_checksums: List[str]
    peak_rss_kb: int
    allocated_blocks_delta: int

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


class ShardedHarness:
    """Partitions a :class:`ScaleWorkloadConfig` across shards and runs
    them inline or on a ``multiprocessing`` pool (see module docstring
    for the determinism contract)."""

    def __init__(self, cfg: ScaleWorkloadConfig) -> None:
        if cfg.num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if cfg.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.cfg = cfg

    def run(self) -> ScaleWorkloadResult:
        cfg = self.cfg
        workers = min(cfg.workers, cfg.num_shards)
        t0 = perf_counter()
        if workers <= 1:
            shards = [
                _run_shard(cfg, shard_id)
                for shard_id in range(cfg.num_shards)
            ]
        else:
            shards = self._run_pooled(workers)
        wall_s = perf_counter() - t0

        shards.sort(key=lambda shard: shard.shard_id)
        merged = sha256()
        for shard in shards:
            merged.update(shard.ranking_checksum.encode())
        build_s = sum(s.build_s for s in shards)
        publish_s = sum(s.publish_s for s in shards)
        query_s = sum(s.query_s for s in shards)
        postings = sum(s.postings_published for s in shards)
        peak_rss_kb = max(
            [s.peak_rss_kb for s in shards] + [memory_usage()["peak_rss_kb"]]
        )
        return ScaleWorkloadResult(
            num_peers=cfg.num_peers,
            num_documents=cfg.num_documents,
            num_queries=cfg.num_queries,
            num_shards=cfg.num_shards,
            workers=workers,
            build_s=round(build_s, 4),
            publish_s=round(publish_s, 4),
            query_s=round(query_s, 4),
            wall_s=round(wall_s, 4),
            queries_per_s=round(cfg.num_queries / query_s, 2)
            if query_s
            else 0.0,
            docs_per_s=round(cfg.num_documents / publish_s, 2)
            if publish_s
            else 0.0,
            postings_per_s=round(postings / publish_s, 2)
            if publish_s
            else 0.0,
            wall_queries_per_s=round(cfg.num_queries / wall_s, 2)
            if wall_s
            else 0.0,
            postings_published=postings,
            ranking_checksum=merged.hexdigest(),
            shard_checksums=[s.ranking_checksum for s in shards],
            peak_rss_kb=peak_rss_kb,
            allocated_blocks_delta=sum(
                s.allocated_blocks_delta for s in shards
            ),
        )

    def _run_pooled(self, workers: int) -> List[ShardResult]:
        import multiprocessing

        cfg = self.cfg
        # fork (where available) skips re-importing repro per worker;
        # the payload is plain dicts either way, so spawn also works.
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context("spawn")
        payloads = [
            (asdict(cfg), shard_id) for shard_id in range(cfg.num_shards)
        ]
        with context.Pool(processes=workers) as pool:
            rows = pool.map(_shard_worker, payloads)
        return [ShardResult(**row) for row in rows]


def run_scale_workload(cfg: ScaleWorkloadConfig) -> ScaleWorkloadResult:
    """Execute one sharded run."""
    return ShardedHarness(cfg).run()
