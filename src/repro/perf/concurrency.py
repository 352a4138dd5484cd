"""The tracked concurrency workload (DESIGN.md §15).

Every other bench in this package measures the *sequential* cost of the
hot paths.  This one measures behaviour under **concurrent load**: many
in-flight queries contending for the same per-peer service queues, with
timeout/retry races against slow peers — the regime where throughput
and tail latency (p99/p99.9) actually live.

The engine is capture once, replay many:

1. **Deployment + capture** — build a ring, publish a Zipf-skewed
   synthetic index, and capture each distinct query's message timeline
   *once* by executing it synchronously under
   :meth:`~repro.dht.ring.ChordRing.capture_messages`.  The captured
   rankings are the semantics; they never change again.
2. **Grid replay** — a fixed, seeded operation stream (Zipf-popular
   repeats of the pool) is replayed through a fresh
   :class:`~repro.net.sched.Scheduler` per cell of a
   clients × service-time grid, in closed-loop (each of N clients
   issues its next op when the previous completes) and open-loop
   (seeded Poisson arrivals at a configured rate) modes, plus a
   straggler column where a small fraction of peers serve far slower.

Because every cell replays the *same* captured timelines over the same
op stream, the ranking checksum — computed in submission order — is
identical in every cell and identical to re-executing the stream
synchronously on the call-stack path (the run asserts both).  The grid
changes *when* queries complete, never *what* they return: semantics
come from the one synchronous capture, so the checksum proves that
capturing perturbed no ranking and that the stream re-executes to the
same answers — not that operations would commute if they really
interleaved (ROADMAP item 3B).

``benchmarks/test_bench_concurrency.py`` records the grid into
``benchmarks/BENCH_CONCURRENCY.json``; ``repro perf --mode concurrency``
prints it.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from hashlib import sha256
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import ChordConfig
from ..core.indexer import IndexingProtocol
from ..core.metadata import PostingEntry
from ..core.query_processing import QueryProcessor
from ..corpus.relevance import Query
from ..dht.ring import ChordRing
from ..net.sched import Scheduler, replay_timeline
from ..net.trace import percentile
from ..net.transport import DeliveryPolicy


@dataclass(frozen=True)
class ConcurrencyConfig:
    """Shape of one concurrency benchmark run.

    The default is the tracked paper-scale grid; ``smoke_config``
    shrinks every axis for CI.  All randomness (deployment, query pool,
    op stream, open-loop arrivals, scheduler jitter) derives from
    ``seed``, so a config identifies one exact run.
    """

    # -- deployment --------------------------------------------------------
    num_peers: int = 1000
    num_documents: int = 150
    vocabulary_size: int = 700
    terms_per_document: int = 14
    # -- workload ----------------------------------------------------------
    num_ops: int = 3000
    distinct_queries: int = 200
    max_query_terms: int = 3
    num_query_peers: int = 48
    zipf_exponent: float = 0.8
    top_k: int = 20
    # -- runtime grid ------------------------------------------------------
    clients_grid: Tuple[int, ...] = (1, 16, 64)
    service_times_ms: Tuple[float, ...] = (0.25, 1.0)
    open_loop_rates_per_s: Tuple[float, ...] = (2000.0, 8000.0)
    queue_depth: int = 64
    timeout_ms: float = 40.0
    max_retries: int = 2
    backoff_base_ms: float = 2.0
    #: Straggler column: this fraction of peers serve ``slow_peer_factor``
    #: times slower (the tail-inflation scenario the issue tracks).
    slow_peer_fraction: float = 0.02
    slow_peer_factor: float = 20.0
    seed: int = 4777
    #: Skip the synchronous re-execution equivalence pass (benches
    #: keep it on).
    verify_sync: bool = True

    def replaced(self, **kwargs) -> "ConcurrencyConfig":
        merged = {**asdict(self), **kwargs}
        return ConcurrencyConfig(**merged)


def paper_scale_config() -> ConcurrencyConfig:
    """The tracked 1,000-peer / 3,000-op grid."""
    return ConcurrencyConfig()


def smoke_config() -> ConcurrencyConfig:
    """A seconds-scale shrink of the same grid for CI."""
    return ConcurrencyConfig(
        num_peers=150,
        num_documents=50,
        vocabulary_size=250,
        terms_per_document=10,
        num_ops=400,
        distinct_queries=60,
        num_query_peers=16,
        open_loop_rates_per_s=(2000.0, 8000.0),
    )


@dataclass
class CellResult:
    """One grid cell's readout (JSON-friendly).

    ``throughput_ops_per_s`` and the latency percentiles are in
    *virtual* time — the discrete-event clock — so they measure the
    modelled system, not the host CPU.  ``wall_s`` is the host cost of
    simulating the cell.
    """

    mode: str  # "closed" | "open"
    clients: int  # closed-loop population (0 for open-loop cells)
    arrival_rate_per_s: float  # open-loop rate (0.0 for closed-loop)
    service_time_ms: float
    stragglers: bool
    ops: int
    makespan_ms: float
    throughput_ops_per_s: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_p99_9_ms: float
    latency_mean_ms: float
    max_queue_depth: int
    mean_wait_ms: float
    utilization_mean: float
    utilization_max: float
    messages_sent: int
    retries: int
    timeouts: int
    queue_drops: int
    ranking_checksum: str
    schedule_fingerprint: str
    wall_s: float

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class ConcurrencyResult:
    """Full grid outcome: per-cell readouts plus the equivalence data."""

    num_peers: int
    num_ops: int
    distinct_queries: int
    capture_s: float
    sync_s: float
    #: Checksum of the op stream's rankings in submission order —
    #: identical in every cell by construction.
    ranking_checksum: str
    #: The same stream re-executed synchronously on the call-stack path
    #: (empty when ``verify_sync`` is off).
    sync_ranking_checksum: str
    cells: List[CellResult] = field(default_factory=list)

    @property
    def checksums_match(self) -> bool:
        return all(c.ranking_checksum == self.ranking_checksum for c in self.cells) and (
            not self.sync_ranking_checksum
            or self.sync_ranking_checksum == self.ranking_checksum
        )

    def cell(
        self,
        mode: str = "closed",
        clients: Optional[int] = None,
        service_time_ms: Optional[float] = None,
        stragglers: Optional[bool] = None,
        arrival_rate_per_s: Optional[float] = None,
    ) -> CellResult:
        """The unique cell matching the given coordinates."""
        matches = [
            c
            for c in self.cells
            if c.mode == mode
            and (clients is None or c.clients == clients)
            and (service_time_ms is None or c.service_time_ms == service_time_ms)
            and (stragglers is None or c.stragglers == stragglers)
            and (
                arrival_rate_per_s is None
                or c.arrival_rate_per_s == arrival_rate_per_s
            )
        ]
        if len(matches) != 1:
            raise KeyError(
                f"{len(matches)} cells match "
                f"(mode={mode}, clients={clients}, st={service_time_ms}, "
                f"stragglers={stragglers}, rate={arrival_rate_per_s})"
            )
        return matches[0]

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["checksums_match"] = self.checksums_match
        return data


def _zipf_weights(n: int, exponent: float) -> List[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(n)]


@dataclass(frozen=True)
class _CapturedOp:
    """One synchronously executed query: its ranking is already final,
    its ``(kind, dst)`` message timeline is what the scheduler replays —
    replay only decides *when* the operation completes."""

    label: str
    timeline: Tuple[Tuple[str, int], ...]
    result: object


@dataclass
class _Deployment:
    """The captured workload a grid replays: per-distinct-query
    timelines + rankings, and the fixed op stream over them."""

    ring: ChordRing
    processor: QueryProcessor
    pool: List[Query]
    issuer_of: Dict[str, int]
    captured: Dict[str, _CapturedOp]
    stream: List[int]  # op i = pool[stream[i]]
    slow_peers: Dict[int, float]


def _build_deployment(cfg: ConcurrencyConfig) -> Tuple[_Deployment, float]:
    """Build the system, capture every distinct query's timeline once,
    and fix the op stream.  Returns (deployment, capture_seconds)."""
    rng = random.Random(cfg.seed)
    t0 = perf_counter()
    ring = ChordRing(
        ChordConfig(
            num_peers=cfg.num_peers,
            seed=cfg.seed,
            route_cache_size=65536,
        )
    )
    protocol = IndexingProtocol(ring)
    processor = QueryProcessor(protocol, assumed_corpus_size=1_000_000)

    vocab = [f"term{i:04d}" for i in range(cfg.vocabulary_size)]
    weights = _zipf_weights(cfg.vocabulary_size, cfg.zipf_exponent)
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

    pool: List[Query] = []
    for i in range(cfg.distinct_queries):
        k = rng.randint(1, cfg.max_query_terms)
        terms = tuple(dict.fromkeys(rng.choices(vocab, weights=weights, k=k)))
        pool.append(Query(query_id=f"concq{i:04d}", terms=terms))
    issuer_pool = rng.sample(ring.live_ids, cfg.num_query_peers)
    issuer_of = {
        query.query_id: issuer_pool[i % len(issuer_pool)]
        for i, query in enumerate(pool)
    }

    # Capture each distinct query exactly once, in pool order.  The op
    # stream replays these fixed timelines, so no cell's behaviour can
    # leak into another through route caches or any other shared state.
    captured: Dict[str, _CapturedOp] = {}
    for query in pool:
        with ring.capture_messages() as log:
            ranked, _execution = processor.execute(
                issuer_of[query.query_id], query, top_k=cfg.top_k, cache=False
            )
        captured[query.query_id] = _CapturedOp(
            label=f"query:{query.query_id}",
            timeline=tuple((t.kind, t.dst) for t in log.records),
            result=ranked,
        )

    pool_weights = _zipf_weights(cfg.distinct_queries, cfg.zipf_exponent)
    stream = rng.choices(range(cfg.distinct_queries), weights=pool_weights, k=cfg.num_ops)

    # Stragglers: a seeded sample of peers that appear in the captured
    # timelines (so the slow column actually intersects the workload).
    contacted = sorted({dst for op in captured.values() for _k, dst in op.timeline})
    slow_count = max(1, int(len(contacted) * cfg.slow_peer_fraction))
    slow_rng = random.Random(cfg.seed + 1)
    slow_peers = {
        peer: cfg.slow_peer_factor for peer in slow_rng.sample(contacted, slow_count)
    }

    return (
        _Deployment(
            ring=ring,
            processor=processor,
            pool=pool,
            issuer_of=issuer_of,
            captured=captured,
            stream=stream,
            slow_peers=slow_peers,
        ),
        perf_counter() - t0,
    )


def _stream_checksum(dep: _Deployment, rankings: Sequence) -> str:
    """Digest the op stream's rankings in submission order."""
    digest = sha256()
    for idx, ranked in zip(dep.stream, rankings):
        digest.update(dep.pool[idx].query_id.encode())
        for entry in ranked:
            digest.update(f"{entry.doc_id}:{entry.score!r}".encode())
    return digest.hexdigest()


def _grid_checksum(dep: _Deployment) -> str:
    """Every cell's submission-order checksum: the captured rankings."""
    return _stream_checksum(
        dep, [dep.captured[dep.pool[idx].query_id].result for idx in dep.stream]
    )


def _make_scheduler(
    cfg: ConcurrencyConfig, service_time_ms: float, stragglers: bool, dep: _Deployment
) -> Scheduler:
    return Scheduler(
        policy=DeliveryPolicy(
            timeout_ms=cfg.timeout_ms,
            max_retries=cfg.max_retries,
            backoff_base_ms=cfg.backoff_base_ms,
            backoff_factor=2.0,
            jitter_ms=0.5,
        ),
        service_time_ms=service_time_ms,
        queue_depth=cfg.queue_depth,
        slow_peers=dep.slow_peers if stragglers else None,
        seed=cfg.seed,
    )


def _cell_from_scheduler(
    sched: Scheduler,
    dep: _Deployment,
    *,
    mode: str,
    clients: int,
    arrival_rate_per_s: float,
    service_time_ms: float,
    stragglers: bool,
    wall_s: float,
) -> CellResult:
    latencies = sched.latencies()
    stats = sched.stats()
    makespan = stats["makespan_ms"]
    return CellResult(
        mode=mode,
        clients=clients,
        arrival_rate_per_s=arrival_rate_per_s,
        service_time_ms=service_time_ms,
        stragglers=stragglers,
        ops=len(latencies),
        makespan_ms=makespan,
        throughput_ops_per_s=(
            round(len(latencies) / makespan * 1000.0, 2) if makespan else 0.0
        ),
        latency_p50_ms=round(percentile(latencies, 50), 4),
        latency_p99_ms=round(percentile(latencies, 99), 4),
        latency_p99_9_ms=round(percentile(latencies, 99.9), 4),
        latency_mean_ms=(
            round(sum(latencies) / len(latencies), 4) if latencies else 0.0
        ),
        max_queue_depth=int(stats["max_queue_depth"]),
        mean_wait_ms=stats["mean_wait_ms"],
        utilization_mean=stats["utilization_mean"],
        utilization_max=stats["utilization_max"],
        messages_sent=int(stats["messages_sent"]),
        retries=int(stats["retries"]),
        timeouts=int(stats["timeouts"]),
        queue_drops=int(stats["queue_drops"]),
        ranking_checksum=_grid_checksum(dep),
        schedule_fingerprint=sched.fingerprint(),
        wall_s=round(wall_s, 4),
    )


def run_closed_cell(
    cfg: ConcurrencyConfig,
    dep: _Deployment,
    clients: int,
    service_time_ms: float,
    stragglers: bool = False,
) -> CellResult:
    """Closed-loop cell: *clients* concurrent issuers share the op
    stream through a global cursor — each dispatches its next op the
    moment its previous one completes (zero think time)."""
    t0 = perf_counter()
    sched = _make_scheduler(cfg, service_time_ms, stragglers, dep)
    cursor = {"next": 0}

    def issue_next(_completed=None) -> None:
        i = cursor["next"]
        if i >= len(dep.stream):
            return
        cursor["next"] = i + 1
        op = dep.captured[dep.pool[dep.stream[i]].query_id]
        future = sched.spawn(replay_timeline(op.timeline), label=op.label)
        future.add_done_callback(issue_next)

    for _client in range(min(clients, len(dep.stream))):
        issue_next()
    sched.run()
    return _cell_from_scheduler(
        sched,
        dep,
        mode="closed",
        clients=clients,
        arrival_rate_per_s=0.0,
        service_time_ms=service_time_ms,
        stragglers=stragglers,
        wall_s=perf_counter() - t0,
    )


def run_open_cell(
    cfg: ConcurrencyConfig,
    dep: _Deployment,
    arrival_rate_per_s: float,
    service_time_ms: float,
    stragglers: bool = False,
) -> CellResult:
    """Open-loop cell: the op stream arrives on a seeded Poisson
    process at *arrival_rate_per_s*, regardless of completions — the
    regime where overload shows up as queue growth and drops instead of
    self-throttling."""
    if arrival_rate_per_s <= 0:
        raise ValueError("arrival_rate_per_s must be > 0")
    t0 = perf_counter()
    sched = _make_scheduler(cfg, service_time_ms, stragglers, dep)
    arrival_rng = random.Random(cfg.seed + 2)
    mean_gap_ms = 1000.0 / arrival_rate_per_s
    at = 0.0
    for idx in dep.stream:
        op = dep.captured[dep.pool[idx].query_id]
        sched.spawn(replay_timeline(op.timeline), label=op.label, delay_ms=at)
        at += -math.log(1.0 - arrival_rng.random()) * mean_gap_ms
    sched.run()
    return _cell_from_scheduler(
        sched,
        dep,
        mode="open",
        clients=0,
        arrival_rate_per_s=arrival_rate_per_s,
        service_time_ms=service_time_ms,
        stragglers=stragglers,
        wall_s=perf_counter() - t0,
    )


def run_concurrency_grid(cfg: ConcurrencyConfig) -> ConcurrencyResult:
    """Execute the full tracked grid: closed-loop clients × service
    times, the straggler column, and the open-loop arrival-rate cells.
    Deterministic for a given config."""
    dep, capture_s = _build_deployment(cfg)

    sync_checksum = ""
    sync_s = 0.0
    if cfg.verify_sync:
        # The call-stack path, same stream, same system: the grid's
        # checksum must equal this or the replay layer changed results.
        t0 = perf_counter()
        rankings = []
        for idx in dep.stream:
            query = dep.pool[idx]
            ranked = dep.processor.search(
                dep.issuer_of[query.query_id], query, top_k=cfg.top_k, cache=False
            )
            rankings.append(ranked)
        sync_checksum = _stream_checksum(dep, rankings)
        sync_s = perf_counter() - t0

    result = ConcurrencyResult(
        num_peers=cfg.num_peers,
        num_ops=cfg.num_ops,
        distinct_queries=cfg.distinct_queries,
        capture_s=round(capture_s, 4),
        sync_s=round(sync_s, 4),
        ranking_checksum=_grid_checksum(dep),
        sync_ranking_checksum=sync_checksum,
    )
    for service_time_ms in cfg.service_times_ms:
        for clients in cfg.clients_grid:
            result.cells.append(
                run_closed_cell(cfg, dep, clients, service_time_ms)
            )
    # The straggler column: the fast service tier with slow peers on.
    for clients in cfg.clients_grid:
        result.cells.append(
            run_closed_cell(
                cfg, dep, clients, cfg.service_times_ms[0], stragglers=True
            )
        )
    for rate in cfg.open_loop_rates_per_s:
        result.cells.append(
            run_open_cell(cfg, dep, rate, cfg.service_times_ms[0])
        )
    return result

