"""The routing benchmark: finger-arity × peers hop-count sweep.

``repro perf`` runs one identical publish + Zipf-query + churn
workload over a grid of overlay configurations — rings at several
finger arities (``chord`` is arity 2, ``record:b`` arity *b*) and peer
counts — and reports, per cell, the routing quantities
``ChordConfig.finger_arity`` actually trades (DESIGN.md §8):

* **mean / p99 hops** per lookup, the latency proxy routing exists to
  minimize;
* **lookup messages**, the per-hop wire cost of all routing performed;
* **finger-table size**, the per-node state the shorter routes are
  bought with;
* **stabilize traffic** (routing-table entry writes during the initial
  build and during churn repair), the maintenance cost of that state.

Every ring in a same-``num_peers`` group is built from the same seed
(hence the same membership) and driven by the same RNG stream, so the
**ranking checksums must match bit for bit across rings** — routing
changes where messages go, never what is returned.  The grid runner
verifies this cross-ring equivalence on every run, and
``benchmarks/test_bench_route.py`` gates on it in CI.

Parallelism is per **cell**: each grid cell builds its *whole* ring in
one process, because splitting a ring would shrink it and corrupt the
very hop counts being measured.  A cell is a pure function of
``(config, peers, arity)``, so results are identical for any worker
count; workers only place cells.  Route caches are disabled in every
cell — a cache hit short-circuits to one hop, so measuring genuine
routing requires routing every lookup.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from hashlib import sha256
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from ..config import ChordConfig
from ..core.indexer import IndexingProtocol
from ..core.metadata import PostingEntry
from ..core.query_processing import QueryProcessor
from ..corpus.relevance import Query
from ..corpus.sampling import CategoricalSampler, zipf_weights
from ..dht.messages import MessageKind
from ..dht.ring import ChordRing, ring_label
from ..exceptions import ConfigurationError
from ..net.trace import percentile


def parse_ring_specs(text: str) -> Tuple[int, ...]:
    """Parse a ring-grid spec like ``"chord,record:4,record:8"`` into
    finger arities, ``(2, 4, 8)`` — the inverse of
    :func:`~repro.dht.ring_label`.

    Grammar per comma-separated item: ``chord`` (arity 2) or
    ``record[:ARITY]`` (arity defaults to 2).  Raises
    :class:`~repro.exceptions.ConfigurationError` on an unknown kind, a
    non-integer or < 2 arity, an arity attached to ``chord``, or a
    repeated arity — the CLI surfaces these as usage errors.
    """
    arities: List[int] = []
    for item in text.split(","):
        item = item.strip()
        kind, __, arity_text = item.partition(":")
        if kind not in ("chord", "record"):
            raise ConfigurationError(
                f"unknown ring kind {kind!r}; expected 'chord' or 'record:ARITY'"
            )
        if kind == "chord" and arity_text:
            raise ConfigurationError(
                "ring arity only applies to 'record' (chord is fixed at 2)"
            )
        try:
            arity = int(arity_text or 2)
        except ValueError:
            raise ConfigurationError(
                f"ring arity must be an integer, got {arity_text!r}"
            ) from None
        if arity < 2:
            raise ConfigurationError("ring arity must be >= 2")
        if arity in arities:
            raise ConfigurationError(f"duplicate ring spec: {item!r}")
        arities.append(arity)
    return tuple(arities)


@dataclass(frozen=True)
class RouteWorkloadConfig:
    """Shape of one routing sweep.

    ``peers_grid`` × ``ring_specs`` define the cells; the workload knobs
    (documents, queries, churn) are shared by every cell so columns are
    comparable.  ``workers`` is pure execution placement (cells are
    independent); results are identical for any worker count.  A config
    is validated when built, so a bad grid, ring spec or worker count
    fails before anything runs.
    """

    peers_grid: Tuple[int, ...] = (2_000, 10_000)
    ring_specs: Tuple[str, ...] = ("chord", "record:4", "record:8", "record:32")
    num_documents: int = 120
    vocabulary_size: int = 600
    terms_per_document: int = 12
    num_queries: int = 2_000
    distinct_queries: int = 300
    max_query_terms: int = 3
    num_query_peers: int = 48
    churn_every: int = 250
    top_k: int = 20
    zipf_exponent: float = 0.8
    seed: int = 4111
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.peers_grid:
            raise ConfigurationError("peers_grid must not be empty")
        if len(set(self.peers_grid)) != len(self.peers_grid):
            raise ConfigurationError(
                f"peers_grid repeats a peer count: {tuple(self.peers_grid)}"
            )
        if not self.ring_specs:
            raise ConfigurationError("ring_specs must not be empty")
        parse_ring_specs(",".join(self.ring_specs))
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")

    def replaced(self, **kwargs) -> "RouteWorkloadConfig":
        merged = {**asdict(self), **kwargs}
        for key in ("peers_grid", "ring_specs"):
            merged[key] = tuple(merged[key])
        return RouteWorkloadConfig(**merged)


def route_paper_config() -> RouteWorkloadConfig:
    """The tracked grid: 2k and 10k peers × four ring columns."""
    return RouteWorkloadConfig()


def route_smoke_config() -> RouteWorkloadConfig:
    """A seconds-scale shrink for CI: one peer count, two columns."""
    return RouteWorkloadConfig(
        peers_grid=(600,),
        ring_specs=("chord", "record:8"),
        num_documents=50,
        vocabulary_size=300,
        num_queries=500,
        distinct_queries=80,
        num_query_peers=16,
        churn_every=125,
    )


@dataclass
class RouteCellResult:
    """One grid cell's measurements (plain fields: crosses processes)."""

    ring: str
    arity: int
    num_peers: int
    build_s: float
    query_s: float
    lookups: int
    #: Per-hop LOOKUP wire messages across the whole cell (each routing
    #: hop is one message on a real network).
    lookup_messages: int
    #: Hop statistics over the query phase only (publish-phase lookups
    #: excluded so columns measure steady-state routing).
    mean_hops: float
    p99_hops: float
    #: Fingers per node — the state bought to shorten routes.
    finger_table_size: int
    #: Routing-table entry writes during the initial full build.
    build_entries: int
    #: Entry writes by churn repair during the stream (the recurring
    #: maintenance traffic a deployment pays forever).
    churn_entries: int
    churn_events: int
    ranking_checksum: str


def run_route_cell(
    cfg: RouteWorkloadConfig, num_peers: int, arity: int
) -> RouteCellResult:
    """Run one grid cell inline: build the whole ring, publish, run the
    query stream with interleaved churn, and measure routing.

    Deterministic in ``(cfg, num_peers, arity)``; and because the
    RNG stream never observes the finger schedule, every cell in a
    same-``num_peers`` group sees the identical membership, documents,
    query stream, and churn schedule — which is what makes the
    cross-ring checksum equality a meaningful oracle.
    """
    rng = random.Random(cfg.seed * 1_000_003 + num_peers)

    t0 = perf_counter()
    ring = ChordRing(
        ChordConfig(
            num_peers=num_peers,
            seed=cfg.seed,
            route_cache_size=0,  # measure genuine routing, not cache hits
            finger_arity=arity,
        )
    )
    protocol = IndexingProtocol(ring)
    processor = QueryProcessor(protocol, assumed_corpus_size=1_000_000)
    build_s = perf_counter() - t0
    build_entries = ring.routing_entries_written

    # -- publish a synthetic term index (Zipf-skewed vocabulary) ----------
    vocabulary = [f"term{i:04d}" for i in range(cfg.vocabulary_size)]
    weights = zipf_weights(cfg.vocabulary_size, cfg.zipf_exponent)
    term_sampler = CategoricalSampler(vocabulary, weights)
    for d in range(cfg.num_documents):
        doc_id = f"doc{d:05d}"
        owner_id = ring.random_live_id(rng)
        doc_length = rng.randint(80, 240)
        terms = list(
            dict.fromkeys(
                term_sampler.sample_many(rng, cfg.terms_per_document)
            )
        )
        batch = [
            (
                term,
                PostingEntry(
                    doc_id=doc_id,
                    owner_peer=owner_id,
                    raw_tf=rng.randint(1, 12),
                    doc_length=doc_length,
                ),
            )
            for term in terms
        ]
        protocol.publish_batch(owner_id, batch)

    # -- query pool: distinct queries with Zipf popularity ----------------
    pool: List[Query] = []
    for q in range(cfg.distinct_queries):
        k = rng.randint(1, cfg.max_query_terms)
        terms = tuple(dict.fromkeys(term_sampler.sample_many(rng, k)))
        pool.append(Query(query_id=f"routeq{q:04d}", terms=terms))
    issuers = rng.sample(ring.live_ids, min(cfg.num_query_peers, num_peers))
    pick_sampler = CategoricalSampler(
        range(cfg.distinct_queries),
        zipf_weights(cfg.distinct_queries, cfg.zipf_exponent),
    )
    picks = pick_sampler.sample_many(rng, cfg.num_queries)

    # -- query stream with interleaved churn ------------------------------
    checksum = sha256()
    protected = set(issuers)
    hops_before = ring.stats.lookup_hop_histogram
    messages_before = ring.stats.kind(MessageKind.LOOKUP).hops
    entries_before_churn = ring.routing_entries_written
    churn_events = 0
    t0 = perf_counter()
    for i, pick in enumerate(picks):
        if cfg.churn_every and i and i % cfg.churn_every == 0:
            ring.join(name=f"churner-{i}")
            candidates = [n for n in ring.live_ids if n not in protected]
            ring.leave(rng.choice(candidates))
            ring.stabilize()
            churn_events += 1
        query = pool[pick]
        ranked, __ = processor.execute(
            issuers[i % len(issuers)], query, top_k=cfg.top_k
        )
        checksum.update(query.query_id.encode())
        for entry in ranked:
            checksum.update(f"{entry.doc_id}:{entry.score!r}".encode())
    query_s = perf_counter() - t0

    hop_samples = list((ring.stats.lookup_hop_histogram - hops_before).elements())
    mean_hops = sum(hop_samples) / len(hop_samples) if hop_samples else 0.0
    return RouteCellResult(
        ring=ring_label(arity),
        arity=arity,
        num_peers=num_peers,
        build_s=round(build_s, 4),
        query_s=round(query_s, 4),
        lookups=len(hop_samples),
        lookup_messages=ring.stats.kind(MessageKind.LOOKUP).hops
        - messages_before,
        mean_hops=round(mean_hops, 4),
        p99_hops=percentile(hop_samples, 99),
        finger_table_size=len(ring.finger_steps),
        build_entries=build_entries,
        churn_entries=ring.routing_entries_written - entries_before_churn,
        churn_events=churn_events,
        ranking_checksum=checksum.hexdigest(),
    )


def _cell_worker(payload: Tuple[Dict, int, int]) -> Dict:
    """Pool entry point (module-level so it pickles under spawn)."""
    cfg_dict, num_peers, arity = payload
    cfg = RouteWorkloadConfig(**cfg_dict).replaced()
    return asdict(run_route_cell(cfg, num_peers, arity))


@dataclass
class RouteWorkloadResult:
    """Merged outcome of one routing sweep (JSON-friendly)."""

    peers_grid: List[int]
    rings: List[str]
    num_queries: int
    workers: int
    wall_s: float
    cells: List[Dict[str, object]]
    #: Whether every same-``num_peers`` group of cells produced one
    #: identical ranking checksum — the cross-ring oracle.
    checksums_match: bool

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def cell(self, num_peers: int, ring: str) -> Dict[str, object]:
        """The one cell for (peer count, ring label); KeyError if absent."""
        for cell in self.cells:
            if cell["num_peers"] == num_peers and cell["ring"] == ring:
                return cell
        raise KeyError(f"no cell for peers={num_peers} ring={ring!r}")

    def hop_reduction(
        self, num_peers: int, ring: str, baseline: str = "chord"
    ) -> float:
        """Fractional mean-hop reduction of *ring* vs *baseline* at one
        peer count (0.25 = 25% fewer hops)."""
        base = float(self.cell(num_peers, baseline)["mean_hops"])
        target = float(self.cell(num_peers, ring)["mean_hops"])
        return 1.0 - target / base if base else 0.0

    def summary_table(self) -> str:
        """Deterministic fixed-format report for the CLI."""
        header = (
            f"{'peers':>7} {'ring':<10} {'hops_mean':>9} {'hops_p99':>8} "
            f"{'lookup_msgs':>11} {'fingers':>7} {'build_entries':>13} "
            f"{'churn_entries':>13} {'checksum':>10}"
        )
        lines = [header]
        for cell in self.cells:
            lines.append(
                f"{cell['num_peers']:>7} {cell['ring']:<10} "
                f"{cell['mean_hops']:>9.3f} {cell['p99_hops']:>8.0f} "
                f"{cell['lookup_messages']:>11} {cell['finger_table_size']:>7} "
                f"{cell['build_entries']:>13} {cell['churn_entries']:>13} "
                f"{str(cell['ranking_checksum'])[:10]:>10}"
            )
        verdict = "MATCH" if self.checksums_match else "MISMATCH"
        lines.append(f"cross-ring ranking checksums: {verdict}")
        return "\n".join(lines)


def run_route_workload(cfg: RouteWorkloadConfig) -> RouteWorkloadResult:
    """Run the full grid (optionally on a process pool) and verify the
    cross-ring checksum equivalence per peer count."""
    arities = parse_ring_specs(",".join(cfg.ring_specs))

    cells_spec = [(peers, arity) for peers in cfg.peers_grid for arity in arities]
    t0 = perf_counter()
    workers = min(cfg.workers, len(cells_spec))
    if workers <= 1:
        rows = [
            asdict(run_route_cell(cfg, peers, arity)) for peers, arity in cells_spec
        ]
    else:
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context("spawn")
        payloads = [(asdict(cfg), peers, arity) for peers, arity in cells_spec]
        with context.Pool(processes=workers) as pool:
            rows = pool.map(_cell_worker, payloads)
    wall_s = perf_counter() - t0

    match = True
    for peers in cfg.peers_grid:
        sums = {
            row["ranking_checksum"]
            for row in rows
            if row["num_peers"] == peers
        }
        if len(sums) > 1:
            match = False
    return RouteWorkloadResult(
        peers_grid=list(cfg.peers_grid),
        rings=[ring_label(arity) for arity in arities],
        num_queries=cfg.num_queries,
        workers=workers,
        wall_s=round(wall_s, 4),
        cells=rows,
        checksums_match=match,
    )
