"""Per-figure experiment runners.

One function per paper artifact (see DESIGN.md's experiment index):

* :func:`run_fig4a` — precision/recall ratio vs number of answers;
* :func:`run_fig4b` — precision ratio vs number of indexed terms under
  the "w/o-r" and "w-zipf" query streams;
* :func:`run_fig4c` — ratio over learning iterations with a query-
  pattern change at iteration 6;
* :func:`run_cost_comparison` — index construction/maintenance traffic,
  SPRITE vs eSearch vs index-everything (the Section 1 motivation);
* :func:`run_hop_scaling` — Chord's mean lookup hops against ring size
  (the Section 2 ``log N`` claim);
* :func:`run_route_sweep` — finger arity against hops, fingers and
  repair writes (DESIGN.md §8, ReCord's trade).

The benches in ``benchmarks/`` are thin wrappers that time these and
print the rows; examples reuse them too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from hashlib import sha256
from typing import Dict, List, Literal, Optional, Sequence, Tuple

from ..config import ChordConfig, SpriteConfig
from ..core.indexer import IndexingProtocol
from ..core.metadata import PostingEntry
from ..core.query_processing import QueryProcessor
from ..core.system import SpriteSystem
from ..corpus.relevance import Query
from ..corpus.sampling import CategoricalSampler, zipf_weights
from ..dht.messages import MessageKind, units_carried, wire_size
from ..dht.ring import ChordRing
from ..net import build_transport
from ..net.trace import percentile
from ..ir.ranking import RankedList
from .experiment import Environment
from .metrics import RelativeResult, relative_to_centralized

StreamKind = Literal["default", "w/o-r", "w-zipf"]


# ---------------------------------------------------------------------------
# System construction helpers
# ---------------------------------------------------------------------------

def build_trained_sprite(
    env: Environment,
    sprite_config: SpriteConfig | None = None,
    training_queries: Optional[Sequence[Query]] = None,
) -> SpriteSystem:
    """The paper's Section 6.2 pipeline: share documents with the
    initial terms, insert the training queries, run the configured
    learning iterations.  The system's ring runs over the transport the
    environment's :class:`~repro.config.NetworkConfig` describes (the
    perfect transport by default)."""
    cfg = sprite_config if sprite_config is not None else env.config.sprite
    system = SpriteSystem(
        env.corpus,
        sprite_config=cfg,
        chord_config=env.config.chord,
        transport=build_transport(env.config.network),
    )
    system.share_corpus()
    queries = (
        training_queries if training_queries is not None else list(env.train.queries)
    )
    system.register_queries(queries)
    system.run_learning()
    return system


def build_esearch(
    env: Environment, index_terms: int | None = None
) -> SpriteSystem:
    """The static baseline at a given term budget (default: the budget
    the environment's SPRITE reaches after learning)."""
    system = SpriteSystem(
        env.corpus,
        sprite_config=env.config.sprite.static_baseline(index_terms),
        chord_config=env.config.chord,
        transport=build_transport(env.config.network),
    )
    system.share_corpus()
    return system


def _rank_all(
    system, queries: Sequence[Query], top_k: int, cache: bool = False
) -> Dict[str, RankedList]:
    return {
        q.query_id: system.search(q, top_k=top_k, cache=cache) for q in queries
    }


# ---------------------------------------------------------------------------
# Figure 4(a): effectiveness vs number of answers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig4aRow:
    """One cutoff's worth of Figure 4(a)."""

    num_answers: int
    sprite: RelativeResult
    esearch: RelativeResult


def run_fig4a(
    env: Environment,
    answer_counts: Sequence[int] = (5, 10, 15, 20, 25, 30),
) -> List[Fig4aRow]:
    """Reproduce Figure 4(a): both systems trained at the default 20-term
    budget, evaluated at varying answer-list sizes K."""
    sprite = build_trained_sprite(env)
    esearch = build_esearch(env)
    deepest = max(answer_counts)
    test_queries = list(env.test.queries)

    sprite_rankings = _rank_all(sprite, test_queries, deepest)
    esearch_rankings = _rank_all(esearch, test_queries, deepest)
    central_rankings = env.centralized_rankings(test_queries)

    rows: List[Fig4aRow] = []
    for k in answer_counts:
        rows.append(
            Fig4aRow(
                num_answers=k,
                sprite=relative_to_centralized(
                    sprite_rankings, central_rankings, env.test.qrels, k
                ),
                esearch=relative_to_centralized(
                    esearch_rankings, central_rankings, env.test.qrels, k
                ),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Figure 4(b): effectiveness vs number of indexed terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig4bRow:
    """One (stream, term budget) cell of Figure 4(b)."""

    stream: StreamKind
    index_terms: int
    sprite: RelativeResult
    esearch: RelativeResult


def _training_stream(env: Environment, stream: StreamKind) -> List[Query]:
    from ..querygen.workload import without_repeats_stream, zipf_stream

    if stream == "w/o-r":
        return without_repeats_stream(env.train, seed=env.config.workload.seed)
    if stream == "w-zipf":
        return zipf_stream(env.train, env.config.workload)
    return list(env.train.queries)


def run_fig4b(
    env: Environment,
    term_counts: Sequence[int] = (5, 10, 15, 20, 25, 30),
    streams: Sequence[StreamKind] = ("w/o-r", "w-zipf"),
) -> List[Fig4bRow]:
    """Reproduce Figure 4(b): vary the indexed-term budget T under the
    no-repeats and Zipf query streams.  At T = 5 no learning happens and
    the two systems coincide by construction."""
    k = env.config.sprite.top_k_answers
    test_queries = list(env.test.queries)
    central_rankings = env.centralized_rankings(test_queries)

    rows: List[Fig4bRow] = []
    for stream in streams:
        training = _training_stream(env, stream)
        for terms in term_counts:
            sprite_cfg = env.config.sprite.with_max_terms(terms)
            sprite = build_trained_sprite(env, sprite_cfg, training)
            esearch = build_esearch(env, index_terms=terms)
            rows.append(
                Fig4bRow(
                    stream=stream,
                    index_terms=terms,
                    sprite=relative_to_centralized(
                        _rank_all(sprite, test_queries, k),
                        central_rankings,
                        env.test.qrels,
                        k,
                    ),
                    esearch=relative_to_centralized(
                        _rank_all(esearch, test_queries, k),
                        central_rankings,
                        env.test.qrels,
                        k,
                    ),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 4(c): adapting to a query-pattern change
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig4cRow:
    """One learning iteration of Figure 4(c)."""

    iteration: int
    active_group: str
    sprite: RelativeResult
    esearch: RelativeResult
    sprite_terms: int
    esearch_terms: int


def run_fig4c(
    env: Environment,
    iterations: int = 10,
    switch_at: int = 6,
    max_terms: int = 30,
) -> List[Fig4cRow]:
    """Reproduce Figure 4(c): the query set splits into two origin-
    aligned groups; group A drives iterations 1..switch_at-1, group B
    the rest.  The index grows 5 terms per iteration to *max_terms*,
    then replacement-only (and eSearch's term set freezes)."""
    from ..querygen.workload import pattern_change_groups

    group_a, group_b = pattern_change_groups(env.full_set, seed=env.config.split_seed)
    k = env.config.sprite.top_k_answers

    sprite_cfg = SpriteConfig(
        initial_terms=env.config.sprite.initial_terms,
        terms_per_iteration=env.config.sprite.terms_per_iteration,
        learning_iterations=iterations,
        max_index_terms=max_terms,
        query_cache_size=env.config.sprite.query_cache_size,
        assumed_corpus_size=env.config.sprite.assumed_corpus_size,
        top_k_answers=k,
    )
    sprite = SpriteSystem(
        env.corpus, sprite_config=sprite_cfg, chord_config=env.config.chord
    )
    sprite.share_corpus()

    esearch_terms = env.config.sprite.initial_terms
    esearch = build_esearch(env, index_terms=esearch_terms)

    rows: List[Fig4cRow] = []
    for iteration in range(1, iterations + 1):
        group = group_a if iteration < switch_at else group_b
        group_name = "A" if iteration < switch_at else "B"
        queries = list(group.queries)

        # Process-and-evaluate: SPRITE caches the queries it serves
        # (that is the learning signal); eSearch has nothing to cache.
        sprite_rankings = _rank_all(sprite, queries, k, cache=True)
        esearch_rankings = _rank_all(esearch, queries, k, cache=False)
        central_rankings = env.centralized_rankings(queries)

        sprite_sizes = sprite.learning_summary()
        mean_sprite_terms = (
            round(sum(sprite_sizes.values()) / len(sprite_sizes))
            if sprite_sizes
            else 0
        )
        rows.append(
            Fig4cRow(
                iteration=iteration,
                active_group=group_name,
                sprite=relative_to_centralized(
                    sprite_rankings, central_rankings, group.qrels, k
                ),
                esearch=relative_to_centralized(
                    esearch_rankings, central_rankings, group.qrels, k
                ),
                sprite_terms=mean_sprite_terms,
                esearch_terms=esearch_terms,
            )
        )

        # Learn (grow until the cap, replacement-only afterwards), and
        # grow eSearch's static budget on the same schedule.
        target = min(
            max_terms,
            env.config.sprite.initial_terms
            + env.config.sprite.terms_per_iteration * iteration,
        )
        sprite.run_learning_iteration(target_size=target)
        if target > esearch_terms:
            esearch_terms = target
            esearch = build_esearch(env, index_terms=esearch_terms)
    return rows


# ---------------------------------------------------------------------------
# Index construction / maintenance cost (the Section 1 motivation)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostRow:
    """One indexing strategy's construction cost: what the Section 1
    model charges — one message per published posting — beside the
    PUBLISH_BATCH traffic that measurably shipped those postings."""

    strategy: str
    published_terms: int    # (document, term) pairs indexed at the end
    postings: int           # pairs ever published, replaced terms included
    model_bytes: int        # postings × (term + posting)
    postings_per_document: float
    batch_messages: int
    batch_hops: int
    batch_bytes: int


def _cost_row(strategy: str, system: SpriteSystem) -> CostRow:
    """Read a system's publication cost off its ring statistics.  A
    PUBLISH_BATCH is a header plus one (term, posting) record per
    posting, so the posting count follows from the byte total exactly;
    the Section 1 model ships each as its own PUBLISH_TERM."""
    batch = system.ring.stats.kind(MessageKind.PUBLISH_BATCH)
    postings = units_carried(MessageKind.PUBLISH_BATCH, batch.messages, batch.bytes)
    return CostRow(
        strategy=strategy,
        published_terms=system.total_published_terms(),
        postings=postings,
        model_bytes=postings * wire_size(MessageKind.PUBLISH_TERM),
        postings_per_document=postings / len(system.corpus),
        batch_messages=batch.messages,
        batch_hops=batch.hops,
        batch_bytes=batch.bytes,
    )


def run_cost_comparison(env: Environment) -> List[CostRow]:
    """Measure the publication cost of (a) SPRITE's selective index,
    (b) eSearch's static top-20, and (c) indexing *every* unique term —
    the infeasible strawman the introduction argues against.

    The figure compares term-*selection* policies under the Section 1
    cost model, where every published (doc, term) pair is one message;
    that count is the number of postings the write path ships (pinned
    against the per-term reference owner in ``tests/``).  The grouped
    protocol's measured messages, hops and bytes are reported beside it.
    """
    return [
        _cost_row("sprite", build_trained_sprite(env)),
        _cost_row("esearch", build_esearch(env)),
        _cost_row("index-everything", build_esearch(env, index_terms=10**6)),
    ]


# ---------------------------------------------------------------------------
# Routing: hops against ring size, and against finger arity (DESIGN.md §8)
# ---------------------------------------------------------------------------

def run_hop_scaling(
    ring_sizes: Sequence[int], lookups: int, seed: int
) -> List[Tuple[int, float]]:
    """Mean hops of *lookups* random lookups on a Chord ring of each
    size: ``(N, mean hops)`` rows.  Each lookup draws its key, then its
    start peer, from one RNG seeded like the ring."""
    rows = []
    for n in ring_sizes:
        ring = ChordRing(ChordConfig(num_peers=n, id_bits=32, seed=seed))
        rng = random.Random(seed)
        total = 0
        for __ in range(lookups):
            key = rng.randrange(ring.space.size)
            total += ring.lookup(ring.random_live_id(rng), key, record=False).hops
        rows.append((n, total / lookups))
    return rows


#: The route sweep's grid: peer counts × finger arities (2 is Chord).
ROUTE_PEERS: Tuple[int, ...] = (2_000, 10_000)
ROUTE_ARITIES: Tuple[int, ...] = (2, 4, 8, 32)
#: The workload every cell runs, so the columns of a peer count compare.
ROUTE_SEED = 4111
ROUTE_DOCUMENTS = 120
ROUTE_VOCABULARY = 600
ROUTE_TERMS_PER_DOCUMENT = 12
ROUTE_QUERIES = 2_000
ROUTE_DISTINCT_QUERIES = 300
ROUTE_MAX_QUERY_TERMS = 3
ROUTE_QUERY_PEERS = 48
ROUTE_CHURN_EVERY = 250
ROUTE_TOP_K = 20
ROUTE_ZIPF_EXPONENT = 0.8


@dataclass(frozen=True)
class RouteRow:
    """One (peer count, finger arity) cell of the route sweep."""

    num_peers: int
    arity: int
    #: Lookups of the query stream (publish-phase lookups excluded).
    lookups: int
    #: LOOKUP hop-messages over the whole cell: one per routing hop.
    lookup_messages: int
    #: Exact (``lookup_messages / lookups``); the table rounds it, and
    #: each reduction, only when it prints them.
    mean_hops: float
    p99_hops: float
    #: Fingers per node: the state bought to shorten routes.
    fingers: int
    #: Routing-table entry writes by the first build and by churn repair.
    build_entries: int
    churn_entries: int
    #: SHA-256 over every query's ranking: equal across arities.
    ranking_checksum: str


def run_route_cell(num_peers: int, arity: int) -> RouteRow:
    """Build the whole ring with the route cache off (a cache hit is
    one hop), publish a Zipf term index, then run the query stream with
    a join, a leave and a stabilize every :data:`ROUTE_CHURN_EVERY`
    queries.  The RNG never sees the finger schedule, so every arity of
    one peer count sees the same membership, documents, queries and
    churn: routing moves messages, never rankings."""
    rng = random.Random(ROUTE_SEED * 1_000_003 + num_peers)
    ring = ChordRing(
        ChordConfig(
            num_peers=num_peers, seed=ROUTE_SEED, route_cache_size=0, finger_arity=arity
        )
    )
    protocol = IndexingProtocol(ring)
    processor = QueryProcessor(protocol, assumed_corpus_size=1_000_000)
    build_entries = ring.routing_entries_written

    vocabulary = [f"term{i:04d}" for i in range(ROUTE_VOCABULARY)]
    term_sampler = CategoricalSampler(
        vocabulary, zipf_weights(ROUTE_VOCABULARY, ROUTE_ZIPF_EXPONENT)
    )
    for d in range(ROUTE_DOCUMENTS):
        owner_id = ring.random_live_id(rng)
        doc_length = rng.randint(80, 240)
        terms = dict.fromkeys(term_sampler.sample_many(rng, ROUTE_TERMS_PER_DOCUMENT))
        doc_id = f"doc{d:05d}"
        batch = [
            (term, PostingEntry(doc_id, owner_id, rng.randint(1, 12), doc_length))
            for term in terms
        ]
        protocol.publish_batch(owner_id, batch)

    pool = []
    for q in range(ROUTE_DISTINCT_QUERIES):
        terms = term_sampler.sample_many(rng, rng.randint(1, ROUTE_MAX_QUERY_TERMS))
        pool.append(Query(f"routeq{q:04d}", tuple(dict.fromkeys(terms))))
    issuers = rng.sample(ring.live_ids, min(ROUTE_QUERY_PEERS, num_peers))
    picks = CategoricalSampler(
        range(ROUTE_DISTINCT_QUERIES),
        zipf_weights(ROUTE_DISTINCT_QUERIES, ROUTE_ZIPF_EXPONENT),
    ).sample_many(rng, ROUTE_QUERIES)

    checksum = sha256()
    protected = set(issuers)
    hops_before = ring.stats.lookup_hop_histogram
    messages_before = ring.stats.kind(MessageKind.LOOKUP).hops
    entries_before_churn = ring.routing_entries_written
    for i, pick in enumerate(picks):
        if i and i % ROUTE_CHURN_EVERY == 0:
            ring.join(name=f"churner-{i}")
            ring.leave(rng.choice([n for n in ring.live_ids if n not in protected]))
            ring.stabilize()
        query = pool[pick]
        ranked, __ = processor.execute(
            issuers[i % len(issuers)], query, top_k=ROUTE_TOP_K
        )
        checksum.update(query.query_id.encode())
        for entry in ranked:
            checksum.update(f"{entry.doc_id}:{entry.score!r}".encode())

    hops = list((ring.stats.lookup_hop_histogram - hops_before).elements())
    return RouteRow(
        num_peers=num_peers,
        arity=arity,
        lookups=len(hops),
        lookup_messages=ring.stats.kind(MessageKind.LOOKUP).hops - messages_before,
        mean_hops=sum(hops) / len(hops) if hops else 0.0,
        p99_hops=percentile(hops, 99),
        fingers=len(ring.finger_steps),
        build_entries=build_entries,
        churn_entries=ring.routing_entries_written - entries_before_churn,
        ranking_checksum=checksum.hexdigest(),
    )


def run_route_sweep() -> List[RouteRow]:
    """Every cell of the grid, serially, peer count major."""
    return [run_route_cell(n, arity) for n in ROUTE_PEERS for arity in ROUTE_ARITIES]
