"""Frozen configuration objects for every subsystem.

All experiment knobs live here, with defaults matching the paper's
Section 6.2 setup wherever the paper states a value:

* 5 initial terms, 3 learning iterations of 5 new terms each → 20 terms;
* eSearch indexes 20 terms;
* query generator: k = 9 new queries per original, overlap O = 0.7,
  S = 5 candidate replacement terms, E = 1000 ranked-list depth;
* top K = 20 answers retrieved per query;
* Zipf slope 0.5 for the "w-zipf" query stream.

Corpus-scale defaults are scaled down from TREC-9 (348,565 documents) to
a size that runs in seconds on one machine; see DESIGN.md Section 2 for
the substitution argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from .exceptions import ConfigurationError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


#: Posting-store backends :class:`SpriteConfig` may name.
STORE_BACKENDS: Tuple[str, ...] = ("memory", "sqlite")


@dataclass(frozen=True)
class SyntheticCorpusConfig:
    """Knobs for the synthetic TREC-like corpus generator.

    The generator builds a topic-model corpus: ``num_topics`` latent
    topics over a shared vocabulary, Zipf-skewed within-topic term
    distributions, documents mixing up to ``max_topics_per_doc`` topics,
    and one "original query" per paper-style TREC topic with expert
    qrels derived from topic affinity.
    """

    num_documents: int = 2500
    num_topics: int = 42
    vocabulary_size: int = 4000
    topic_core_size: int = 60
    background_fraction: float = 0.3
    mean_doc_length: int = 160
    min_doc_length: int = 40
    max_topics_per_doc: int = 3
    zipf_exponent: float = 1.1
    num_original_queries: int = 63
    query_min_terms: int = 3
    query_max_terms: int = 6
    #: Zipf skew of query-term choice within a topic core.  Low values
    #: mean experts query with discriminative mid-rank terms rather than
    #: the very terms a frequency-based indexer would pick — the regime
    #: where learning from queries pays off (paper observation 2).
    query_term_skew: float = 0.35
    relevant_per_query: int = 25
    seed: int = 20070415

    def __post_init__(self) -> None:
        _require(self.num_documents >= 1, "num_documents must be >= 1")
        _require(self.num_topics >= 1, "num_topics must be >= 1")
        _require(
            self.vocabulary_size >= self.num_topics * 4,
            "vocabulary_size too small for the number of topics",
        )
        _require(
            self.topic_core_size * self.num_topics
            <= self.vocabulary_size,
            "topic cores exceed the vocabulary; increase vocabulary_size",
        )
        _require(0.0 <= self.background_fraction < 1.0, "background_fraction in [0,1)")
        _require(self.min_doc_length >= 1, "min_doc_length must be >= 1")
        _require(
            self.mean_doc_length >= self.min_doc_length,
            "mean_doc_length must be >= min_doc_length",
        )
        _require(self.max_topics_per_doc >= 1, "max_topics_per_doc must be >= 1")
        _require(self.zipf_exponent > 0, "zipf_exponent must be positive")
        _require(self.num_original_queries >= 1, "need at least one query")
        _require(
            1 <= self.query_min_terms <= self.query_max_terms,
            "query term bounds must satisfy 1 <= min <= max",
        )
        _require(self.query_term_skew >= 0.0, "query_term_skew must be >= 0")
        _require(self.relevant_per_query >= 1, "relevant_per_query must be >= 1")


@dataclass(frozen=True)
class QueryGenConfig:
    """Paper Section 6.1 query-generator parameters (defaults verbatim)."""

    queries_per_original: int = 9          # k = 9
    overlap_ratio: float = 0.7             # O = 70%
    candidate_pool_size: int = 5           # S = 5
    ranked_list_depth: int = 1000          # E = 1000
    seed: int = 977

    def __post_init__(self) -> None:
        _require(self.queries_per_original >= 1, "queries_per_original must be >= 1")
        _require(0.0 <= self.overlap_ratio <= 1.0, "overlap_ratio must be in [0,1]")
        _require(self.candidate_pool_size >= 1, "candidate_pool_size must be >= 1")
        _require(self.ranked_list_depth >= 1, "ranked_list_depth must be >= 1")


@dataclass(frozen=True)
class SpriteConfig:
    """SPRITE system parameters (paper Sections 5-6 defaults).

    ``assumed_corpus_size`` is the fixed large N of Section 4 ("we can
    simply use a sufficiently large N") used by both distributed systems
    in place of the unknowable true corpus size.
    """

    initial_terms: int = 5                 # F = 5 most frequent terms
    terms_per_iteration: int = 5           # 5 new terms per learning run
    learning_iterations: int = 3           # 3 iterations → 20 terms total
    max_index_terms: int = 20              # cap on published terms
    query_cache_size: int = 2000           # recent queries kept per indexing peer
    assumed_corpus_size: int = 1_000_000   # the "sufficiently large N"
    top_k_answers: int = 20                # answers returned per query
    #: Per-indexing-peer query-result cache capacity; 0 (the default)
    #: disables result caching.  Opt-in because serving a repeated query
    #: from a cached result changes the *message* profile the cost
    #: figures measure, even though the rankings stay identical.
    result_cache_size: int = 0
    #: Posting persistence backend (DESIGN.md §12).  ``"memory"`` (the
    #: default) keeps the in-RAM stores above; ``"sqlite"`` moves every
    #: indexing peer's postings into a shared WAL-mode SQLite database
    #: behind the same slot interface.  Rankings, slot versions, and
    #: write-state fingerprints are bit-identical across backends.
    store_backend: str = "memory"
    #: Directory for the SQLite database and (by default) snapshots.
    #: Empty string means a self-cleaning temporary directory.
    store_dir: str = ""
    #: Snapshot root override; empty string means ``<store_dir>/snapshots``.
    snapshot_dir: str = ""
    #: Bloom-filter existence check in front of SQLite point lookups
    #: (reuses :mod:`repro.dht.bloom`); irrelevant to the memory backend.
    store_bloom: bool = True

    def __post_init__(self) -> None:
        _require(self.initial_terms >= 1, "initial_terms must be >= 1")
        _require(self.terms_per_iteration >= 0, "terms_per_iteration must be >= 0")
        _require(self.learning_iterations >= 0, "learning_iterations must be >= 0")
        _require(
            self.max_index_terms >= self.initial_terms,
            "max_index_terms must be >= initial_terms",
        )
        _require(self.query_cache_size >= 1, "query_cache_size must be >= 1")
        _require(self.assumed_corpus_size >= 1, "assumed_corpus_size must be >= 1")
        _require(self.top_k_answers >= 1, "top_k_answers must be >= 1")
        _require(self.result_cache_size >= 0, "result_cache_size must be >= 0")
        _require(
            self.store_backend in STORE_BACKENDS,
            f"store_backend must be one of {STORE_BACKENDS}",
        )

    @property
    def total_terms_after_learning(self) -> int:
        """Terms indexed after all scheduled iterations (capped)."""
        return min(
            self.max_index_terms,
            self.initial_terms
            + self.terms_per_iteration * self.learning_iterations,
        )

    def with_max_terms(self, max_terms: int) -> "SpriteConfig":
        """A copy with a different term budget, keeping the paper's
        5-terms-per-iteration schedule consistent with the new cap."""
        iterations = max(0, -(-(max_terms - self.initial_terms) // max(1, self.terms_per_iteration)))
        return replace(
            self,
            max_index_terms=max_terms,
            learning_iterations=iterations,
        )

    def static_baseline(self, index_terms: int | None = None) -> "SpriteConfig":
        """Basic eSearch (Tang & Dwarkadas, NSDI'04; paper §2, §6) on
        this deployment: each document publishes its *index_terms* most
        frequent terms once and never tunes them.  The default budget is
        what this schedule reaches after learning, since the paper
        compares the two at equal cost.  (Full eSearch also replicates
        term lists at indexing peers and expands terms; the paper
        compares against the basic scheme and calls those orthogonal.)"""
        k = index_terms if index_terms is not None else self.total_terms_after_learning
        return replace(
            self,
            initial_terms=k,
            terms_per_iteration=0,
            learning_iterations=0,
            max_index_terms=k,
        )


@dataclass(frozen=True)
class ChordConfig:
    """Chord overlay parameters.

    ``id_bits`` is the ring width (the paper hashes with MD5; we use the
    MD5 digest truncated to ``id_bits``).  ``successor_list_size``
    controls the §7 replication scheme.

    Two fields change *where lookup messages travel*, never what a
    lookup or a query returns (DESIGN.md §8), and each is a row of the
    twin table (``tests/twins.py``): ``route_cache_size`` bounds each ring's
    epoch-validated route cache (0 routes every lookup; ``perf-paths``),
    and ``finger_arity`` is the branching factor *b* of the finger
    schedule — ``b - 1`` fingers per base-*b* digit of the id space.
    2 is Chord's ``2^i`` schedule; a larger *b* is a ReCord-style ring
    (PAPERS.md) that resolves one base-*b* digit per hop, buying
    ``O(log_b n)`` hops with a wider table (``ring-paths``).
    """

    num_peers: int = 64
    id_bits: int = 32
    successor_list_size: int = 4
    seed: int = 4111
    route_cache_size: int = 65536
    finger_arity: int = 2

    def __post_init__(self) -> None:
        _require(self.num_peers >= 1, "num_peers must be >= 1")
        _require(8 <= self.id_bits <= 128, "id_bits must be in [8, 128]")
        _require(self.successor_list_size >= 1, "successor_list_size must be >= 1")
        _require(
            self.num_peers <= 2 ** self.id_bits,
            "more peers than ring positions",
        )
        _require(self.route_cache_size >= 0, "route_cache_size must be >= 0")
        _require(self.finger_arity >= 2, "finger_arity must be >= 2")


#: Transports :class:`NetworkConfig` may name.
TRANSPORT_KINDS: Tuple[str, ...] = ("perfect", "lossy")
#: Latency models :class:`NetworkConfig` may name.
LATENCY_MODELS: Tuple[str, ...] = ("constant", "lognormal")


@dataclass(frozen=True)
class NetworkConfig:
    """Transport-layer parameters (see :mod:`repro.net`).

    ``transport="perfect"`` (default) is the idealized instant network
    the reproduction originally assumed — zero latency, zero loss,
    results bit-identical to the pre-transport simulator.
    ``transport="lossy"`` composes a latency model with fault injection
    and timeout/retry delivery semantics.  All times are simulated
    milliseconds on the transport's :class:`~repro.net.clock.SimulatedClock`.

    ``latency_ms`` is the constant model's value and the log-normal
    model's *median*.  The ``seed`` drives the transport's private RNG,
    so a fault-injection run replays byte-identically.
    """

    transport: str = "perfect"
    latency_model: str = "constant"
    latency_ms: float = 60.0
    latency_sigma: float = 0.55
    drop_probability: float = 0.0
    timeout_ms: float = 400.0
    max_retries: int = 3
    backoff_base_ms: float = 100.0
    backoff_factor: float = 2.0
    jitter_ms: float = 20.0
    keep_trace: bool = True
    seed: int = 93187

    def __post_init__(self) -> None:
        _require(self.transport in TRANSPORT_KINDS, f"transport must be one of {TRANSPORT_KINDS}")
        _require(
            self.latency_model in LATENCY_MODELS,
            f"latency_model must be one of {LATENCY_MODELS}",
        )
        if self.latency_model == "lognormal":
            _require(self.latency_ms > 0, "lognormal latency_ms (median) must be > 0")
        else:
            _require(self.latency_ms >= 0, "latency_ms must be >= 0")
        _require(self.latency_sigma >= 0, "latency_sigma must be >= 0")
        _require(
            0.0 <= self.drop_probability <= 1.0, "drop_probability must be in [0, 1]"
        )
        _require(self.timeout_ms > 0, "timeout_ms must be > 0")
        _require(self.max_retries >= 0, "max_retries must be >= 0")
        _require(self.backoff_base_ms >= 0, "backoff_base_ms must be >= 0")
        _require(self.backoff_factor >= 1.0, "backoff_factor must be >= 1")
        _require(self.jitter_ms >= 0, "jitter_ms must be >= 0")


@dataclass(frozen=True)
class WorkloadConfig:
    """Query-stream shaping (paper Figure 4(b) streams)."""

    zipf_slope: float = 0.5                # "w-zipf" slope
    stream_length: int = 0                 # 0 → one pass over the set
    seed: int = 271828

    def __post_init__(self) -> None:
        _require(self.zipf_slope >= 0.0, "zipf_slope must be >= 0")
        _require(self.stream_length >= 0, "stream_length must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    """Top-level bundle used by the evaluation harness."""

    corpus: SyntheticCorpusConfig = field(default_factory=SyntheticCorpusConfig)
    querygen: QueryGenConfig = field(default_factory=QueryGenConfig)
    sprite: SpriteConfig = field(default_factory=SpriteConfig)
    chord: ChordConfig = field(default_factory=ChordConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    train_fraction: float = 0.5
    split_seed: int = 5415

    def __post_init__(self) -> None:
        _require(0.0 < self.train_fraction < 1.0, "train_fraction must be in (0,1)")


def small_experiment_config(seed: int = 20070415) -> ExperimentConfig:
    """A fast configuration for tests and examples (sub-second runs)."""
    return ExperimentConfig(
        corpus=SyntheticCorpusConfig(
            num_documents=220,
            num_topics=10,
            vocabulary_size=900,
            topic_core_size=30,
            mean_doc_length=90,
            num_original_queries=12,
            relevant_per_query=12,
            seed=seed,
        ),
        querygen=QueryGenConfig(queries_per_original=5, ranked_list_depth=200),
        chord=ChordConfig(num_peers=32),
    )


def paper_experiment_config(seed: int = 20070415) -> ExperimentConfig:
    """The default scaled-down reproduction of the paper's setup."""
    return ExperimentConfig(
        corpus=SyntheticCorpusConfig(seed=seed),
        querygen=QueryGenConfig(),
        sprite=SpriteConfig(),
        chord=ChordConfig(),
    )


#: Tuple of every config class, for reflection-style tests.
ALL_CONFIG_TYPES: Tuple[type, ...] = (
    SyntheticCorpusConfig,
    QueryGenConfig,
    SpriteConfig,
    ChordConfig,
    NetworkConfig,
    WorkloadConfig,
    ExperimentConfig,
)
