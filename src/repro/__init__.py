"""SPRITE: a learning-based text retrieval system in DHT networks.

A full reproduction of Li, Jagadish & Tan (ICDE 2007): selective
progressive index tuning by examples over a Chord overlay, with the
centralized TF·IDF reference system, the basic-eSearch static baseline,
the paper's query generator, and the complete evaluation harness.

Quickstart::

    from repro import build_environment, build_trained_sprite

    env = build_environment()              # synthetic TREC-like corpus
    sprite = build_trained_sprite(env)     # share + train + learn
    ranked = sprite.search(env.test.queries[0])
    print(ranked.top_ids(10))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from .config import (
    ChordConfig,
    ExperimentConfig,
    NetworkConfig,
    QueryGenConfig,
    SpriteConfig,
    SyntheticCorpusConfig,
    WorkloadConfig,
    paper_experiment_config,
    small_experiment_config,
)
from .core import (
    SpriteSystem,
)
from .corpus import (
    Corpus,
    Document,
    Qrels,
    Query,
    QuerySet,
)
from .dht import ChordRing, ReplicationManager
from .net import (
    LossyTransport,
    PerfectTransport,
    TraceLog,
    build_transport,
)
from .evaluation import (
    build_environment,
    build_esearch,
    build_trained_sprite,
    run_cost_comparison,
    run_fig4a,
    run_fig4b,
    run_fig4c,
)
from .ir import CentralizedSystem, RankedList
from .querygen import QueryGenerator
from .text import Analyzer

__version__ = "1.0.0"

__all__ = [
    "Analyzer",
    "CentralizedSystem",
    "ChordConfig",
    "ChordRing",
    "Corpus",
    "Document",
    "ExperimentConfig",
    "LossyTransport",
    "NetworkConfig",
    "PerfectTransport",
    "Qrels",
    "Query",
    "QueryGenConfig",
    "QueryGenerator",
    "QuerySet",
    "RankedList",
    "ReplicationManager",
    "SpriteConfig",
    "SpriteSystem",
    "SyntheticCorpusConfig",
    "TraceLog",
    "WorkloadConfig",
    "build_environment",
    "build_esearch",
    "build_trained_sprite",
    "build_transport",
    "paper_experiment_config",
    "run_cost_comparison",
    "run_fig4a",
    "run_fig4b",
    "run_fig4c",
    "small_experiment_config",
    "__version__",
]
