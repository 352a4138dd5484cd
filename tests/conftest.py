"""Shared fixtures for the test suite.

Expensive artifacts (the small experiment environment, trained systems)
are session-scoped; tests must treat them as read-only.  Tests that
mutate system state build their own instances from the cheap factories.
"""

from __future__ import annotations

import pytest

from repro.config import (
    ChordConfig,
    ExperimentConfig,
    QueryGenConfig,
    SpriteConfig,
    SyntheticCorpusConfig,
    small_experiment_config,
)
from repro.corpus import Corpus, Document, Qrels, Query, QuerySet
from repro.dht import ChordRing
from repro.evaluation import build_environment
from repro.ir import CentralizedSystem

#: Hand-written documents with known term statistics.  Each document
#: mentions "peer" so stemming/stopword behaviour is easy to reason
#: about; frequencies are deliberately asymmetric.
TINY_DOCS = {
    "doc-a": (
        "chord chord chord overlay overlay routing peer network network "
        "lookup finger table stabilize"
    ),
    "doc-b": (
        "retrieval retrieval retrieval ranking ranking precision recall "
        "peer index index index inverted"
    ),
    "doc-c": (
        "learning learning query query query tuning index peer progressive "
        "selective examples history"
    ),
    "doc-d": (
        "zipf distribution terms terms corpus frequency frequency peer "
        "vocabulary statistics sampling"
    ),
    "doc-e": (
        "replication successor failure churn peer peer heartbeat recovery "
        "replica promote stabilize stabilize"
    ),
    "doc-f": (
        "gossip flooding unstructured gnutella peer radius neighborhood "
        "bandwidth overhead overhead overhead"
    ),
}


@pytest.fixture(scope="session")
def tiny_corpus() -> Corpus:
    """Six tiny hand-written documents."""
    return Corpus(
        Document(doc_id=doc_id, text=text) for doc_id, text in TINY_DOCS.items()
    )


@pytest.fixture(scope="session")
def tiny_queries(tiny_corpus) -> QuerySet:
    """Queries with hand-assigned judgments over the tiny corpus."""
    analyzer = tiny_corpus.analyzer
    queries = [
        Query("tq1", tuple(analyzer.analyze_query("chord overlay routing"))),
        Query("tq2", tuple(analyzer.analyze_query("retrieval ranking index"))),
        Query("tq3", tuple(analyzer.analyze_query("learning query tuning"))),
        Query("tq4", tuple(analyzer.analyze_query("replication failure churn"))),
    ]
    qrels = Qrels(
        {
            "tq1": {"doc-a"},
            "tq2": {"doc-b", "doc-c"},
            "tq3": {"doc-c"},
            "tq4": {"doc-e"},
        }
    )
    return QuerySet(queries, qrels)


@pytest.fixture(scope="session")
def tiny_centralized(tiny_corpus) -> CentralizedSystem:
    return CentralizedSystem(tiny_corpus)


@pytest.fixture(scope="session")
def small_config() -> ExperimentConfig:
    return small_experiment_config()


@pytest.fixture(scope="session")
def small_env(small_config):
    """The full small experimental environment (corpus + generated
    queries + centralized system).  Read-only."""
    return build_environment(small_config)


@pytest.fixture(scope="session")
def micro_corpus_config() -> SyntheticCorpusConfig:
    """A very small synthetic corpus config for tests that build their
    own systems (fast: < 100 ms)."""
    return SyntheticCorpusConfig(
        num_documents=60,
        num_topics=6,
        vocabulary_size=420,
        topic_core_size=20,
        mean_doc_length=60,
        min_doc_length=20,
        num_original_queries=8,
        relevant_per_query=8,
        seed=99,
    )


@pytest.fixture(scope="session")
def micro(micro_corpus_config):
    """The twin table's deployment over the micro corpus: four training
    queries, the rest for testing, a 16-peer ring.  Read-only."""
    from repro.corpus.synthetic import SyntheticTrecCorpus

    from .twins import Deployment

    corpus, originals, __ = SyntheticTrecCorpus(micro_corpus_config).build()
    queries = list(originals)
    return Deployment(corpus, queries[:4], queries[4:], num_peers=16, seed=0)


@pytest.fixture()
def small_ring() -> ChordRing:
    """A fresh 16-node ring per test (mutation allowed)."""
    return ChordRing(ChordConfig(num_peers=16, successor_list_size=4, seed=7))


@pytest.fixture()
def fast_sprite_config() -> SpriteConfig:
    return SpriteConfig(
        initial_terms=3,
        terms_per_iteration=3,
        learning_iterations=2,
        max_index_terms=9,
        query_cache_size=64,
        top_k_answers=10,
    )
