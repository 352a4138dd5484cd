"""Determinism regression: seeded runs are byte-for-byte repeatable.

Two end-to-end runs with identical seeds — same corpus, same lossy
transport seed, same churn schedule — must produce identical rankings
*and* identical transport-trace rollups.  The check runs both with the
route cache on and with it off, so neither mode can quietly grow a
hidden source of nondeterminism (dict order, unseeded RNG, wall-clock).
"""

from __future__ import annotations

import pytest

from repro.config import ChordConfig, NetworkConfig, SpriteConfig
from repro.core.system import SpriteSystem
from repro.corpus.synthetic import SyntheticTrecCorpus
from repro.dht.churn import ChurnModel
from repro.dht.replication import ReplicationManager
from repro.net import build_transport

SPRITE_CONFIG = SpriteConfig(
    initial_terms=3,
    terms_per_iteration=3,
    learning_iterations=2,
    max_index_terms=9,
    query_cache_size=128,
    assumed_corpus_size=1000,
    top_k_answers=10,
)

NETWORK_CONFIG = NetworkConfig(
    transport="lossy",
    latency_model="constant",
    latency_ms=40.0,
    drop_probability=0.05,
    keep_trace=True,
    seed=5,
)


@pytest.fixture(scope="module")
def workload(micro_corpus_config):
    corpus, queryset, __ = SyntheticTrecCorpus(micro_corpus_config).build()
    return corpus, list(queryset)


def _run(corpus, queries, route_cache: bool, churn: bool):
    """One full seeded run; returns (rankings tuple, trace rollup)."""
    transport = build_transport(NETWORK_CONFIG)
    system = SpriteSystem(
        corpus,
        sprite_config=SPRITE_CONFIG,
        chord_config=ChordConfig(
            num_peers=16,
            successor_list_size=4,
            seed=11,
            route_cache_size=65536 if route_cache else 0,
        ),
        transport=transport,
    )
    system.share_corpus()
    half = len(queries) // 2
    system.register_queries(queries[:half])
    replication = ReplicationManager(system.ring)
    replication.replicate_round()
    churn_model = ChurnModel(system.ring, seed=3)
    for __ in range(SPRITE_CONFIG.learning_iterations):
        if churn:
            churn_model.fail_random()
            replication.recover_from_failures()
            replication.replicate_round()
        system.run_learning_iteration()
    rankings = tuple(
        (
            query.query_id,
            tuple((entry.doc_id, entry.score) for entry in system.search(query, cache=False)),
        )
        for query in queries[half:]
    )
    return rankings, transport.trace.rollup()


@pytest.mark.parametrize("route_cache", [False, True], ids=["direct", "perf"])
@pytest.mark.parametrize("churn", [False, True], ids=["stable", "churn"])
def test_seeded_runs_are_identical(workload, route_cache, churn) -> None:
    corpus, queries = workload
    first = _run(corpus, queries, route_cache=route_cache, churn=churn)
    second = _run(corpus, queries, route_cache=route_cache, churn=churn)
    assert first[0] == second[0], "rankings diverged between identical seeded runs"
    assert first[1] == second[1], "transport trace rollups diverged"


def test_perf_paths_do_not_change_trace_determinism(workload) -> None:
    """The cached and direct modes each have a stable trace rollup;
    re-running either mode reproduces its own rollup exactly (the two
    modes legitimately differ from each other — the route cache elides
    hops)."""
    corpus, queries = workload
    direct = _run(corpus, queries, route_cache=False, churn=False)
    perf = _run(corpus, queries, route_cache=True, churn=False)
    # same retrieval semantics on a stable ring (the twin table's
    # perf-paths row, restated at integration level)
    assert direct[0] == perf[0]
    assert perf[1].messages <= direct[1].messages
