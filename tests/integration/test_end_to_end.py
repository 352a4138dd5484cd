"""End-to-end integration tests: the full paper pipeline on the small
environment, plus cross-cutting behaviours (learning beats static,
churn with replication, cross-system consistency)."""

from __future__ import annotations

import pytest

from repro.config import SpriteConfig
from repro.core import SpriteSystem
from repro.corpus import Query
from repro.dht import ReplicationManager
from repro.evaluation import (
    build_esearch,
    build_trained_sprite,
    relative_to_centralized,
)


@pytest.fixture(scope="module")
def trained(small_env):
    return build_trained_sprite(small_env)


@pytest.fixture(scope="module")
def static(small_env):
    return build_esearch(small_env)


class TestFullPipeline:
    def test_sprite_answers_test_queries(self, small_env, trained) -> None:
        answered = 0
        for query in small_env.test.queries[:20]:
            ranked = trained.search(query, cache=False)
            if len(ranked) > 0:
                answered += 1
        assert answered >= 15

    def test_effectiveness_close_to_centralized(self, small_env, trained) -> None:
        k = small_env.config.sprite.top_k_answers
        queries = list(small_env.test.queries)
        sprite_rankings = {
            q.query_id: trained.search(q, top_k=k, cache=False) for q in queries
        }
        central = small_env.centralized_rankings(queries)
        rel = relative_to_centralized(sprite_rankings, central, small_env.test.qrels, k)
        assert rel.precision_ratio > 0.6
        assert rel.recall_ratio > 0.6

    def test_sprite_at_least_matches_esearch(self, small_env, trained, static) -> None:
        k = small_env.config.sprite.top_k_answers
        queries = list(small_env.test.queries)
        central = small_env.centralized_rankings(queries)
        sprite_rel = relative_to_centralized(
            {q.query_id: trained.search(q, top_k=k, cache=False) for q in queries},
            central,
            small_env.test.qrels,
            k,
        )
        esearch_rel = relative_to_centralized(
            {q.query_id: static.search(q, top_k=k, cache=False) for q in queries},
            central,
            small_env.test.qrels,
            k,
        )
        assert sprite_rel.precision_ratio >= esearch_rel.precision_ratio - 0.02

    def test_index_sizes_within_budget(self, small_env, trained) -> None:
        budget = small_env.config.sprite.total_terms_after_learning
        for size in trained.learning_summary().values():
            assert size <= budget


class TestLearnedTermsAreQueried:
    def test_learned_terms_overlap_training_queries(self, small_env, trained) -> None:
        """After learning, documents' index terms should include terms
        from training queries that matched them — the whole point."""
        training_terms = set()
        for q in small_env.train.queries:
            training_terms |= set(q.terms)
        overlap_docs = 0
        sampled = small_env.corpus.doc_ids[:50]
        for doc_id in sampled:
            if set(trained.index_terms(doc_id)) & training_terms:
                overlap_docs += 1
        assert overlap_docs > len(sampled) * 0.4


class TestChurnResilience:
    def test_replication_preserves_retrieval(self, small_env) -> None:
        """Kill 20% of peers; with successor replication + recovery the
        distributed index keeps answering queries."""
        system = build_trained_sprite(small_env)
        query = small_env.test.queries[0]
        before = system.search(query, cache=False).ids()

        manager = ReplicationManager(system.ring, replication_factor=3)
        manager.replicate_round()
        victims = list(system.ring.live_ids)[:: 5]   # every 5th peer
        for victim in victims:
            system.ring.fail(victim)
        manager.recover_from_failures()

        after = system.search(query, cache=False).ids()
        assert after == before

    def test_failures_without_replication_lose_terms(self, small_env) -> None:
        system = build_trained_sprite(small_env)
        # Fail half the ring with NO replication: some test queries must
        # degrade (weaker results or failures handled by term dropping).
        for victim in list(system.ring.live_ids)[::2]:
            system.ring.fail(victim)
        system.ring.stabilize()
        degraded = 0
        for query in small_env.test.queries[:20]:
            ranked, execution = system.execute(query, cache=False)
            if execution.postings_retrieved == 0 or len(ranked) == 0:
                degraded += 1
        assert degraded > 0


class TestCrossSystemConsistency:
    def test_all_systems_agree_on_fully_indexed_term(self, small_env) -> None:
        """For a term every system indexed, ranked membership must agree
        between SPRITE and eSearch (both see the same postings)."""
        sprite = SpriteSystem(
            small_env.corpus,
            sprite_config=SpriteConfig(
                initial_terms=5,
                terms_per_iteration=0,
                learning_iterations=0,
                max_index_terms=5,
            ),
            chord_config=small_env.config.chord,
        )
        sprite.share_corpus()
        esearch = SpriteSystem(
            small_env.corpus,
            sprite_config=small_env.config.sprite.static_baseline(),
            chord_config=small_env.config.chord,
        )
        esearch.share_corpus()
        doc = small_env.corpus.get(small_env.corpus.doc_ids[0])
        term = doc.top_terms(1)[0]
        q = Query("probe", (term,))
        sprite_ids = set(sprite.search(q, top_k=100, cache=False).ids())
        esearch_ids = set(esearch.search(q, top_k=100, cache=False).ids())
        # eSearch indexes 20 terms ⊇ SPRITE's 5 → its posting list for a
        # top-frequency term is a superset.
        assert sprite_ids <= esearch_ids
