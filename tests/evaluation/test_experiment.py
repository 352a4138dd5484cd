"""Tests for environment construction."""

from __future__ import annotations

from repro.evaluation.experiment import build_environment


class TestBuildEnvironment:
    def test_sizes_follow_config(self, small_env, small_config) -> None:
        cfg = small_config
        assert len(small_env.corpus) == cfg.corpus.num_documents
        expected_queries = cfg.corpus.num_original_queries * (
            cfg.querygen.queries_per_original + 1
        )
        assert len(small_env.full_set) == expected_queries

    def test_split_is_even(self, small_env) -> None:
        assert abs(len(small_env.train) - len(small_env.test)) <= 1

    def test_split_disjoint(self, small_env) -> None:
        train_ids = {q.query_id for q in small_env.train}
        test_ids = {q.query_id for q in small_env.test}
        assert not train_ids & test_ids

    def test_centralized_sees_whole_corpus(self, small_env) -> None:
        assert small_env.centralized.index.num_documents == len(small_env.corpus)

    def test_ranking_cache_consistency(self, small_env) -> None:
        q = small_env.test.queries[0]
        first = small_env.centralized_ranking(q)
        second = small_env.centralized_ranking(q)
        assert first is second  # memoized

    def test_centralized_rankings_batch(self, small_env) -> None:
        queries = small_env.test.queries[:3]
        rankings = small_env.centralized_rankings(queries)
        assert set(rankings) == {q.query_id for q in queries}

    def test_deterministic_rebuild(self, small_config) -> None:
        env1 = build_environment(small_config)
        env2 = build_environment(small_config)
        assert [q.terms for q in env1.full_set] == [q.terms for q in env2.full_set]
        assert [q.query_id for q in env1.train] == [q.query_id for q in env2.train]

