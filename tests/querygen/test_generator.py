"""Tests for the Section 6.1 query generator."""

from __future__ import annotations

import pytest

from repro.config import QueryGenConfig
from repro.corpus import Corpus, Document, Qrels, Query, QuerySet
from repro.ir import CentralizedSystem
from repro.querygen.generator import DistributionNeighbors, QueryGenerator


@pytest.fixture(scope="module")
def env(small_env):
    return small_env


class TestDistributionNeighbors:
    @pytest.fixture(scope="class")
    def neighbors(self, small_env) -> DistributionNeighbors:
        return DistributionNeighbors(small_env.corpus)

    def test_closest_excludes_anchor(self, neighbors, small_env) -> None:
        term = small_env.corpus.vocabulary[0]
        assert term not in neighbors.closest(term, 5, exclude=set())

    def test_closest_respects_exclusions(self, neighbors, small_env) -> None:
        term = small_env.corpus.vocabulary[0]
        first = neighbors.closest(term, 3, exclude=set())
        excluded = neighbors.closest(term, 3, exclude=set(first))
        assert not set(first) & set(excluded)

    def test_closest_count(self, neighbors, small_env) -> None:
        term = small_env.corpus.vocabulary[10]
        assert len(neighbors.closest(term, 5, exclude=set())) == 5

    def test_neighbors_really_are_nearest(self, neighbors, small_env) -> None:
        """Brute-force check: returned candidates minimize
        |Distribution(anchor) − Distribution(candidate)|."""
        corpus = small_env.corpus
        table = corpus.distribution_table()
        anchor = corpus.vocabulary[5]
        anchor_value = table[anchor]
        got = neighbors.closest(anchor, 5, exclude=set())
        got_worst = max(abs(table[t] - anchor_value) for t in got)
        better_count = sum(
            1
            for t in corpus.vocabulary
            if t != anchor
            and abs(table[t] - anchor_value) < got_worst
        )
        # At most 5 terms can be strictly closer than our worst pick
        # (ties make this an inequality, not equality).
        assert better_count <= 5

    def test_distribution_passthrough(self, neighbors, small_env) -> None:
        term = small_env.corpus.vocabulary[3]
        assert neighbors.distribution(term) == small_env.corpus.distribution_table()[term]
        assert neighbors.distribution("zzz-unknown") == 0.0


class TestPhase1:
    def test_overlap_ratio_respected(self, env) -> None:
        cfg = QueryGenConfig(queries_per_original=3, overlap_ratio=0.7, seed=5)
        generator = QueryGenerator(env.corpus, env.centralized, cfg)
        generated = generator.generate(env.originals)
        for new_query in generated:
            original = next(q for q in env.originals if q.query_id == new_query.origin_id)
            keep = max(1, round(0.7 * len(original.terms)))
            shared = len(set(new_query.terms) & set(original.terms))
            assert shared >= min(keep, len(original.terms)) - 1

    def test_full_overlap_copies_terms(self, env) -> None:
        cfg = QueryGenConfig(queries_per_original=2, overlap_ratio=1.0, seed=5)
        generated = QueryGenerator(env.corpus, env.centralized, cfg).generate(env.originals)
        for new_query in generated:
            original = next(q for q in env.originals if q.query_id == new_query.origin_id)
            assert set(original.terms) <= set(new_query.terms)

    def test_count_per_original(self, env) -> None:
        cfg = QueryGenConfig(queries_per_original=4, seed=5)
        generated = QueryGenerator(env.corpus, env.centralized, cfg).generate(env.originals)
        assert len(generated) == 4 * len(env.originals)

    def test_ids_carry_origin(self, env) -> None:
        cfg = QueryGenConfig(queries_per_original=2, seed=5)
        generated = QueryGenerator(env.corpus, env.centralized, cfg).generate(env.originals)
        for q in generated:
            assert q.query_id.startswith(q.origin_id + ".")

    def test_deterministic_for_seed(self, env) -> None:
        cfg = QueryGenConfig(queries_per_original=2, seed=42)
        g1 = QueryGenerator(env.corpus, env.centralized, cfg).generate(env.originals)
        g2 = QueryGenerator(env.corpus, env.centralized, cfg).generate(env.originals)
        assert [q.terms for q in g1] == [q.terms for q in g2]


class TestPhase2:
    @pytest.fixture(scope="class")
    def generated(self, small_env) -> QuerySet:
        cfg = QueryGenConfig(queries_per_original=3, ranked_list_depth=100, seed=17)
        return QueryGenerator(small_env.corpus, small_env.centralized, cfg).generate(
            small_env.originals
        )

    def test_every_generated_query_judged(self, generated) -> None:
        for query in generated:
            assert len(generated.qrels.relevant(query.query_id)) > 0

    def test_relevant_count_bounded_by_original(self, generated, small_env) -> None:
        """Phase 2 marks at most one new document per original relevant
        document (shared answers consume marks)."""
        for query in generated:
            original_count = len(small_env.originals.qrels.relevant(query.origin_id))
            assert len(generated.qrels.relevant(query.query_id)) <= original_count

    def test_shared_relevant_documents_exist(self, generated, small_env) -> None:
        """With 70% term overlap, at least some generated queries must
        share relevant documents with their originals."""
        shared_any = 0
        for query in generated:
            original_rel = small_env.originals.qrels.relevant(query.origin_id)
            new_rel = generated.qrels.relevant(query.query_id)
            if original_rel & new_rel:
                shared_any += 1
        assert shared_any > len(generated) * 0.3

    def test_relevant_docs_are_corpus_docs(self, generated, small_env) -> None:
        generated.qrels.validate_against(small_env.corpus.doc_ids)


class TestMergedOutput:
    def test_generate_with_originals_includes_both(self, env) -> None:
        cfg = QueryGenConfig(queries_per_original=2, seed=9)
        merged = QueryGenerator(env.corpus, env.centralized, cfg).generate_with_originals(
            env.originals
        )
        assert len(merged) == len(env.originals) * 3
        for original in env.originals:
            assert merged.qrels.relevant(original.query_id) == env.originals.qrels.relevant(
                original.query_id
            )


class TestRankMapping:
    def test_phase2_rank_transplant_mechanics(self) -> None:
        """White-box check of the Figure 3 procedure on a constructed
        corpus where ranked lists are fully predictable."""
        docs = [Document(f"d{i}", f"term{i} " * (i + 1) + "shared") for i in range(6)]
        corpus = Corpus(docs)
        centralized = CentralizedSystem(corpus)
        original = Query("orig", ("term0", "term1"))
        originals = QuerySet([original], Qrels({"orig": {"d0", "d1"}}))
        cfg = QueryGenConfig(queries_per_original=1, overlap_ratio=1.0, seed=3)
        generated = QueryGenerator(corpus, centralized, cfg).generate(originals)
        new_query = generated.queries[0]
        relevant = generated.qrels.relevant(new_query.query_id)
        # Full overlap → same ranked list → same relevant documents.
        assert relevant == {"d0", "d1"}
