"""Tests for the per-figure experiment runners (on the small config).

These check the *mechanics* of each runner (row structure, budgets,
group switching); the paper-shape assertions live in the benchmarks,
which run at the larger default scale.
"""

from __future__ import annotations

import pytest

from repro.core.system import SpriteSystem
from repro.dht.messages import MessageKind
from repro.evaluation.experiments import (
    build_esearch,
    build_trained_sprite,
    run_cost_comparison,
    run_fig4a,
    run_fig4b,
    run_fig4c,
)
from repro.evaluation.reporting import (
    format_cost,
    format_fig4a,
    format_fig4b,
    format_fig4c,
)

from ..core.per_term_owner import install_per_term_owners


@pytest.fixture(scope="module")
def env(small_env):
    return small_env


class TestBuilders:
    def test_trained_sprite_reaches_budget(self, env) -> None:
        system = build_trained_sprite(env)
        sizes = system.learning_summary()
        budget = env.config.sprite.total_terms_after_learning
        assert all(size <= budget for size in sizes.values())
        assert max(sizes.values()) == budget

    def test_esearch_budget(self, env) -> None:
        system = build_esearch(env, index_terms=7)
        for doc_id in env.corpus.doc_ids[:5]:
            assert len(system.index_terms(doc_id)) <= 7


class TestFig4a:
    @pytest.fixture(scope="class")
    def rows(self, small_env):
        return run_fig4a(small_env, answer_counts=(5, 10, 20))

    def test_row_per_cutoff(self, rows) -> None:
        assert [r.num_answers for r in rows] == [5, 10, 20]

    def test_ratios_in_plausible_range(self, rows) -> None:
        for row in rows:
            for rel in (row.sprite, row.esearch):
                assert 0.0 <= rel.precision_ratio <= 1.5
                assert 0.0 <= rel.recall_ratio <= 1.5

    def test_sprite_not_worse_than_esearch_at_large_k(self, rows) -> None:
        large = rows[-1]
        assert large.sprite.precision_ratio >= large.esearch.precision_ratio - 0.05

    def test_formatting(self, rows) -> None:
        table = format_fig4a(rows)
        assert "SPRITE P" in table
        assert str(rows[0].num_answers) in table


class TestFig4b:
    @pytest.fixture(scope="class")
    def rows(self, small_env):
        return run_fig4b(small_env, term_counts=(5, 15), streams=("w/o-r",))

    def test_grid_shape(self, rows) -> None:
        assert len(rows) == 2
        assert {r.index_terms for r in rows} == {5, 15}

    def test_more_terms_not_worse(self, rows) -> None:
        by_terms = {r.index_terms: r for r in rows}
        assert (
            by_terms[15].sprite.precision_ratio
            >= by_terms[5].sprite.precision_ratio - 0.1
        )

    def test_formatting(self, rows) -> None:
        assert "w/o-r" in format_fig4b(rows)


class TestFig4c:
    @pytest.fixture(scope="class")
    def rows(self, small_env):
        return run_fig4c(small_env, iterations=4, switch_at=3, max_terms=12)

    def test_iteration_count(self, rows) -> None:
        assert [r.iteration for r in rows] == [1, 2, 3, 4]

    def test_group_switch(self, rows) -> None:
        assert [r.active_group for r in rows] == ["A", "A", "B", "B"]

    def test_term_growth_capped(self, rows) -> None:
        assert all(r.sprite_terms <= 12 for r in rows)
        assert all(r.esearch_terms <= 12 for r in rows)

    def test_esearch_terms_track_schedule(self, rows) -> None:
        assert rows[0].esearch_terms == 5       # evaluated before growth
        assert rows[-1].esearch_terms == 12

    def test_formatting(self, rows) -> None:
        table = format_fig4c(rows)
        assert "group" in table and "B" in table


class TestCostComparison:
    @pytest.fixture(scope="class")
    def rows(self, small_env):
        return run_cost_comparison(small_env)

    def test_three_strategies(self, rows) -> None:
        assert [r.strategy for r in rows] == ["sprite", "esearch", "index-everything"]

    def test_index_everything_is_most_expensive(self, rows) -> None:
        by_name = {r.strategy: r for r in rows}
        assert by_name["index-everything"].postings > by_name["esearch"].postings
        assert by_name["index-everything"].postings > by_name["sprite"].postings

    def test_messages_match_terms(self, rows) -> None:
        by_name = {r.strategy: r for r in rows}
        for row in rows:
            # Every published (doc, term) pair is one model message
            # (learning republications can add more for SPRITE); grouping
            # never sends more batches than postings.
            assert row.postings >= row.published_terms
            assert 0 < row.batch_messages <= row.postings
            assert row.batch_hops >= row.batch_messages
        for static in ("esearch", "index-everything"):
            assert by_name[static].postings == by_name[static].published_terms

    def test_postings_equal_per_term_reference_messages(self, rows, small_env) -> None:
        """The Section 1 count, made executable: an owner that sends one
        PUBLISH_TERM per (document, term) pair sends exactly as many
        messages (and bytes) as the table says postings."""
        env = small_env
        sprite = env.config.sprite
        reference = {
            strategy: SpriteSystem(
                env.corpus, sprite_config=config, chord_config=env.config.chord
            )
            for strategy, config in (
                ("sprite", sprite),
                ("esearch", sprite.static_baseline()),
                ("index-everything", sprite.static_baseline(10**6)),
            )
        }
        for system in reference.values():
            install_per_term_owners(system).share_corpus()
        reference["sprite"].register_queries(env.train.queries)
        reference["sprite"].run_learning()
        for row in rows:
            stats = reference[row.strategy].ring.stats
            per_term = stats.kind(MessageKind.PUBLISH_TERM)
            assert stats.kind(MessageKind.PUBLISH_BATCH).messages == 0
            assert (row.postings, row.model_bytes) == (per_term.messages, per_term.bytes)

    def test_formatting(self, rows) -> None:
        assert "index-everything" in format_cost(rows)
