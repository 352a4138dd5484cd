"""Tests for the basic-eSearch baseline: SPRITE on
``SpriteConfig.static_baseline(k)``."""

from __future__ import annotations

import pytest

from repro.config import ChordConfig, SpriteConfig
from repro.core import SpriteSystem
from repro.corpus import Corpus, Document, Query

CHORD = ChordConfig(num_peers=16, id_bits=32, seed=71)


def esearch(corpus: Corpus, index_terms: int | None = None) -> SpriteSystem:
    return SpriteSystem(
        corpus,
        sprite_config=SpriteConfig().static_baseline(index_terms),
        chord_config=CHORD,
    )


@pytest.fixture()
def corpus() -> Corpus:
    return Corpus(
        [
            Document("d0", "alpha alpha alpha beta beta gamma delta epsilon"),
            Document("d1", "beta beta beta zeta zeta eta theta iota"),
            Document("d2", "gamma gamma gamma kappa kappa lam mu nu"),
        ]
    )


class TestStaticIndexing:
    def test_top_k_frequent_terms_published(self, corpus: Corpus) -> None:
        system = esearch(corpus, 2)
        system.share_corpus()
        assert set(system.index_terms("d0")) == {"alpha", "beta"}
        assert set(system.index_terms("d1")) == {"beta", "zeta"}

    def test_term_budget_respected(self, corpus: Corpus) -> None:
        system = esearch(corpus, 4)
        system.share_corpus()
        assert system.total_published_terms() == 3 * 4

    def test_budget_beyond_vocabulary(self, corpus: Corpus) -> None:
        system = esearch(corpus, 100)
        system.share_corpus()
        # Documents have 5 unique analyzed terms each; the budget clamps.
        assert system.total_published_terms() == 3 * 5


class TestNoLearning:
    def test_config_has_zero_iterations(self, corpus: Corpus) -> None:
        system = esearch(corpus)
        assert system.config.learning_iterations == 0
        assert system.config.terms_per_iteration == 0

    def test_queries_never_change_the_index(self, corpus: Corpus) -> None:
        system = esearch(corpus, 2)
        system.share_corpus()
        before = {d: tuple(system.index_terms(d)) for d in system.corpus.doc_ids}
        for i in range(10):
            system.search(Query(f"q{i}", ("epsilon", "theta")), cache=True)
        after = {d: tuple(system.index_terms(d)) for d in system.corpus.doc_ids}
        assert before == after


class TestRetrievalBehaviour:
    def test_indexed_terms_retrievable(self, corpus: Corpus) -> None:
        system = esearch(corpus, 2)
        system.share_corpus()
        ranked = system.search(Query("q", ("alpha",)), cache=False)
        assert ranked.ids() == ["d0"]

    def test_unindexed_document_terms_unfindable(self, corpus: Corpus) -> None:
        """The cost of static selection: low-frequency terms are simply
        not in the distributed index."""
        system = esearch(corpus, 2)
        system.share_corpus()
        ranked = system.search(Query("q", ("epsilon",)), cache=False)
        assert len(ranked) == 0

    def test_sprite_with_zero_learning_equals_esearch(self, corpus: Corpus) -> None:
        """At T = initial terms with no learning the two systems coincide
        (the Figure 4(b) T=5 point)."""
        static = esearch(corpus, 3)
        static.share_corpus()
        sprite = SpriteSystem(
            corpus,
            sprite_config=SpriteConfig(
                initial_terms=3,
                terms_per_iteration=0,
                learning_iterations=0,
                max_index_terms=3,
            ),
            chord_config=CHORD,
        )
        sprite.share_corpus()
        assert static.config == sprite.config
        for q in (Query("qa", ("alpha",)), Query("qb", ("beta", "gamma"))):
            assert static.search(q, cache=False).ids() == sprite.search(q, cache=False).ids()
