"""Tests for the system facades (DistributedSystem / SpriteSystem)."""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.config import ChordConfig, SpriteConfig
from repro.core import ESearchSystem, SpriteSystem
from repro.corpus import Corpus, Document, Query
from repro.dht import ChordRing
from repro.exceptions import LearningError
from repro.sim import FullIndexSystem

CHORD = ChordConfig(num_peers=24, id_bits=32, seed=61)


@pytest.fixture()
def corpus() -> Corpus:
    docs = []
    for i in range(12):
        topic = ["chord ring lookup", "retrieval ranking index", "churn failure replica"][i % 3]
        filler = f"filler{i} filler{i} pad{i}"
        docs.append(Document(f"d{i}", f"{topic} {topic} {filler}"))
    return Corpus(docs)


@pytest.fixture()
def sprite(corpus: Corpus, fast_sprite_config: SpriteConfig) -> SpriteSystem:
    return SpriteSystem(corpus, sprite_config=fast_sprite_config, chord_config=CHORD)


class TestSharing:
    def test_share_corpus_publishes_everything(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        assert sprite.total_published_terms() == 12 * 3  # initial_terms=3

    def test_share_is_idempotent(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        sprite.share_corpus()
        assert sprite.total_published_terms() == 12 * 3

    def test_owner_assignment_deterministic(self, sprite: SpriteSystem, corpus: Corpus) -> None:
        sprite.share_corpus()
        again = SpriteSystem(corpus, sprite_config=sprite.config, chord_config=CHORD)
        again.share_corpus()
        for doc_id in corpus.doc_ids:
            assert sprite.owner_of(doc_id).node_id == again.owner_of(doc_id).node_id

    def test_owner_of_unshared_raises(self, sprite: SpriteSystem) -> None:
        with pytest.raises(LearningError):
            sprite.owner_of("d0")

    def test_index_terms_accessible(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        terms = sprite.index_terms("d0")
        assert len(terms) == 3


class TestSearchPath:
    def test_search_finds_matching_documents(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        ranked = sprite.search(Query("q", ("chord", "ring")), cache=False)
        assert len(ranked) > 0
        for doc_id in ranked.ids():
            assert int(doc_id[1:]) % 3 == 0  # only the chord-topic docs

    def test_search_respects_config_top_k(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        ranked = sprite.search(Query("q", ("chord",)), cache=False)
        assert len(ranked) <= sprite.config.top_k_answers

    def test_register_queries_counts(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        count = sprite.register_queries([Query("q1", ("chord", "ring"))])
        assert count == 2


class TestLearningLoop:
    def test_learning_requires_share(self, sprite: SpriteSystem) -> None:
        with pytest.raises(LearningError):
            sprite.run_learning_iteration()

    def test_learning_grows_index_sizes(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        sprite.register_queries(
            [Query(f"q{i}", ("chord", "lookup")) for i in range(4)]
        )
        sprite.run_learning(iterations=1)
        sizes = sprite.learning_summary()
        # Target is 3 + 3 = 6, clamped to each document's 5 unique terms.
        assert all(size == 5 for size in sizes.values())

    def test_full_schedule_caps_at_max(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        sprite.run_learning()  # 2 iterations × 3 terms → 9 (= cap)
        sizes = sprite.learning_summary()
        assert all(size <= sprite.config.max_index_terms for size in sizes.values())

    def test_learning_indexes_queried_terms(self, sprite: SpriteSystem) -> None:
        """A query term present in a document but outside its initial
        index must enter after learning (the d/e terms of Figure 1)."""
        sprite.share_corpus()
        target = "d0"
        initial = set(sprite.index_terms(target))
        assert "lookup" in sprite.corpus.get(target).term_freqs
        queried = ("chord", "lookup")
        sprite.register_queries([Query(f"q{i}", queried) for i in range(5)])
        sprite.run_learning(iterations=1)
        after = set(sprite.index_terms(target))
        assert "lookup" in after or "lookup" in initial

    def test_stats_accumulate_traffic(self, sprite: SpriteSystem) -> None:
        """Owners publish via PUBLISH_BATCH messages: one per distinct
        destination peer, together carrying every (doc, term) posting
        and never more batches than one message per posting."""
        from repro.dht.messages import MessageKind, POSTING_BYTES, TERM_BYTES

        sprite.share_corpus()
        batch = sprite.ring.stats.kind(MessageKind.PUBLISH_BATCH)
        assert sprite.ring.stats.kind(MessageKind.PUBLISH_TERM).messages == 0
        assert 0 < batch.messages <= 12 * 3
        assert batch.bytes >= 12 * 3 * (TERM_BYTES + POSTING_BYTES)
        assert batch.hops >= batch.messages  # ≥1 hop each


class TestDiagnostics:
    def test_execute_returns_diagnostics(self, sprite: SpriteSystem) -> None:
        sprite.share_corpus()
        ranked, execution = sprite.execute(Query("q", ("chord",)), cache=False)
        assert execution.terms_visited == 1
        assert execution.postings_retrieved >= len(ranked.ids())


class TestNothingOutlivesASystem:
    def test_the_posting_module_keeps_nothing_of_a_dropped_system(
        self, fast_sprite_config: SpriteConfig
    ) -> None:
        """The posting store once interned every document id published
        by any system in the process in a module-level table, until
        exit.  Only the version counter may outlive a system."""
        from collections.abc import Sized

        from repro.ir import postings

        def module_level_sizes() -> dict:
            return {
                name: len(value)
                for name, value in vars(postings).items()
                if not name.startswith("__")
                and isinstance(value, Sized)
                and not isinstance(value, (str, type))
            }

        before = module_level_sizes()
        for generation in range(2):
            docs = [
                Document(f"gen{generation}-doc{i}", f"chord ring lookup only{generation}x{i}")
                for i in range(8)
            ]
            system = SpriteSystem(
                Corpus(docs), sprite_config=fast_sprite_config, chord_config=CHORD
            )
            system.share_corpus()
            assert len(system.search(Query("q", ("chord", "ring")), cache=False)) > 0
            del system
        assert module_level_sizes() == before


class TestTheOverlayIsTheRingsOwn:
    """The finger arity lives on the ring's config and nowhere else, so
    what a system reports is what it routes on."""

    def test_a_prebuilt_ring_cannot_disagree_with_the_system(
        self, corpus: Corpus, fast_sprite_config: SpriteConfig
    ) -> None:
        ring = ChordRing(replace(CHORD, finger_arity=8))
        system = SpriteSystem(corpus, sprite_config=fast_sprite_config, ring=ring)
        assert system.ring.config.finger_arity == 8
        assert len(system.ring.finger_steps) > 32
        assert not {"ring", "ring_arity"} & {f.name for f in fields(system.config)}

    @pytest.mark.parametrize("system_class", [ESearchSystem, FullIndexSystem])
    def test_baselines_rank_alike_on_a_wider_ring(self, corpus: Corpus, system_class) -> None:
        rankings = []
        for arity in (2, 8):
            system = system_class(corpus, chord_config=replace(CHORD, finger_arity=arity))
            assert len(system.ring.finger_steps) == {2: 32, 8: 73}[arity]
            system.share_corpus()
            rankings.append(
                [
                    [(e.doc_id, e.score) for e in system.search(Query("q", terms), cache=False)]
                    for terms in (("chord", "ring"), ("retrieval",), ("churn", "replica"))
                ]
            )
        assert rankings[0] == rankings[1]
        assert any(rankings[0])
