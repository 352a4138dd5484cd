"""Tests for the Section 7 load-balancing extensions."""

from __future__ import annotations

import pytest

from repro.config import ChordConfig, SpriteConfig
from repro.core import SpriteSystem
from repro.corpus import Corpus, Document, Query
from repro.dht.messages import MessageKind
from repro.extensions import HotTermAdvisor, HotTermCache

CHORD = ChordConfig(num_peers=16, id_bits=32, seed=83)


@pytest.fixture()
def corpus() -> Corpus:
    """Every document shares the term 'ubiquitous'; each also has a
    unique discriminative term and filler."""
    docs = []
    for i in range(10):
        docs.append(
            Document(
                f"d{i}",
                f"ubiquitous ubiquitous ubiquitous ubiquitous "
                f"special{i} special{i} special{i} extra{i} rare{i}",
            )
        )
    return Corpus(docs)


@pytest.fixture()
def system(corpus: Corpus) -> SpriteSystem:
    system = SpriteSystem(
        corpus, sprite_config=SpriteConfig().static_baseline(2), chord_config=CHORD
    )
    system.share_corpus()
    return system


class TestHotTermAdvisor:
    def test_detects_hot_terms(self, system: SpriteSystem) -> None:
        advisor = HotTermAdvisor(system, df_threshold=5)
        hot = advisor.find_hot_terms()
        assert [a.term for a in hot] == ["ubiquit"]
        assert hot[0].indexed_document_frequency == 10

    def test_no_hot_terms_below_threshold(self, system: SpriteSystem) -> None:
        advisor = HotTermAdvisor(system, df_threshold=50)
        assert advisor.find_hot_terms() == []

    def test_apply_advice_switches_documents(self, system: SpriteSystem) -> None:
        advisor = HotTermAdvisor(system, df_threshold=5)
        hot = advisor.find_hot_terms()[0]
        switched = advisor.apply_advice(hot)
        assert switched == 10
        # The hot term is gone from every document's index...
        for i in range(10):
            assert "ubiquit" not in system.index_terms(f"d{i}")
        # ...replaced by another document term, keeping the budget.
        for i in range(10):
            assert len(system.index_terms(f"d{i}")) == 2

    def test_advice_messages_counted(self, system: SpriteSystem) -> None:
        advisor = HotTermAdvisor(system, df_threshold=5)
        advisor.rebalance()
        assert system.ring.stats.kind(MessageKind.ADVISE_HOT_TERM).messages == 10

    def test_rebalance_summary(self, system: SpriteSystem) -> None:
        hot_count, switches = HotTermAdvisor(system, df_threshold=5).rebalance()
        assert hot_count == 1
        assert switches == 10

    def test_invalid_threshold(self, system: SpriteSystem) -> None:
        with pytest.raises(ValueError):
            HotTermAdvisor(system, df_threshold=0)

    def test_replacement_preserves_retrievability(self, system: SpriteSystem) -> None:
        """After rebalancing, documents remain findable via their
        replacement terms."""
        HotTermAdvisor(system, df_threshold=5).rebalance()
        ranked = system.search(Query("q", ("special3",)), cache=False)
        assert "d3" in ranked.ids()


class TestHotTermCache:
    def test_observation_counts(self, system: SpriteSystem) -> None:
        cache = HotTermCache(system.protocol)
        cache.observe_query(("alpha", "beta"))
        cache.observe_query(("alpha", "gamma"))
        assert cache.hottest_terms(1) == ["alpha"]
        assert cache.cooccurrence["alpha"]["beta"] == 1

    def test_refresh_caches_hot_postings(self, system: SpriteSystem) -> None:
        cache = HotTermCache(system.protocol)
        for __ in range(5):
            cache.observe_query(("ubiquit", "special1"))
        # Both observed terms are hot and indexable → both cached.
        assert cache.refresh() == 2
        # With an explicit budget of one, only the hottest is cached.
        assert cache.refresh(num_hot=1) == 1

    def test_a_refresh_push_is_its_own_kind(self, system: SpriteSystem) -> None:
        """The push used to travel as a REPLICATE priced postings × 24,
        beside the replication round's digest-and-entries REPLICATE; it
        is a CACHE_HOT_TERM now, at the same price."""
        cache = HotTermCache(system.protocol)
        for __ in range(5):
            cache.observe_query(("ubiquit", "special1"))
        assert cache.refresh(num_hot=1) == 1
        pushed = system.ring.stats.kind(MessageKind.CACHE_HOT_TERM)
        assert (pushed.messages, pushed.bytes) == (1, 10 * 24)  # "ubiquit": df 10
        assert system.ring.stats.kind(MessageKind.REPLICATE).messages == 0

    def test_fetch_served_from_cache(self, system: SpriteSystem) -> None:
        cache = HotTermCache(system.protocol)
        for __ in range(5):
            cache.observe_query(("ubiquit", "special1"))
        cache.refresh()
        before = system.ring.stats.kind(MessageKind.SEARCH_TERM).messages
        postings, df = cache.fetch_postings(system.ring.live_ids[0], "ubiquit")
        after = system.ring.stats.kind(MessageKind.SEARCH_TERM).messages
        assert after == before          # no routed search message
        assert cache.hits == 1
        assert df == 10 and len(postings) == 10

    def test_miss_falls_through_to_protocol(self, system: SpriteSystem) -> None:
        cache = HotTermCache(system.protocol)
        postings, df = cache.fetch_postings(system.ring.live_ids[0], "special2")
        assert cache.misses == 1
        assert df == 1

    def test_hit_rate(self, system: SpriteSystem) -> None:
        cache = HotTermCache(system.protocol)
        for __ in range(3):
            cache.observe_query(("ubiquit", "special1"))
        cache.refresh()
        cache.fetch_postings(system.ring.live_ids[0], "ubiquit")
        cache.fetch_postings(system.ring.live_ids[0], "special5")
        assert cache.hit_rate == pytest.approx(0.5)

    def test_invalid_capacity(self, system: SpriteSystem) -> None:
        with pytest.raises(ValueError):
            HotTermCache(system.protocol, cache_capacity=0)
