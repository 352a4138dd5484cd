"""Tests for the Section 7 load-balancing extensions."""

from __future__ import annotations

import pytest

from repro.config import ChordConfig, SpriteConfig
from repro.core import SpriteSystem
from repro.corpus import Corpus, Document, Query
from repro.dht.messages import MessageKind
from repro.extensions import HotTermAdvisor
from repro.net.faults import FaultInjector
from repro.net.transport import DeliveryPolicy, LossyTransport

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

    def test_lost_advice_leaves_the_term_in_place(self, system: SpriteSystem) -> None:
        """Advice takes effect only once it is delivered: on a network
        that loses half its messages the pass completes, one switch per
        advice message delivered, and every other document keeps the term."""
        system.ring.transport = LossyTransport(
            faults=FaultInjector(drop_probability=0.5),
            policy=DeliveryPolicy(max_retries=0),
            seed=0,
        )
        hot_terms, switches = HotTermAdvisor(system, df_threshold=5).rebalance()
        delivered = system.ring.stats.kind(MessageKind.ADVISE_HOT_TERM).messages
        assert hot_terms == 1 and 0 < switches == delivered < 10
        kept = [i for i in range(10) if "ubiquit" in system.index_terms(f"d{i}")]
        assert len(kept) == 10 - switches
