"""Tests for the centralized reference system."""

from __future__ import annotations

import pytest

from repro.corpus import Corpus, Document, Query
from repro.ir.centralized import CentralizedSystem
from ..probes import ids


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    return Corpus(
        [
            Document("chordy", "chord chord chord ring lookup"),
            Document("ringy", "ring ring ring ring finger"),
            Document("mixed", "chord ring finger lookup stabilize"),
            Document("offtopic", "gossip flooding bandwidth radius"),
        ]
    )


@pytest.fixture(scope="module")
def system(corpus: Corpus) -> CentralizedSystem:
    return CentralizedSystem(corpus)


class TestSearch:
    def test_returns_only_matching_documents(self, system: CentralizedSystem) -> None:
        ranked = system.search(Query("q", ("chord",)))
        assert set(ids(ranked)) == {"chordy", "mixed"}

    def test_frequency_drives_rank(self, system: CentralizedSystem) -> None:
        ranked = system.search(Query("q", ("chord",)))
        assert ranked.top_ids(1) == ["chordy"]

    def test_multi_term_union(self, system: CentralizedSystem) -> None:
        ranked = system.search(Query("q", ("chord", "ring")))
        assert set(ids(ranked)) == {"chordy", "ringy", "mixed"}

    def test_unknown_terms_ignored(self, system: CentralizedSystem) -> None:
        ranked = system.search(Query("q", ("chord", "zzzunknown")))
        assert set(ids(ranked)) == {"chordy", "mixed"}

    def test_all_unknown_terms_empty_result(self, system: CentralizedSystem) -> None:
        assert len(system.search(Query("q", ("zzz",)))) == 0

    def test_top_k_truncation(self, system: CentralizedSystem) -> None:
        ranked = system.search(Query("q", ("ring",)), top_k=1)
        assert len(ranked) == 1

    def test_scores_positive(self, system: CentralizedSystem) -> None:
        ranked = system.search(Query("q", ("finger",)))
        assert all(e.score > 0 for e in ranked)

    def test_rare_term_beats_common_term(self, corpus: Corpus) -> None:
        """IDF must prefer the document matching the rarer term when TF
        is comparable."""
        c = Corpus(
            [
                Document("common", "shared shared shared"),
                Document("rare", "unique unique unique"),
                Document("pad1", "shared filler filler"),
                Document("pad2", "shared filler2 filler2"),
            ]
        )
        s = CentralizedSystem(c)
        # Query terms must be analyzed (stemmed) like document text.
        terms = tuple(c.analyzer.analyze_query("shared unique"))
        ranked = s.search(Query("q", terms))
        assert ranked.top_ids(1) == ["rare"]


class TestDeterminism:
    def test_repeat_searches_identical(self, system: CentralizedSystem) -> None:
        q = Query("q", ("chord", "ring", "finger"))
        assert ids(system.search(q)) == ids(system.search(q))
