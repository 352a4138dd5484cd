"""Tests for the BM25 reference system."""

from __future__ import annotations

import math

import pytest

from repro.corpus import Corpus, Document, Query
from repro.ir import BM25System
from ..probes import ids, scores as score_map


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    return Corpus(
        [
            Document("heavy", "chord chord chord chord ring"),
            Document("light", "chord ring ring lookup"),
            Document("long", "chord " + "filler " * 60),
            Document("other", "gossip flooding bandwidth"),
        ]
    )


@pytest.fixture(scope="module")
def system(corpus: Corpus) -> BM25System:
    return BM25System(corpus)


class TestIdf:
    def test_rare_term_higher_idf(self, system: BM25System) -> None:
        assert system.idf("gossip") > system.idf("chord")

    def test_unknown_term(self, system: BM25System) -> None:
        # df = 0 → ln((N + 0.5)/0.5 + 1), finite and positive.
        assert system.idf("zzz") > 0

    def test_never_negative(self, system: BM25System) -> None:
        # Even a term in every document keeps idf ≥ ln(1 + small) > 0.
        assert system.idf("chord") > 0


class TestSearch:
    def test_matching_documents_only(self, system: BM25System) -> None:
        ranked = system.search(Query("q", ("chord",)))
        assert set(ids(ranked)) == {"heavy", "light", "long"}

    def test_tf_saturation(self, corpus: Corpus) -> None:
        """BM25's hallmark: term frequency saturates — 4 occurrences
        score less than 4× one occurrence."""
        system = BM25System(corpus)
        ranked = system.search(Query("q", ("chord",)))
        scores = score_map(ranked)
        assert scores["heavy"] < 4 * scores["light"]

    def test_length_normalization(self, system: BM25System) -> None:
        """Same tf, much longer document → lower score."""
        ranked = system.search(Query("q", ("chord",)))
        scores = score_map(ranked)
        assert scores["light"] > scores["long"]

    def test_top_k(self, system: BM25System) -> None:
        assert len(system.search(Query("q", ("chord",)), top_k=2)) == 2

    def test_b_zero_disables_length_normalization(self, corpus: Corpus) -> None:
        flat = BM25System(corpus, b=0.0)
        scores = score_map(flat.search(Query("q", ("chord",))))
        # With b=0, 'long' (tf=1) ties 'light' (tf=1) exactly.
        assert scores["long"] == pytest.approx(scores["light"])

    def test_parameter_validation(self, corpus: Corpus) -> None:
        with pytest.raises(ValueError):
            BM25System(corpus, k1=-1)
        with pytest.raises(ValueError):
            BM25System(corpus, b=1.5)


class TestAgainstClassicTfIdf:
    def test_same_candidate_sets(self, corpus: Corpus) -> None:
        from repro.ir import CentralizedSystem

        classic = CentralizedSystem(corpus)
        bm25 = BM25System(corpus)
        for terms in (("chord",), ("ring", "lookup"), ("gossip",)):
            q = Query("q", terms)
            assert set(ids(classic.search(q))) == set(ids(bm25.search(q)))
