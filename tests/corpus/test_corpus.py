"""Tests for the Corpus container and its global statistics."""

from __future__ import annotations

import pytest

from repro.corpus import Corpus, Document
from repro.exceptions import CorpusError, DocumentNotFoundError


@pytest.fixture()
def corpus() -> Corpus:
    return Corpus(
        [
            Document("d1", "alpha alpha beta"),
            Document("d2", "alpha gamma gamma gamma"),
            Document("d3", "beta beta delta"),
        ]
    )


class TestContainer:
    def test_len(self, corpus: Corpus) -> None:
        assert len(corpus) == 3

    def test_iteration_order(self, corpus: Corpus) -> None:
        assert [d.doc_id for d in corpus] == ["d1", "d2", "d3"]

    def test_contains(self, corpus: Corpus) -> None:
        assert "d1" in corpus
        assert "nope" not in corpus

    def test_get(self, corpus: Corpus) -> None:
        assert corpus.get("d2").doc_id == "d2"

    def test_get_missing_raises(self, corpus: Corpus) -> None:
        with pytest.raises(DocumentNotFoundError):
            corpus.get("missing")

    def test_duplicate_ids_rejected(self) -> None:
        with pytest.raises(CorpusError):
            Corpus([Document("x", "a b"), Document("x", "c d")])

    def test_empty_corpus_rejected(self) -> None:
        with pytest.raises(CorpusError):
            Corpus([])


class TestStatistics:
    def test_document_frequency(self, corpus: Corpus) -> None:
        df = corpus.document_frequency
        assert df["alpha"] == 2
        assert df["beta"] == 2
        assert df["gamma"] == 1
        assert df["delta"] == 1

    def test_collection_frequency(self, corpus: Corpus) -> None:
        cf = corpus.collection_frequency
        assert cf["alpha"] == 3
        assert cf["gamma"] == 3
        assert cf["beta"] == 3
        assert cf["delta"] == 1

    def test_vocabulary_sorted(self, corpus: Corpus) -> None:
        assert corpus.vocabulary == ["alpha", "beta", "delta", "gamma"]

    def test_total_terms(self, corpus: Corpus) -> None:
        assert corpus.total_terms == 10

    def test_average_document_length(self, corpus: Corpus) -> None:
        assert corpus.average_document_length == pytest.approx(10 / 3)


def distribution(corpus: Corpus, term: str) -> float:
    return corpus.distribution_table().get(term, 0.0)


class TestDistribution:
    """The paper's Distribution(t) = Freq(t) × Num(t)."""

    def test_values(self, corpus: Corpus) -> None:
        assert distribution(corpus, "alpha") == 3 * 2
        assert distribution(corpus, "gamma") == 3 * 1
        assert distribution(corpus, "delta") == 1 * 1

    def test_unknown_term_is_zero(self, corpus: Corpus) -> None:
        assert distribution(corpus, "unknown") == 0.0

    def test_distribution_separates_spread_from_burst(self) -> None:
        """Two terms with equal total frequency but different spread
        have different Distribution — the property phase 1 relies on."""
        c = Corpus(
            [
                Document("a", "spread"),
                Document("b", "spread"),
                Document("c", "burst burst"),
            ]
        )
        assert distribution(c, "spread") == 2 * 2
        assert distribution(c, "burst") == 2 * 1


class TestReplace:
    def test_swaps_revision_and_returns_previous(self, corpus: Corpus) -> None:
        previous = corpus.replace(Document("d2", "epsilon epsilon"))
        assert previous.text == "alpha gamma gamma gamma"
        assert corpus.get("d2").text == "epsilon epsilon"
        assert len(corpus) == 3

    def test_preserves_insertion_order(self, corpus: Corpus) -> None:
        corpus.replace(Document("d1", "zeta"))
        assert corpus.doc_ids == ["d1", "d2", "d3"]

    def test_invalidates_global_statistics(self, corpus: Corpus) -> None:
        assert corpus.document_frequency["alpha"] == 2
        corpus.replace(Document("d2", "epsilon"))
        assert corpus.document_frequency["alpha"] == 1
        assert corpus.document_frequency["epsilon"] == 1
        assert corpus.collection_frequency["gamma"] == 0

    def test_unknown_id_rejected(self, corpus: Corpus) -> None:
        with pytest.raises(DocumentNotFoundError):
            corpus.replace(Document("d9", "nope"))
