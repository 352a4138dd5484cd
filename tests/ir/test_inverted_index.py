"""Tests for the centralized inverted index."""

from __future__ import annotations

import pytest

from repro.corpus import Corpus, Document
from repro.ir.inverted_index import InvertedIndex


@pytest.fixture()
def corpus() -> Corpus:
    return Corpus(
        [
            Document("d1", "chord chord ring"),
            Document("d2", "chord lookup lookup lookup"),
            Document("d3", "ring ring ring finger"),
        ]
    )


@pytest.fixture()
def index(corpus: Corpus) -> InvertedIndex:
    return InvertedIndex.from_corpus(corpus)


class TestConstruction:
    def test_document_count(self, index: InvertedIndex) -> None:
        assert index.num_documents == 3

    def test_contains(self, index: InvertedIndex) -> None:
        assert "chord" in index
        assert "ghost" not in index

    def test_duplicate_add_ignored(self, corpus: Corpus, index: InvertedIndex) -> None:
        index.add_document(corpus.get("d1"))
        assert index.num_documents == 3


class TestStatistics:
    def test_document_frequency(self, index: InvertedIndex) -> None:
        assert index.document_frequency("chord") == 2
        assert index.document_frequency("finger") == 1
        assert index.document_frequency("ghost") == 0

    def test_doc_length(self, index: InvertedIndex) -> None:
        assert index.doc_lengths["d1"] == 3
        assert "missing" not in index.doc_lengths

    def test_postings_content(self, index: InvertedIndex) -> None:
        doc_ids, raws = index.postings("chord")
        assert list(zip(doc_ids, raws)) == [("d1", 2), ("d2", 1)]

    def test_postings_for_unknown_term(self, index: InvertedIndex) -> None:
        assert tuple(map(list, index.postings("ghost"))) == ([], [])
