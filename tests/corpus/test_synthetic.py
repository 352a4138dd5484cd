"""Tests for the synthetic TREC-like corpus generator."""

from __future__ import annotations

import pytest

from repro.config import SyntheticCorpusConfig
from repro.corpus import build_synthetic_collection, generate_vocabulary
from repro.exceptions import ConfigurationError
from repro.text.stemmer import stem
from repro.text.stopwords import LUCENE_STOP_WORDS

import random


@pytest.fixture(scope="module")
def collection(micro_corpus_config):
    return build_synthetic_collection(micro_corpus_config)


class TestVocabularyGeneration:
    def test_requested_size(self) -> None:
        words = generate_vocabulary(200, random.Random(1))
        assert len(words) == 200

    def test_unique(self) -> None:
        words = generate_vocabulary(300, random.Random(2))
        assert len(set(words)) == 300

    def test_stem_fixpoints(self) -> None:
        """Every generated word must survive analysis unchanged, so the
        generator's term identities line up with the analyzed space."""
        for word in generate_vocabulary(150, random.Random(3)):
            assert stem(word) == word

    def test_no_stop_words(self) -> None:
        words = generate_vocabulary(150, random.Random(4))
        assert not set(words) & LUCENE_STOP_WORDS

    def test_min_length(self) -> None:
        for word in generate_vocabulary(100, random.Random(5)):
            assert len(word) >= 3

    def test_deterministic(self) -> None:
        assert generate_vocabulary(50, random.Random(9)) == generate_vocabulary(
            50, random.Random(9)
        )


class TestGeneratedCorpus:
    def test_document_count(self, collection, micro_corpus_config) -> None:
        corpus, __, __ = collection
        assert len(corpus) == micro_corpus_config.num_documents

    def test_document_lengths_bounded_below(self, collection, micro_corpus_config) -> None:
        corpus, __, __ = collection
        for doc in corpus:
            assert doc.length >= micro_corpus_config.min_doc_length

    def test_query_count(self, collection, micro_corpus_config) -> None:
        __, query_set, __ = collection
        assert len(query_set) == micro_corpus_config.num_original_queries

    def test_query_term_bounds(self, collection, micro_corpus_config) -> None:
        __, query_set, __ = collection
        cfg = micro_corpus_config
        for query in query_set:
            assert 1 <= len(query.terms) <= cfg.query_max_terms

    def test_query_terms_in_vocabulary(self, collection) -> None:
        corpus, query_set, __ = collection
        vocab = set(corpus.vocabulary)
        for query in query_set:
            for term in query.terms:
                assert term in vocab

    def test_qrels_reference_real_documents(self, collection) -> None:
        corpus, query_set, __ = collection
        query_set.qrels.validate_against(corpus.doc_ids)

    def test_every_query_has_relevant_documents(self, collection) -> None:
        __, query_set, __ = collection
        for query in query_set:
            assert len(query_set.qrels.relevant(query.query_id)) > 0

    def test_relevant_docs_bounded(self, collection, micro_corpus_config) -> None:
        __, query_set, __ = collection
        for query in query_set:
            assert (
                len(query_set.qrels.relevant(query.query_id))
                <= micro_corpus_config.relevant_per_query
            )

    def test_relevant_docs_contain_query_terms(self, collection) -> None:
        """Judged documents must match at least one query term — the
        pooling property the judge enforces."""
        corpus, query_set, __ = collection
        for query in query_set:
            for doc_id in query_set.qrels.relevant(query.query_id):
                doc = corpus.get(doc_id)
                assert any(doc.contains(t) for t in query.terms)

    def test_deterministic_for_seed(self, micro_corpus_config) -> None:
        c1, q1, __ = build_synthetic_collection(micro_corpus_config)
        c2, q2, __ = build_synthetic_collection(micro_corpus_config)
        assert c1.doc_ids == c2.doc_ids
        assert [q.terms for q in q1] == [q.terms for q in q2]
        first_doc = c1.doc_ids[0]
        assert c1.get(first_doc).text == c2.get(first_doc).text

    def test_different_seeds_differ(self, micro_corpus_config) -> None:
        import dataclasses

        other = dataclasses.replace(micro_corpus_config, seed=12345)
        c1, __, __ = build_synthetic_collection(micro_corpus_config)
        c2, __, __ = build_synthetic_collection(other)
        assert c1.get(c1.doc_ids[0]).text != c2.get(c2.doc_ids[0]).text


class TestTopicModel:
    def test_doc_topics_normalized(self, collection) -> None:
        __, __, model = collection
        for doc_id, weights in model.doc_topics.items():
            assert sum(weights.values()) == pytest.approx(1.0)

    def test_dominant_topic_valid(self, collection, micro_corpus_config) -> None:
        corpus, __, model = collection
        for doc_id in corpus.doc_ids:
            weights = model.doc_topics[doc_id]
            dominant = max(weights, key=lambda t: (weights[t], -t))
            assert 0 <= dominant < micro_corpus_config.num_topics

    def test_topic_cores_disjoint(self, collection) -> None:
        __, __, model = collection
        seen = set()
        for core in model.topic_cores:
            core_set = set(core)
            assert not core_set & seen
            seen |= core_set

    def test_query_topic_terms_from_core(self, collection) -> None:
        """Every original query's terms come from its topic's core."""
        __, query_set, model = collection
        for query in query_set:
            core = set(model.topic_cores[model.query_topics[query.query_id]])
            assert set(query.terms) <= core


class TestZipfShape:
    def test_term_frequencies_are_skewed(self, collection) -> None:
        """The head of the collection-frequency distribution should carry
        disproportionate mass (Zipf-ish), not be uniform."""
        corpus, __, __ = collection
        freqs = sorted(corpus.collection_frequency.values(), reverse=True)
        head = sum(freqs[: len(freqs) // 10 or 1])
        total = sum(freqs)
        assert head > total * 0.2


class TestConfigValidation:
    def test_cores_exceed_vocabulary(self) -> None:
        with pytest.raises(ConfigurationError):
            SyntheticCorpusConfig(
                num_topics=10, topic_core_size=100, vocabulary_size=500
            )

    def test_bad_background_fraction(self) -> None:
        with pytest.raises(ConfigurationError):
            SyntheticCorpusConfig(background_fraction=1.0)

    def test_bad_doc_length(self) -> None:
        with pytest.raises(ConfigurationError):
            SyntheticCorpusConfig(mean_doc_length=10, min_doc_length=20)
