"""Synthetic TREC-like corpus generator.

The paper evaluates on TREC-9 (348,565 OHSUMED documents, 63 expert-
judged queries).  That data cannot be redistributed, so this module
builds a *synthetic equivalent* that preserves the three statistical
properties the paper's mechanisms actually depend on (see the
substitution table in DESIGN.md):

1. **Zipfian term statistics** — within-topic and background term
   frequencies follow a power law, so "top frequent terms" is a
   meaningful, skewed notion (this is what eSearch indexes).
2. **Query locality** — queries about the same topic share keywords and
   share relevant documents, which is precisely the phenomenon SPRITE's
   learning exploits (paper observation 3, Section 1).
3. **Characteristic-term structure** — each document is dominated by a
   small number of topics whose *core terms* both characterize the
   document and supply query keywords (paper observations 1 and 2).

The generative model: ``num_topics`` latent topics each own a disjoint
*core* of ``topic_core_size`` vocabulary words with Zipf-ranked
within-topic frequencies; the remaining vocabulary is a shared Zipf
*background*.  A document samples 1..``max_topics_per_doc`` topics with
random mixture weights and draws tokens from core and background.
Original queries pick discriminative core terms of one topic; expert
qrels are the documents with the strongest affinity (topic weight ×
query-term match) to the query.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..config import SyntheticCorpusConfig
from ..exceptions import CorpusError
from ..text.stemmer import stem
from ..text.stopwords import LUCENE_STOP_WORDS
from .corpus import Corpus
from .document import Document
from .relevance import Qrels, Query, QuerySet
from .sampling import ZipfSampler

_CONSONANTS = "bcdfgklmnprstvz"
_VOWELS = "aeiou"


def _make_word(rng: random.Random) -> str:
    """Generate one pronounceable pseudo-word (2-4 CV syllables plus an
    optional final consonant)."""
    syllables = rng.randint(2, 4)
    parts = []
    for __ in range(syllables):
        parts.append(rng.choice(_CONSONANTS))
        parts.append(rng.choice(_VOWELS))
    if rng.random() < 0.4:
        parts.append(rng.choice(_CONSONANTS))
    return "".join(parts)


def generate_vocabulary(size: int, rng: random.Random) -> List[str]:
    """Generate *size* unique pseudo-words that are fix-points of the
    Porter stemmer.

    Every downstream system analyzes text with stemming enabled;
    generating stem-stable words guarantees the generator's term
    identities survive analysis unchanged, so qrels and query terms line
    up exactly with the analyzed term space.
    """
    words: List[str] = []
    seen = set()
    attempts = 0
    budget = 400 * size
    while len(words) < size:
        attempts += 1
        if attempts > budget:
            raise CorpusError(
                "vocabulary generation exhausted its attempt budget; "
                "requested size is too large for the pseudo-word space"
            )
        candidate = _make_word(rng)
        stemmed = stem(candidate)
        if stem(stemmed) != stemmed:
            continue
        if len(stemmed) < 3 or stemmed in LUCENE_STOP_WORDS or stemmed in seen:
            continue
        seen.add(stemmed)
        words.append(stemmed)
    return words


@dataclass(frozen=True)
class TopicModel:
    """The latent structure behind a synthetic corpus (kept for
    inspection, debugging, and white-box tests)."""

    topic_cores: Tuple[Tuple[str, ...], ...]
    background: Tuple[str, ...]
    doc_topics: Dict[str, Dict[int, float]]
    query_topics: Dict[str, int]


class SyntheticTrecCorpus:
    """Build a (Corpus, QuerySet, TopicModel) triple from a config.

    Deterministic: the same :class:`SyntheticCorpusConfig` (including
    its ``seed``) always produces the identical corpus.
    """

    def __init__(self, config: SyntheticCorpusConfig | None = None) -> None:
        self.config = config if config is not None else SyntheticCorpusConfig()

    def build(self) -> Tuple[Corpus, QuerySet, TopicModel]:
        """Generate everything.  See the module docstring for the model."""
        cfg = self.config
        rng = random.Random(cfg.seed)

        vocabulary = generate_vocabulary(cfg.vocabulary_size, rng)
        rng.shuffle(vocabulary)

        core_count = cfg.num_topics * cfg.topic_core_size
        topic_cores: List[Tuple[str, ...]] = []
        for t in range(cfg.num_topics):
            lo = t * cfg.topic_core_size
            topic_cores.append(tuple(vocabulary[lo : lo + cfg.topic_core_size]))
        background = tuple(vocabulary[core_count:])
        if not background:
            raise CorpusError("no background vocabulary left; shrink topic cores")

        topic_samplers = [
            ZipfSampler(core, cfg.zipf_exponent) for core in topic_cores
        ]
        background_sampler = ZipfSampler(background, cfg.zipf_exponent)

        documents, doc_topics = self._generate_documents(
            rng, topic_samplers, background_sampler
        )
        queries, query_topics = self._generate_queries(rng, topic_cores)
        qrels = self._judge(documents, doc_topics, queries, query_topics)

        corpus = Corpus(documents)
        model = TopicModel(
            topic_cores=tuple(topic_cores),
            background=background,
            doc_topics=doc_topics,
            query_topics=query_topics,
        )
        return corpus, QuerySet(queries, qrels), model

    # -- documents -----------------------------------------------------------

    def _generate_documents(
        self,
        rng: random.Random,
        topic_samplers: Sequence[ZipfSampler],
        background_sampler: ZipfSampler,
    ) -> Tuple[List[Document], Dict[str, Dict[int, float]]]:
        cfg = self.config
        documents: List[Document] = []
        doc_topics: Dict[str, Dict[int, float]] = {}
        id_width = max(5, len(str(cfg.num_documents)))

        for i in range(cfg.num_documents):
            doc_id = f"d{i:0{id_width}d}"
            n_topics = rng.randint(1, cfg.max_topics_per_doc)
            topics = rng.sample(range(cfg.num_topics), min(n_topics, cfg.num_topics))
            raw = [rng.random() + 0.25 for __ in topics]
            total = sum(raw)
            weights = {t: w / total for t, w in zip(topics, raw)}

            length = max(
                cfg.min_doc_length,
                int(rng.gauss(cfg.mean_doc_length, cfg.mean_doc_length / 3)),
            )
            tokens: List[str] = []
            topic_list = list(weights)
            cumulative = []
            acc = 0.0
            for t in topic_list:
                acc += weights[t]
                cumulative.append(acc)
            for __ in range(length):
                if rng.random() < cfg.background_fraction:
                    tokens.append(background_sampler.sample(rng))
                else:
                    x = rng.random() * acc
                    idx = 0
                    while idx < len(cumulative) - 1 and x > cumulative[idx]:
                        idx += 1
                    tokens.append(topic_samplers[topic_list[idx]].sample(rng))
            rng.shuffle(tokens)
            documents.append(Document(doc_id=doc_id, text=" ".join(tokens)))
            doc_topics[doc_id] = weights
        return documents, doc_topics

    # -- queries ---------------------------------------------------------------

    def _generate_queries(
        self, rng: random.Random, topic_cores: Sequence[Tuple[str, ...]]
    ) -> Tuple[List[Query], Dict[str, int]]:
        cfg = self.config
        queries: List[Query] = []
        query_topics: Dict[str, int] = {}
        id_width = max(2, len(str(cfg.num_original_queries)))

        for i in range(cfg.num_original_queries):
            topic = i % cfg.num_topics
            core = topic_cores[topic]
            n_terms = rng.randint(cfg.query_min_terms, cfg.query_max_terms)
            # Query-term choice within the topic core: mildly skewed
            # (config.query_term_skew) — experts query with terms that
            # characterize the topic but are not necessarily the most
            # frequent tokens of any one document, which is precisely
            # why frequency-only indexing misses them.
            sampler = ZipfSampler(core, cfg.query_term_skew)
            terms = sampler.sample_distinct(rng, min(n_terms, len(core)))
            qid = f"q{i:0{id_width}d}"
            queries.append(Query(query_id=qid, terms=tuple(terms)))
            query_topics[qid] = topic
        return queries, query_topics

    # -- qrels -------------------------------------------------------------------

    def _judge(
        self,
        documents: Sequence[Document],
        doc_topics: Dict[str, Dict[int, float]],
        queries: Sequence[Query],
        query_topics: Dict[str, int],
    ) -> Qrels:
        """Derive expert judgments from the latent model.

        A document's affinity to a query is its weight on the query's
        topic scaled by how strongly it actually matches the query
        terms; the top ``relevant_per_query`` documents with positive
        affinity are judged relevant.  This mimics expert pooling: the
        judged set is topical AND term-matching, but is *not* simply the
        TF-IDF ranking, so the centralized system is a strong-but-
        imperfect reference exactly as in TREC.
        """
        cfg = self.config
        qrels = Qrels()
        for query in queries:
            topic = query_topics[query.query_id]
            scored: List[Tuple[float, str]] = []
            for doc in documents:
                weight = doc_topics[doc.doc_id].get(topic, 0.0)
                if weight <= 0.0:
                    continue
                matches = sum(1 for t in query.terms if doc.contains(t))
                if matches == 0:
                    continue
                scored.append((weight * (1.0 + matches), doc.doc_id))
            scored.sort(key=lambda pair: (-pair[0], pair[1]))
            for __, doc_id in scored[: cfg.relevant_per_query]:
                qrels.add(query.query_id, doc_id)
        return qrels


def build_synthetic_collection(
    config: SyntheticCorpusConfig | None = None,
) -> Tuple[Corpus, QuerySet, TopicModel]:
    """Convenience one-call builder used throughout tests and benches."""
    return SyntheticTrecCorpus(config).build()
