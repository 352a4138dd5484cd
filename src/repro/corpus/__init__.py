"""Corpus substrate: documents, collections, judgments, generators."""

from .corpus import Corpus
from .document import Document
from .relevance import Qrels, Query, QuerySet
from .sampling import CategoricalSampler, ZipfSampler, zipf_weights
from .synthetic import (
    SyntheticTrecCorpus,
    TopicModel,
    build_synthetic_collection,
    generate_vocabulary,
)
from .trec import (
    iter_ohsumed_documents,
    iter_trec_documents,
    load_qrels,
    load_trec_collection,
    load_trec_documents,
    load_trec_topics,
)

__all__ = [
    "CategoricalSampler",
    "Corpus",
    "Document",
    "Qrels",
    "Query",
    "QuerySet",
    "SyntheticTrecCorpus",
    "TopicModel",
    "ZipfSampler",
    "build_synthetic_collection",
    "generate_vocabulary",
    "iter_ohsumed_documents",
    "iter_trec_documents",
    "load_qrels",
    "load_trec_collection",
    "load_trec_documents",
    "load_trec_topics",
    "zipf_weights",
]
