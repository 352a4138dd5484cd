"""Corpus substrate: documents, collections, judgments, generators."""

from .corpus import Corpus
from .document import Document
from .relevance import Qrels, Query, QuerySet
from .sampling import CategoricalSampler, ZipfSampler, zipf_weights
from .synthetic import (
    SyntheticTrecCorpus,
    TopicModel,
    generate_vocabulary,
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
    "generate_vocabulary",
    "zipf_weights",
]
