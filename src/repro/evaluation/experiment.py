"""The shared experimental environment (paper Section 6.2).

Building the evaluation scenario is expensive relative to a single
measurement — corpus synthesis, full centralized indexing, deep ranked
lists for the query generator — so :class:`Environment` constructs it
once and every experiment reuses it:

1. synthesize the corpus and its 63 original queries with expert qrels;
2. build the centralized reference system;
3. run the Section 6.1 query generator (k = 9, O = 0.7) to obtain the
   full 630-query evaluation set;
4. split it 50/50 into training and testing sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from ..config import ExperimentConfig, paper_experiment_config
from ..corpus.corpus import Corpus
from ..corpus.relevance import Query, QuerySet
from ..corpus.synthetic import SyntheticTrecCorpus
from ..ir.centralized import CentralizedSystem
from ..ir.ranking import RankedList
from ..querygen.generator import QueryGenerator
from ..querygen.workload import random_split


@dataclass
class Environment:
    """Everything an experiment needs, built once."""

    config: ExperimentConfig
    corpus: Corpus
    originals: QuerySet
    full_set: QuerySet
    train: QuerySet
    test: QuerySet
    centralized: CentralizedSystem

    _ranking_cache: Dict[str, RankedList] = None  # type: ignore[assignment]

    def centralized_ranking(self, query: Query) -> RankedList:
        """Centralized deep ranking for a query, memoized — the
        reference side of every ratio, reused across cutoffs."""
        if self._ranking_cache is None:
            self._ranking_cache = {}
        ranked = self._ranking_cache.get(query.query_id)
        if ranked is None:
            ranked = self.centralized.search(query)
            self._ranking_cache[query.query_id] = ranked
        return ranked

    def centralized_rankings(self, queries: Iterable[Query]) -> Dict[str, RankedList]:
        """Memoized centralized rankings for a batch of queries."""
        return {q.query_id: self.centralized_ranking(q) for q in queries}


def build_environment(config: ExperimentConfig | None = None) -> Environment:
    """Construct the full experimental environment from a config."""
    cfg = config if config is not None else paper_experiment_config()
    corpus, originals, __ = SyntheticTrecCorpus(cfg.corpus).build()
    centralized = CentralizedSystem(corpus)
    generator = QueryGenerator(corpus, centralized, cfg.querygen)
    full_set = generator.generate_with_originals(originals)
    train, test = random_split(full_set, cfg.train_fraction, cfg.split_seed)
    return Environment(
        config=cfg,
        corpus=corpus,
        originals=originals,
        full_set=full_set,
        train=train,
        test=test,
        centralized=centralized,
    )
