"""Query-stream shaping for the experiments.

The paper evaluates under three stream regimes:

* the default split — "we split these queries into 2 equal groups: a
  training set and a testing set.  The queries are randomly assigned";
* "w/o-r" — every query appears exactly once (the adversarial,
  no-repeats extreme of Figure 4(b));
* "w-zipf" — query frequency "roughly inversely proportional to the
  popularity of the query" with Zipf slope 0.5;
* the Figure 4(c) pattern change — the query set is "evenly partitioned
  into two groups such that all new queries and their corresponding
  original query are in the same group".
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from ..config import WorkloadConfig
from ..corpus.relevance import Query, QuerySet
from ..corpus.sampling import ZipfSampler
from ..exceptions import QueryError


def random_split(
    query_set: QuerySet, train_fraction: float = 0.5, seed: int = 5415
) -> Tuple[QuerySet, QuerySet]:
    """Randomly assign queries to (train, test) groups; qrels shared."""
    if not 0.0 < train_fraction < 1.0:
        raise QueryError("train_fraction must be in (0, 1)")
    rng = random.Random(seed)
    ids = [q.query_id for q in query_set.queries]
    rng.shuffle(ids)
    cut = int(len(ids) * train_fraction)
    train_ids = set(ids[:cut])
    return query_set.split(train_ids)


def without_repeats_stream(
    query_set: QuerySet, seed: int = 271828
) -> List[Query]:
    """The "w/o-r" stream: each query exactly once, in random order —
    the extreme "biased against SPRITE" case where the least can be
    learned from repetition."""
    rng = random.Random(seed)
    stream = list(query_set.queries)
    rng.shuffle(stream)
    return stream


def zipf_stream(
    query_set: QuerySet,
    config: WorkloadConfig | None = None,
) -> List[Query]:
    """The "w-zipf" stream: queries drawn with Zipf(slope) popularity.

    Popularity rank is a random permutation of the query set (seeded),
    and the stream length defaults to the set size, so every experiment
    sees a comparable volume of traffic whichever regime it uses.
    """
    cfg = config if config is not None else WorkloadConfig()
    rng = random.Random(cfg.seed)
    ranked = list(query_set.queries)
    rng.shuffle(ranked)  # the popularity ordering
    sampler = ZipfSampler(ranked, cfg.zipf_slope)
    length = cfg.stream_length if cfg.stream_length > 0 else len(ranked)
    return sampler.sample_many(rng, length)


def pattern_change_groups(
    query_set: QuerySet, seed: int = 1405
) -> Tuple[QuerySet, QuerySet]:
    """The Figure 4(c) partition: split into two equal-sized groups of
    *query families* — every generated query lands in the same group as
    its original, so the second group is entirely unseen during the
    first phase."""
    rng = random.Random(seed)
    families: Dict[str, List[Query]] = {}
    for query in query_set.queries:
        families.setdefault(query.origin_id, []).append(query)
    origin_ids = sorted(families)
    rng.shuffle(origin_ids)

    group_a: List[Query] = []
    group_b: List[Query] = []
    # Greedy balance by family size keeps the two groups even when
    # family sizes differ (they normally don't: k+1 queries each).
    for origin in origin_ids:
        target = group_a if len(group_a) <= len(group_b) else group_b
        target.extend(families[origin])
    return (
        QuerySet(group_a, query_set.qrels),
        QuerySet(group_b, query_set.qrels),
    )
