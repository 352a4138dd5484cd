#!/usr/bin/env python
"""Quickstart: build a SPRITE network, learn from queries, search.

Runs in a few seconds on the small synthetic corpus.  This walks the
same pipeline as the paper's Section 6.2 experiment:

1. synthesize a TREC-like corpus with expert-judged queries;
2. derive an evaluation query set with the Section 6.1 generator;
3. stand up a Chord ring, share every document (5 initial terms each);
4. insert the training queries and run 3 learning iterations;
5. search with the testing queries and compare against the ideal
   centralized system.
"""

from __future__ import annotations

from repro import (
    build_environment,
    build_trained_sprite,
    small_experiment_config,
)
from repro.evaluation import relative_to_centralized


def main() -> None:
    print("Building the experimental environment (synthetic TREC-like corpus)...")
    env = build_environment(small_experiment_config())
    print(
        f"  corpus: {len(env.corpus)} documents, "
        f"{len(env.corpus.vocabulary)} terms"
    )
    print(
        f"  queries: {len(env.full_set)} "
        f"({len(env.train)} training / {len(env.test)} testing)"
    )

    print("\nTraining SPRITE (share -> insert training queries -> learn)...")
    sprite = build_trained_sprite(env)
    sizes = sprite.learning_summary()
    print(
        f"  {sum(sizes.values())} global index terms published "
        f"(max {max(sizes.values())} per document)"
    )
    print(f"  mean lookup hops so far: {sprite.ring.stats.mean_lookup_hops:.2f}")

    query = env.test.queries[0]
    print(f"\nSearching for: {' '.join(query.terms)}")
    ranked = sprite.search(query, cache=False)
    relevant = env.test.qrels.relevant(query.query_id)
    for entry in ranked[:10]:
        marker = "*" if entry.doc_id in relevant else " "
        print(f"  {marker} {entry.doc_id}  score={entry.score:.3f}")
    print("  (* = expert-judged relevant)")

    print("\nEffectiveness relative to the centralized system (top 20):")
    k = env.config.sprite.top_k_answers
    queries = list(env.test.queries)
    rankings = {q.query_id: sprite.search(q, top_k=k, cache=False) for q in queries}
    central = env.centralized_rankings(queries)
    rel = relative_to_centralized(rankings, central, env.test.qrels, k)
    print(f"  precision ratio: {rel.precision_ratio:.1%}")
    print(f"  recall ratio:    {rel.recall_ratio:.1%}")


if __name__ == "__main__":
    main()
