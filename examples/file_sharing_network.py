#!/usr/bin/env python
"""A living P2P file-sharing network: joins, leaves, shares, searches.

The scenario the paper's introduction motivates: end-users sharing text
documents.  This example drives a Chord network through its lifecycle —
peers share documents, users query, new peers join (taking over part of
the key space), peers leave gracefully and crash abruptly — and shows
that retrieval keeps working throughout thanks to key migration and
successor replication.
"""

from __future__ import annotations

import random

from repro import ChordConfig, Query, ReplicationManager, SpriteConfig, SpriteSystem
from repro.config import SyntheticCorpusConfig
from repro.corpus import SyntheticTrecCorpus


def show(label: str, system: SpriteSystem, query: Query) -> None:
    try:
        ranked = system.search(query, cache=False)
        print(f"  [{label}] '{' '.join(query.terms)}' -> {ranked.top_ids(5)}")
    except Exception as exc:  # degraded service is part of the story
        print(f"  [{label}] query failed: {exc!r}")


def main() -> None:
    rng = random.Random(42)
    print("Synthesizing a shared-document collection...")
    corpus, query_set, __ = SyntheticTrecCorpus(
        SyntheticCorpusConfig(
            num_documents=150,
            num_topics=8,
            vocabulary_size=800,
            topic_core_size=25,
            mean_doc_length=80,
            num_original_queries=10,
            relevant_per_query=10,
            seed=42,
        )
    ).build()

    print("Bootstrapping a 48-peer Chord network and sharing documents...")
    system = SpriteSystem(
        corpus,
        sprite_config=SpriteConfig(initial_terms=5, max_index_terms=15),
        chord_config=ChordConfig(num_peers=48, seed=42),
    )
    system.share_corpus()
    print(f"  {system.total_published_terms()} postings published")
    print(f"  mean lookup hops: {system.ring.stats.mean_lookup_hops:.2f}")

    probe = query_set.queries[0]
    show("steady state", system, probe)

    print("\nUsers issue queries (these train the index)...")
    for query in query_set.queries:
        system.search(query, cache=True)
    system.run_learning(iterations=2)
    print(f"  index grew to {system.total_published_terms()} postings")
    show("after learning", system, probe)

    print("\nReplicating index slots to successors (Section 7)...")
    manager = ReplicationManager(system.ring, replication_factor=3)
    shipped = manager.replicate_round()
    print(f"  {shipped} replica entries shipped")

    print("\nMembership churn: 5 joins, 3 graceful leaves, 4 crashes...")
    ring = system.ring
    churn = random.Random(7)
    for __ in range(5):
        ring.join(name=f"churn-joiner-{churn.randint(0, 1 << 30)}")
    for __ in range(3):
        ring.leave(ring.random_live_id(churn))
    for __ in range(4):
        ring.fail(ring.random_live_id(churn))
    print(f"  live peers: {system.ring.num_live}")

    print("Repairing routing state and promoting replicas...")
    promoted = manager.recover_from_failures()
    print(f"  {promoted} replica slots promoted to primaries")
    show("after churn + recovery", system, probe)

    print("\nTraffic summary (messages / bytes / hops by kind):")
    for kind, counters in system.ring.stats.summary().items():
        print(
            f"  {kind:<14} {counters['messages']:>7} msgs  "
            f"{counters['bytes']:>9} B  {counters['hops']:>7} hops"
        )


if __name__ == "__main__":
    main()
