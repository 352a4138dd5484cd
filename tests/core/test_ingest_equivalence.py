"""Exactness of the write protocol (ISSUE 5, ISSUE 17).

The destination-grouped publish/unpublish/poll protocol
:class:`~repro.core.owner.OwnerPeer` speaks must be *invisible in
state*: after any identical sequence of bulk shares, query
registrations, learning iterations, withdrawals, re-shares, and graceful
churn, the full write-visible state — slot postings and aggregates, the
global order in which slot versions were assigned, owner index terms,
poll cursors, and learner statistics — must be bit-identical to what the
seed's per-term protocol (``per_term_owner.PerTermOwner``) leaves.
These are the stack-level properties; on whole systems the reference is
the ``per_term_owners`` row of the twin table (``tests/twins.py``).
"""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ChordConfig, SpriteConfig
from repro.core.indexer import IndexingProtocol
from repro.core.owner import OwnerPeer
from repro.corpus import Document
from repro.dht import ChordRing

from ..twins import write_state_fingerprint
from .per_term_owner import PerTermOwner

VOCAB = [f"kw{i:03d}" for i in range(18)]


class _Stack:
    """A bare ring + protocol + one owner peer, shaped like the
    ``SpriteSystem`` surface :func:`write_state_fingerprint` reads
    (``.ring`` and ``.owners``)."""

    def __init__(self, batched: bool, ring_seed: int) -> None:
        self.ring = ChordRing(
            ChordConfig(
                num_peers=16,
                id_bits=32,
                successor_list_size=4,
                seed=ring_seed,
                route_cache_size=4096,
            )
        )
        self.config = SpriteConfig(
            initial_terms=2,
            terms_per_iteration=2,
            learning_iterations=1,
            max_index_terms=5,
            query_cache_size=64,
            assumed_corpus_size=1000,
        )
        self.protocol = IndexingProtocol(self.ring, query_cache_size=64)
        owner_type = OwnerPeer if batched else PerTermOwner
        self.owner = owner_type(self.ring.live_ids[0], self.protocol, self.config)
        self.owners = {self.owner.node_id: self.owner}


def _make_docs(rng: random.Random, num_docs: int) -> list:
    docs = []
    for d in range(num_docs):
        words = [rng.choice(VOCAB) for __ in range(rng.randint(6, 20))]
        docs.append(Document(f"d{d:03d}", " ".join(words)))
    return docs


def _replay(stack: _Stack, plan: dict) -> None:
    """Apply one shared operation plan to a stack.  Both stacks replay
    the *same* plan, so any state divergence is the write path's."""
    stack.owner.share_bulk(plan["docs"])
    issuer = stack.ring.live_ids[2]
    for terms in plan["queries"]:
        stack.protocol.register_query(issuer, terms)
    for __ in range(plan["learning_rounds"]):
        stack.owner.learn_all()
    if plan["churn"]:
        # Graceful churn: a non-owner peer departs, a new one joins,
        # and the ring re-stabilizes before the next write burst (the
        # regime in which grouped and per-term routing must agree).
        live = [n for n in stack.ring.live_ids if n != stack.owner.node_id]
        stack.ring.leave(live[plan["victim_index"] % len(live)])
        stack.ring.join(plan["joiner_id"])
        stack.ring.stabilize()
    doc_ids = [doc.doc_id for doc in plan["docs"]]
    withdrawn = doc_ids[: max(1, math.ceil(len(doc_ids) / 2))]
    stack.owner.unshare_bulk(withdrawn)
    stack.owner.share_bulk(
        [doc for doc in plan["docs"] if doc.doc_id in set(withdrawn)]
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_docs=st.integers(min_value=2, max_value=8),
    num_queries=st.integers(min_value=0, max_value=12),
    learning_rounds=st.integers(min_value=0, max_value=2),
    churn=st.booleans(),
)
def test_ingest_equivalence_property(
    seed: int,
    num_docs: int,
    num_queries: int,
    learning_rounds: int,
    churn: bool,
) -> None:
    """For any seeded ingest workload — bulk share, training queries,
    learning, graceful churn, withdraw and re-share — the grouped
    protocol and the per-term reference leave bit-identical
    write-visible state."""
    rng = random.Random(seed)
    ring_seed = rng.randint(0, 2**31)
    plan = {
        "docs": _make_docs(rng, num_docs),
        "queries": [
            tuple(rng.sample(VOCAB, rng.randint(1, 3)))
            for __ in range(num_queries)
        ],
        "learning_rounds": learning_rounds,
        "churn": churn,
        "victim_index": rng.randint(0, 10_000),
        "joiner_id": None,
    }
    batched = _Stack(batched=True, ring_seed=ring_seed)
    legacy = _Stack(batched=False, ring_seed=ring_seed)
    if churn:
        # Pick one joiner id that is fresh on both (identically seeded,
        # hence identical) rings.
        id_rng = random.Random(seed + 1)
        joiner = id_rng.randrange(batched.ring.space.size)
        while joiner in batched.ring.nodes or joiner in legacy.ring.nodes:
            joiner = id_rng.randrange(batched.ring.space.size)
        plan["joiner_id"] = joiner
    _replay(batched, plan)
    _replay(legacy, plan)
    fast = write_state_fingerprint(batched)
    slow = write_state_fingerprint(legacy)
    assert fast["slots"] == slow["slots"]
    assert fast["version_rank"] == slow["version_rank"]
    assert fast["owners"] == slow["owners"]


def test_bulk_share_matches_per_term_shares() -> None:
    """One destination-grouped bulk share ends in exactly the state a
    loop of per-term shares produces."""
    rng = random.Random(7)
    docs = _make_docs(rng, 6)
    batched = _Stack(batched=True, ring_seed=19)
    legacy = _Stack(batched=False, ring_seed=19)
    batched.owner.share_bulk(docs)
    for doc in docs:
        legacy.owner.share(doc)
    assert write_state_fingerprint(batched) == write_state_fingerprint(legacy)


def test_learning_iteration_matches_per_term_polls() -> None:
    """A full learning iteration — coalesced polls, batched index-diff
    publication — matches the per-term loop exactly, cursors included."""
    rng = random.Random(11)
    docs = _make_docs(rng, 4)
    queries = [tuple(rng.sample(VOCAB, 2)) for __ in range(10)]
    stacks = [_Stack(batched=True, ring_seed=23), _Stack(batched=False, ring_seed=23)]
    for stack in stacks:
        stack.owner.share_bulk(docs)
        issuer = stack.ring.live_ids[2]
        for terms in queries:
            stack.protocol.register_query(issuer, terms)
        stack.owner.learn_all()
        stack.owner.learn_all()  # second pass: cursors must prevent re-counting
    assert write_state_fingerprint(stacks[0]) == write_state_fingerprint(stacks[1])
