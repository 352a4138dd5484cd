"""Where the §3 closest-hash rule runs moves bytes, nothing else.

The owner now applies the rule to every query its poll delivers;
``tests/core/peer_side_dedup.py`` keeps the placement it replaced, where
each POLL_BATCH carried the owner's index-term hashes so the indexing
peer could apply it.  Twin systems replay the oracle's ``learn`` and
``bulk-churn`` flows and then the test queries, and must agree exactly
on every ``poll_batch`` result in call order, on the write-state
fingerprint (slots, version order, and per document its poll cursors and
learner statistics), on the rankings and on every ``NetworkStats``
counter but two: the POLL_BATCH bytes, lighter by the hash lists the
reference delivered, and the QUERY_BATCH bytes, heavier by the
duplicates the reference withheld.  On the seeded lossy transport the
claim is strong: a message more or fewer, or sent in another order,
would shift every later drop.
"""

from __future__ import annotations

import pytest

from repro.core.system import SpriteSystem
from repro.corpus.synthetic import SyntheticTrecCorpus
from repro.dht.messages import MessageKind
from repro.net.faults import FaultInjector
from repro.net.transport import DeliveryPolicy, LossyTransport
from repro.sim.oracle import DifferentialOracle, write_state_fingerprint

from .peer_side_dedup import PeerSideDedup, install_peer_side_dedup

TRANSPORTS = {
    "perfect": lambda: None,
    "lossy": lambda: LossyTransport(
        faults=FaultInjector(drop_probability=0.2),
        policy=DeliveryPolicy(max_retries=0),
        seed=11,
    ),
}


def record_polls(system) -> list:
    """Log every ``poll_batch`` result *system* returns from here on."""
    log = []
    protocol = system.protocol
    poll_batch = protocol.poll_batch

    def call(*args):
        result = poll_batch(*args)
        log.append(result)
        return result

    protocol.poll_batch = call
    return log


@pytest.mark.parametrize("flow", ["learn", "bulk-churn"])
@pytest.mark.parametrize("transport", TRANSPORTS.values(), ids=TRANSPORTS.keys())
def test_owner_side_rule_matches_the_peer_side_rule(
    micro_corpus_config, transport, flow
) -> None:
    corpus, originals, __ = SyntheticTrecCorpus(micro_corpus_config).build()
    queries = list(originals)
    oracle = DifferentialOracle(
        corpus, train=queries[:4], test=queries[4:], num_peers=16, seed=0
    )

    def build() -> SpriteSystem:
        sprite, chord = oracle.configs()
        return SpriteSystem(
            corpus, sprite_config=sprite, chord_config=chord, transport=transport()
        )

    owner_side, peer_side = build(), install_peer_side_dedup(build())
    assert type(peer_side.protocol) is PeerSideDedup
    logs = [record_polls(system) for system in (owner_side, peer_side)]
    rankings = []
    for system in (owner_side, peer_side):
        oracle._replay(system, flow)
        rankings.append(
            [
                [(e.doc_id, e.score) for e in system.search(query, cache=False)]
                for query in oracle.test
            ]
        )

    assert logs[0] == logs[1]
    assert write_state_fingerprint(owner_side) == write_state_fingerprint(peer_side)
    assert rankings[0] == rankings[1]

    reference = peer_side.protocol
    assert reference.hash_bytes > 0 and reference.withheld_bytes > 0
    ours, theirs = owner_side.ring.stats.summary(), peer_side.ring.stats.summary()
    poll, reply = MessageKind.POLL_BATCH.value, MessageKind.QUERY_BATCH.value
    assert ours[poll]["bytes"] == theirs[poll]["bytes"] - reference.hash_bytes
    assert ours[reply]["bytes"] == theirs[reply]["bytes"] + reference.withheld_bytes
    for counters in (ours, theirs):
        del counters[poll]["bytes"], counters[reply]["bytes"]
    assert ours == theirs
    # The saving the placement buys: the hash lists outweigh the duplicates.
    assert reference.hash_bytes > reference.withheld_bytes
    if isinstance(owner_side.ring.transport, LossyTransport):
        # Not vacuous: polls really were lost.
        assert any(failed for __, failed in logs[0])
