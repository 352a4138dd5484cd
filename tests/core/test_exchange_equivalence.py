"""One exchange ≡ the hand-inlined ones.

``IndexingProtocol`` runs every batched operation through one
``_route`` / ``_locate`` / ``_exchange``; ``tests/core/inline_exchanges.py``
keeps the loops each operation used to carry.  Twin systems replay the
oracle's ``learn`` and ``bulk-churn`` flows and then a query stream,
with the result cache on so that all six batched methods and the
result-home exchange run, and must agree *exactly*: every batched call's
result and failed terms in call order, the traffic ``NetworkStats``
counted, the write-state fingerprint, the result-cache tallies and the
rankings.  On a seeded lossy transport that is a strong claim — one
message sent in a different order, or one more or fewer, shifts the
transport's RNG stream and every later drop with it.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core.indexer import SlotView
from repro.core.system import SpriteSystem
from repro.corpus.synthetic import SyntheticTrecCorpus
from repro.net.faults import FaultInjector
from repro.net.transport import DeliveryPolicy, LossyTransport
from repro.sim.oracle import DifferentialOracle, write_state_fingerprint

from .inline_exchanges import InlineExchanges, install_inline_exchanges

BATCHED = (
    "publish_batch",
    "unpublish_batch",
    "poll_batch",
    "fetch_slot_views",
    "fetch_postings_batch",
    "probe_slot_versions",
)

TRANSPORTS = {
    "perfect": lambda: None,
    "lossy": lambda: LossyTransport(
        faults=FaultInjector(drop_probability=0.2),
        policy=DeliveryPolicy(max_retries=0),
        seed=11,
    ),
}


def comparable(value):
    """A batched method's result in a form two separately built systems
    can share: a slot view by its content, a slot version (drawn from a
    process-global counter) by whether the slot is indexed at all."""
    if isinstance(value, SlotView):
        return (value.term, value.indexed_df, bool(value.version), value.scoring_view())
    if isinstance(value, dict):
        return {key: comparable(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return type(value)(comparable(item) for item in value)
    return value


def record_batched_calls(system) -> List[tuple]:
    """Log ``(method, comparable result)`` of every batched protocol
    call *system* makes from here on."""
    log: List[tuple] = []
    protocol = system.protocol

    def recording(name, method):
        def call(*args, **kwargs):
            answered, failed = result = method(*args, **kwargs)
            if name == "probe_slot_versions":
                answered = {term: bool(version) for term, version in answered.items()}
            log.append((name, comparable(answered), failed))
            return result

        return call

    for name in BATCHED:
        setattr(protocol, name, recording(name, getattr(protocol, name)))
    return log


@pytest.mark.parametrize("flow", ["learn", "bulk-churn"])
@pytest.mark.parametrize("transport", TRANSPORTS.values(), ids=TRANSPORTS.keys())
def test_one_exchange_matches_the_inlined_loops(
    micro_corpus_config, transport, flow
) -> None:
    corpus, originals, __ = SyntheticTrecCorpus(micro_corpus_config).build()
    queries = list(originals)
    oracle = DifferentialOracle(
        corpus, train=queries[:4], test=queries[4:], num_peers=16, seed=0
    )

    def build() -> SpriteSystem:
        sprite, chord = oracle.configs({"sprite": {"result_cache_size": 32}})
        return SpriteSystem(
            corpus, sprite_config=sprite, chord_config=chord, transport=transport()
        )

    folded, inlined = build(), install_inline_exchanges(build())
    assert type(inlined.protocol) is InlineExchanges
    logs = [record_batched_calls(system) for system in (folded, inlined)]
    rankings = []
    for system in (folded, inlined):
        oracle._replay(system, flow)
        ranked = []
        # Twice over: the second pass meets the result caches the first
        # filled; cache=False reaches the version probe.
        for cache in (True, False, True, False):
            for query in oracle.train + oracle.test:
                ranked.append(
                    [(e.doc_id, e.score) for e in system.search(query, cache=cache)]
                )
        issuer = system.ring.live_ids[0]
        for query in oracle.test:
            system.protocol.fetch_postings_batch(issuer, query.terms)
        rankings.append(ranked)

    assert logs[0] == logs[1]
    # Every batched method ran (the learn flow never withdraws a term).
    assert set(BATCHED) - {name for name, __, __ in logs[0]} == (
        {"unpublish_batch"} if flow == "learn" else set()
    )
    assert rankings[0] == rankings[1]
    assert folded.ring.stats.summary() == inlined.ring.stats.summary()
    assert write_state_fingerprint(folded) == write_state_fingerprint(inlined)
    assert folded.protocol.result_cache_stats() == inlined.protocol.result_cache_stats()
    if folded.ring.transport.trace is not None:
        assert (
            folded.ring.transport.trace.summary_table()
            == inlined.ring.transport.trace.summary_table()
        )
        # The comparison was not vacuous: terms really were lost.
        assert any(failed for __, __, failed in logs[0])
