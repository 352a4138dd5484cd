"""Lossy delivery ≡ the per-attempt reference (``legacy_lossy.py``).

Two transports are built alike from one hypothesis-drawn fault plan —
global drop rate, flaky and slow peers, blackout windows, retry budget,
jitter, constant or log-normal latency — and fed the same messages, some
to a dead destination.  One delivers with :meth:`LossyTransport.deliver`,
the other with the reference loop that re-reads the plan and the clock
on every attempt.  After every delivery the receipts, the clocks, the
trace records and the RNG states must be identical: the per-delivery
reads change no draw, no time and no outcome.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.messages import ALL_KINDS, Message
from repro.net import (
    ConstantLatency,
    DeliveryPolicy,
    FaultInjector,
    LogNormalLatency,
    LossyTransport,
)

from .legacy_lossy import legacy_deliver

PEERS = range(1, 7)


@st.composite
def fault_plans(draw):
    """The arguments of one fault plan: ``(drop, flaky, slow, blackouts)``."""
    drop = draw(st.sampled_from([0.0, 0.0, 0.05, 0.3, 0.7, 1.0]))
    flaky = draw(st.dictionaries(st.sampled_from(PEERS), st.sampled_from([0.0, 0.2, 0.5, 1.0]), max_size=3))
    slow = draw(st.dictionaries(st.sampled_from(PEERS), st.sampled_from([1.0, 2.5, 12.0]), max_size=3))
    blackouts = draw(
        st.lists(
            st.tuples(
                st.sampled_from(PEERS),
                st.floats(0.0, 4000.0, allow_nan=False),
                st.floats(1.0, 3000.0, allow_nan=False),
            ),
            max_size=4,
        )
    )
    return drop, flaky, slow, blackouts


def build(plan, max_retries: int, jitter_ms: float, lognormal: bool, seed: int) -> LossyTransport:
    drop, flaky, slow, blackouts = plan
    faults = FaultInjector(drop_probability=drop)
    for node, rate in flaky.items():
        faults.mark_flaky(node, rate)
    for node, factor in slow.items():
        faults.mark_slow(node, factor)
    for node, start, length in blackouts:
        faults.blackout(node, start, start + length)
    return LossyTransport(
        latency=LogNormalLatency(median_ms=60.0, sigma=0.8) if lognormal else ConstantLatency(ms=50.0),
        faults=faults,
        policy=DeliveryPolicy(timeout_ms=250.0, max_retries=max_retries, jitter_ms=jitter_ms),
        rng=random.Random(seed),
    )


@settings(max_examples=150, deadline=None)
@given(
    plan=fault_plans(),
    max_retries=st.integers(0, 6),
    jitter_ms=st.sampled_from([0.0, 20.0]),
    lognormal=st.booleans(),
    seed=st.integers(0, 2**16),
    deliveries=st.lists(
        st.tuples(
            st.sampled_from(ALL_KINDS),
            st.sampled_from(PEERS),
            st.sampled_from(PEERS),
            st.sampled_from([True, True, True, False]),
        ),
        min_size=1,
        max_size=25,
    ),
)
def test_deliver_matches_per_attempt_reference(
    plan, max_retries, jitter_ms, lognormal, seed, deliveries
) -> None:
    fast = build(plan, max_retries, jitter_ms, lognormal, seed)
    reference = build(plan, max_retries, jitter_ms, lognormal, seed)
    for kind, src, dst, dst_alive in deliveries:
        message = Message(kind, src=src, dst=dst)
        receipt = fast.deliver(message, dst_alive=dst_alive)
        expected = legacy_deliver(reference, message, dst_alive=dst_alive)
        assert receipt == expected
        assert receipt.outcome is expected.outcome
        assert fast.clock.now == reference.clock.now
        assert fast.trace.records == reference.trace.records
        assert fast.rng.getstate() == reference.rng.getstate()
