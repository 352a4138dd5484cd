"""Lossy delivery ≡ the per-attempt reference (``legacy_lossy.py``).

Two transports are built alike from one hypothesis-drawn fault plan —
global drop rate, flaky and slow peers, blackout windows, retry budget,
jitter, constant or log-normal latency — and fed the same messages, some
to a dead destination.  One delivers with :meth:`LossyTransport.deliver`,
the other with the reference loop that re-reads the plan and the clock
on every attempt.  Between deliveries the plan is edited on both alike:
peers marked and cleared flaky or slow, blackout windows opened around
the current clock.  After every delivery the receipts, the clocks, the
trace records and the RNG states must be identical: the once-per-delivery
read of the plan changes no draw, no time and no outcome, and never
serves a plan older than the delivery.

Tier-1 runs 150 drawn cases; ``LOSSY_DIFF_PROFILE=lossy-diff-drawn
python -m pytest tests/net/test_lossy_reference.py`` runs 1,000.
"""

from __future__ import annotations

import os
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

settings.register_profile("lossy-diff-tier1", max_examples=150, deadline=None)
settings.register_profile("lossy-diff-drawn", max_examples=1000, deadline=None, database=None)

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


#: A delivery ``("deliver", kind, src, dst, dst_alive)``.
DELIVERIES = st.tuples(
    st.just("deliver"),
    st.sampled_from(ALL_KINDS),
    st.sampled_from(PEERS),
    st.sampled_from(PEERS),
    st.sampled_from([True, True, True, False]),
)

#: An edit of the fault plan, made on both transports alike.
EDITS = st.one_of(
    st.tuples(st.just("mark_flaky"), st.sampled_from(PEERS), st.sampled_from([0.0, 0.2, 0.5, 1.0])),
    st.tuples(st.just("clear_flaky"), st.sampled_from(PEERS)),
    st.tuples(st.just("mark_slow"), st.sampled_from(PEERS), st.sampled_from([1.0, 2.5, 12.0])),
    st.tuples(st.just("clear_slow"), st.sampled_from(PEERS)),
    # A window opening up to 500 ms before or after the current clock.
    st.tuples(
        st.just("blackout"),
        st.sampled_from(PEERS),
        st.floats(-500.0, 500.0, allow_nan=False),
        st.floats(1.0, 2000.0, allow_nan=False),
    ),
)

#: One step of a run: two deliveries drawn for every edit.
STEPS = st.one_of(DELIVERIES, DELIVERIES, EDITS)


def edit(transport: LossyTransport, step) -> None:
    """Apply one plan edit to *transport*'s fault injector."""
    op, node, *args = step
    if op == "blackout":
        offset, length = args
        start = max(0.0, transport.clock.now + offset)
        transport.faults.blackout(node, start, start + length)
    else:
        getattr(transport.faults, op)(node, *args)


@settings(settings.get_profile(os.environ.get("LOSSY_DIFF_PROFILE", "lossy-diff-tier1")))
@given(
    plan=fault_plans(),
    max_retries=st.integers(0, 6),
    jitter_ms=st.sampled_from([0.0, 20.0]),
    lognormal=st.booleans(),
    seed=st.integers(0, 2**16),
    steps=st.lists(STEPS, min_size=1, max_size=40),
)
def test_deliver_matches_per_attempt_reference(
    plan, max_retries, jitter_ms, lognormal, seed, steps
) -> None:
    fast = build(plan, max_retries, jitter_ms, lognormal, seed)
    reference = build(plan, max_retries, jitter_ms, lognormal, seed)
    for step in steps:
        if step[0] != "deliver":
            edit(fast, step)
            edit(reference, step)
            continue
        __, kind, src, dst, dst_alive = step
        message = Message(kind, src=src, dst=dst)
        receipt = fast.deliver(message, dst_alive=dst_alive)
        expected = legacy_deliver(reference, message, dst_alive=dst_alive)
        assert receipt == expected
        assert receipt.outcome is expected.outcome
        assert fast.clock.now == reference.clock.now
        assert fast.trace.filtered() == reference.trace.filtered()
        assert fast.rng.getstate() == reference.rng.getstate()
