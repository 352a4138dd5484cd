"""Test-side reference for lossy delivery: the per-attempt loop.

:meth:`LossyTransport.deliver` in ``src`` reads its pair's fault plan —
drop rate, slow-node factor, whether either endpoint has a blackout
window — once per delivery (:meth:`FaultInjector.pair_plan`).  The
function here is what it replaced and must keep agreeing with: every
attempt asks the policy for its back-off, reads the clock, queries both
endpoints' blackout windows, and composes the pair's drop rate and
latency factor from the plan's public per-node tables, in the order
the injector's rate was first written.  Receipts, clock, trace records
and the RNG's draw sequence must be identical.
"""

from __future__ import annotations

from repro.net.trace import MessageTrace
from repro.net.transport import DeliveryOutcome, DeliveryReceipt, LossyTransport


def legacy_should_drop(faults, src: int, dst: int, rng) -> bool:
    """The fate of one src→dst attempt: the global rate and each
    endpoint's flaky rate composed as independent legs, and no draw when
    the composed rate is zero."""
    flaky = faults.flaky_nodes
    survive = 1.0 - faults.drop_probability
    survive *= 1.0 - flaky.get(src, 0.0)
    if dst != src:
        survive *= 1.0 - flaky.get(dst, 0.0)
    probability = 1.0 - survive
    if probability <= 0.0:
        return False
    return rng.random() < probability


def legacy_latency_factor(faults, src: int, dst: int) -> float:
    """Combined slow-node multiplier of one src→dst attempt."""
    slow = faults.slow_nodes
    return slow.get(src, 1.0) * slow.get(dst, 1.0)


def legacy_deliver(
    transport: LossyTransport, message, dst_alive: bool = True
) -> DeliveryReceipt:
    """Deliver *message* over *transport* attempt by attempt.  Has the
    signature of the method, so a test can patch it onto
    :class:`LossyTransport`."""
    policy = transport.policy
    elapsed = 0.0
    attempts = 0
    outcome = DeliveryOutcome.DROPPED

    for attempt in range(policy.max_attempts):
        attempts += 1
        elapsed += policy.backoff_before(attempt, transport.rng)
        now = transport.clock.now + elapsed

        if not dst_alive:
            elapsed += policy.timeout_ms
            outcome = DeliveryOutcome.DEST_DOWN
            continue
        if transport.faults.in_blackout(
            message.src, now
        ) or transport.faults.in_blackout(message.dst, now):
            elapsed += policy.timeout_ms
            outcome = DeliveryOutcome.DROPPED
            continue
        if legacy_should_drop(transport.faults, message.src, message.dst, transport.rng):
            elapsed += policy.timeout_ms
            outcome = DeliveryOutcome.DROPPED
            continue

        latency = transport.latency.sample(transport.rng) * legacy_latency_factor(
            transport.faults, message.src, message.dst
        )
        if latency > policy.timeout_ms:
            elapsed += policy.timeout_ms
            outcome = DeliveryOutcome.DROPPED
            continue

        elapsed += latency
        outcome = DeliveryOutcome.DELIVERED
        break

    transport.clock.advance(elapsed)
    if transport.trace is not None:
        transport.trace.record(
            MessageTrace(
                kind=message.kind.value,
                src=message.src,
                dst=message.dst,
                attempts=attempts,
                latency_ms=elapsed,
                outcome=outcome.value,
                category=message.kind.category,
            )
        )
    return DeliveryReceipt(outcome=outcome, attempts=attempts, latency_ms=elapsed)
