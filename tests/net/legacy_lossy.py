"""Test-side reference for lossy delivery: the per-attempt loop.

:meth:`LossyTransport.deliver` in ``src`` reads the per-pair values of
its fault plan — the slow-node factor, whether either endpoint has a
blackout window, the clock — once per delivery.  The function here is
what it replaced and must keep agreeing with: every attempt asks the
policy for its back-off, reads the clock, queries both endpoints'
blackout windows and the pair's latency factor.  Receipts, clock, trace
records and the RNG's draw sequence must be identical.
"""

from __future__ import annotations

from repro.net.trace import MessageTrace
from repro.net.transport import DeliveryOutcome, DeliveryReceipt, LossyTransport


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
        if transport.faults.should_drop_for(message.src, message.dst, transport.rng):
            elapsed += policy.timeout_ms
            outcome = DeliveryOutcome.DROPPED
            continue

        latency = transport.latency.sample(
            transport.rng
        ) * transport.faults.latency_factor(message.src, message.dst)
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
