"""The pluggable transport layer.

Every message and every lookup hop in the simulator flows through a
:class:`Transport`.  Two implementations:

* :class:`PerfectTransport` — the idealized network the reproduction
  originally assumed: every delivery succeeds instantly on the first
  attempt.  It consumes no randomness and advances no time, so a ring
  built with it behaves *identically* to the pre-transport simulator.
* :class:`LossyTransport` — composes a latency model
  (:mod:`repro.net.latency`), a fault injector (:mod:`repro.net.faults`)
  and a :class:`DeliveryPolicy` (timeout, bounded retries, exponential
  backoff with jitter) into realistic delivery semantics, charging all
  elapsed time to a shared :class:`~repro.net.clock.SimulatedClock`.

Time accounting per message: each failed attempt costs the full timeout
(the sender waits before concluding loss) plus the backoff before the
next attempt; a successful attempt costs its sampled latency.  The sum
is the message's end-to-end latency and is what query-latency reports
aggregate.

The transport deliberately does **not** touch the ring's
:class:`~repro.dht.stats.NetworkStats` — byte/hop accounting stays where
it always lived (the ring), while the transport owns timing, outcome,
and attempt accounting via its :class:`~repro.net.trace.TraceLog`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Optional, Protocol, runtime_checkable

from .clock import SimulatedClock
from .faults import FaultInjector
from .latency import ConstantLatency, LatencyModel, LogNormalLatency
from .trace import DELIVERED, DEST_DOWN, DROPPED, MessageTrace, TraceLog

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from ..config import NetworkConfig
    from ..dht.messages import Message


class DeliveryOutcome(Enum):
    """Terminal fate of one message after all retries."""

    DELIVERED = DELIVERED
    DROPPED = DROPPED
    DEST_DOWN = DEST_DOWN


class DeliveryReceipt(NamedTuple):
    """What the transport reports back for one message."""

    outcome: DeliveryOutcome
    attempts: int
    latency_ms: float

    @property
    def ok(self) -> bool:
        return self.outcome is _DELIVERED


#: The outcomes, bound once: on CPython 3.11 reading an enum member
#: through its class (``DeliveryOutcome.DELIVERED``) costs ~150 ns per
#: read in ``EnumType.__getattr__``, a module global ~15 ns.
_DELIVERED = DeliveryOutcome.DELIVERED
_DROPPED = DeliveryOutcome.DROPPED
_DEST_DOWN = DeliveryOutcome.DEST_DOWN

#: The only two receipts a perfect transport can write; it hands out
#: these objects rather than building one per delivery.
_DELIVERED_AT_ONCE = DeliveryReceipt(_DELIVERED, 1, 0.0)
_DEST_DOWN_AT_ONCE = DeliveryReceipt(_DEST_DOWN, 1, 0.0)

_new_tuple = tuple.__new__


@dataclass(frozen=True)
class DeliveryPolicy:
    """Retry/timeout semantics applied to every message.

    ``max_retries`` counts *re*-transmissions: a message is attempted at
    most ``1 + max_retries`` times.  Backoff before retry *i* (1-based)
    is ``backoff_base_ms × backoff_factor^(i-1)`` plus a uniform jitter
    in ``[0, jitter_ms]``.
    """

    timeout_ms: float = 400.0
    max_retries: int = 3
    backoff_base_ms: float = 100.0
    backoff_factor: float = 2.0
    jitter_ms: float = 20.0

    def __post_init__(self) -> None:
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_ms < 0:
            raise ValueError("backoff_base_ms must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.jitter_ms < 0:
            raise ValueError("jitter_ms must be >= 0")

    def backoff_before(self, attempt: int, rng: random.Random) -> float:
        """Wait before transmission *attempt* (0-based; 0 → no wait)."""
        if attempt <= 0:
            return 0.0
        backoff = self.backoff_base_ms * (self.backoff_factor ** (attempt - 1))
        if self.jitter_ms > 0:
            backoff += rng.uniform(0.0, self.jitter_ms)
        return backoff


@runtime_checkable
class Transport(Protocol):
    """The seam every inter-peer delivery flows through."""

    clock: SimulatedClock
    trace: Optional[TraceLog]

    #: Whether per-hop lookup deliveries must be routed through
    #: :meth:`deliver`.  ``False`` lets the hot lookup loop skip building
    #: a Message per hop when the transport could neither delay, drop,
    #: nor trace it.
    active: bool

    def deliver(self, message: "Message", dst_alive: bool = True) -> DeliveryReceipt:
        """Attempt to deliver *message*; never raises — the receipt
        carries the outcome and the caller decides how to surface it."""
        ...


class PerfectTransport:
    """Instant, lossless delivery — the pre-transport simulator's network.

    Consumes no randomness and advances the clock by zero, so results
    (hop counts, statistics, exceptions) are bit-identical to a ring
    without any transport.  A :class:`TraceLog` may still be attached to
    observe message flow; without one a delivery allocates nothing.
    """

    def __init__(self, trace: Optional[TraceLog] = None) -> None:
        self.clock = SimulatedClock()
        self.trace = trace

    @property
    def active(self) -> bool:
        return self.trace is not None

    def deliver(self, message: "Message", dst_alive: bool = True) -> DeliveryReceipt:
        receipt = _DELIVERED_AT_ONCE if dst_alive else _DEST_DOWN_AT_ONCE
        if self.trace is not None:
            self.trace.record(
                MessageTrace(
                    kind=message.kind.value,
                    src=message.src,
                    dst=message.dst,
                    attempts=1,
                    latency_ms=0.0,
                    outcome=receipt.outcome.value,
                    category=message.kind.category,
                )
            )
        return receipt


class LossyTransport:
    """Latency, loss, and recovery semantics for every delivery.

    Parameters
    ----------
    latency:
        Per-attempt transmission-delay sampler.
    faults:
        Drop/blackout/slow-node plan (defaults to a fault-free injector,
        which still yields latency and timeout behaviour).
    policy:
        Timeout/retry/backoff semantics.
    rng:
        The transport's private ``random.Random``.  Passing a seeded
        instance (or using ``seed=``) makes the whole fault/latency
        history of a run reproducible.
    """

    def __init__(
        self,
        latency: LatencyModel | None = None,
        faults: FaultInjector | None = None,
        policy: DeliveryPolicy | None = None,
        rng: random.Random | None = None,
        seed: int = 0,
        trace: Optional[TraceLog] = None,
        clock: SimulatedClock | None = None,
    ) -> None:
        self.latency = latency if latency is not None else ConstantLatency()
        self.faults = faults if faults is not None else FaultInjector()
        self.policy = policy if policy is not None else DeliveryPolicy()
        self.rng = rng if rng is not None else random.Random(seed)
        self.trace = trace if trace is not None else TraceLog()
        self.clock = clock if clock is not None else SimulatedClock()

    active = True

    def deliver(self, message: "Message", dst_alive: bool = True) -> DeliveryReceipt:
        """Attempt *message* up to ``1 + policy.max_retries`` times.

        One delivery reads its pair's fault plan once
        (:meth:`FaultInjector.pair_plan`: drop rate, slow-node factor,
        whether either endpoint has a blackout window) and advances the
        clock once.  An attempt does four things: the back-off (retries
        only, one jitter draw when the policy has jitter), the blackout
        check (only when either endpoint has a window), the drop draw
        (only when the pair's rate is positive) and the latency sample.
        """
        src = message.src
        dst = message.dst
        faults = self.faults
        drop, factor, blackouts = faults.pair_plan(src, dst)
        policy = self.policy
        timeout = policy.timeout_ms
        rng = self.rng
        sample = self.latency.sample
        clock = self.clock
        start = clock.now if blackouts else 0.0
        elapsed = 0.0
        outcome = _DROPPED if dst_alive else _DEST_DOWN

        for attempt in range(1 + policy.max_retries):
            if attempt:
                elapsed += policy.backoff_before(attempt, rng)
            if dst_alive and not (
                blackouts
                and (
                    faults.in_blackout(src, start + elapsed)
                    or faults.in_blackout(dst, start + elapsed)
                )
            ):
                if drop <= 0.0 or rng.random() >= drop:
                    latency = sample(rng) * factor
                    if latency <= timeout:
                        elapsed += latency
                        outcome = _DELIVERED
                        break
            # Lost, blacked out, too slow, or sent to a crashed peer —
            # which the sender cannot tell from loss: the attempt costs
            # the full timeout.
            elapsed += timeout
        attempts = attempt + 1

        clock.advance(elapsed)
        if self.trace is not None:
            kind = message.kind
            self.trace.record(
                MessageTrace(
                    kind.value, src, dst, attempts, elapsed, outcome.value, kind.category
                )
            )
        return _new_tuple(DeliveryReceipt, (outcome, attempts, elapsed))


def build_latency_model(config: "NetworkConfig") -> LatencyModel:
    """Instantiate the latency model a :class:`NetworkConfig` names."""
    if config.latency_model == "constant":
        return ConstantLatency(ms=config.latency_ms)
    if config.latency_model == "lognormal":
        return LogNormalLatency(median_ms=config.latency_ms, sigma=config.latency_sigma)
    raise ValueError(f"unknown latency model: {config.latency_model!r}")


def build_transport(config: Optional["NetworkConfig"] = None) -> Transport:
    """Build the transport a :class:`~repro.config.NetworkConfig` describes.

    ``None`` or a config with ``transport="perfect"`` yields the no-op
    :class:`PerfectTransport`; ``"lossy"`` composes latency model, fault
    injector, and delivery policy, seeded from ``config.seed`` so runs
    replay byte-identically.
    """
    if config is None or config.transport == "perfect":
        return PerfectTransport()
    if config.transport != "lossy":
        raise ValueError(f"unknown transport: {config.transport!r}")
    transport = LossyTransport(
        latency=build_latency_model(config),
        faults=FaultInjector(drop_probability=config.drop_probability),
        policy=DeliveryPolicy(
            timeout_ms=config.timeout_ms,
            max_retries=config.max_retries,
            jitter_ms=config.jitter_ms,
        ),
        rng=random.Random(config.seed),
    )
    if not config.keep_trace:
        transport.trace = None
    return transport
