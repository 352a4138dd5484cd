"""Pluggable network transport: latency models, fault injection,
retry/timeout semantics, and per-message tracing.

Every inter-peer delivery in the simulator — application messages via
:meth:`repro.dht.ring.ChordRing.send` and each lookup routing hop —
flows through a :class:`Transport`.  The default
:class:`PerfectTransport` preserves the idealized instant network the
reproduction originally assumed; :class:`LossyTransport` adds the
latency/loss/recovery behaviour real DHT deployments are dominated by.
"""

from .clock import SimulatedClock
from .faults import FaultInjector
from .latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
)
from .trace import (
    DELIVERED,
    DEST_DOWN,
    DROPPED,
    MessageTrace,
    TraceLog,
    TraceSummary,
    percentile,
)
from .transport import (
    DeliveryOutcome,
    DeliveryPolicy,
    DeliveryReceipt,
    LossyTransport,
    PerfectTransport,
    Transport,
    build_latency_model,
    build_transport,
)

__all__ = [
    "DELIVERED",
    "DEST_DOWN",
    "DROPPED",
    "ConstantLatency",
    "DeliveryOutcome",
    "DeliveryPolicy",
    "DeliveryReceipt",
    "FaultInjector",
    "LatencyModel",
    "LogNormalLatency",
    "LossyTransport",
    "MessageTrace",
    "PerfectTransport",
    "SimulatedClock",
    "TraceLog",
    "TraceSummary",
    "Transport",
    "build_latency_model",
    "build_transport",
    "percentile",
]
