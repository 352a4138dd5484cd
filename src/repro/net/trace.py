"""Transport observability: per-message traces and rollup reports.

Every delivery the transport performs can be recorded as a
:class:`MessageTrace` — message kind, endpoints, how many transmission
attempts it took, the simulated time it consumed, and the final outcome.
:class:`TraceLog` accumulates traces and rolls them up into the
percentile latency / retry / drop reports the transport benches print
alongside :class:`~repro.dht.stats.NetworkStats`, which owns bytes and
lookup hops.  A trace carries the traffic category its transport read
off the message's kind, so the per-category rollup needs no table of
kind names here and the package never imports ``repro.dht``.

``summary_table`` is deliberately deterministic: counters are exact,
floats are printed with fixed precision, and kinds are sorted — two runs
with the same transport seed produce byte-identical tables, which the
transport bench asserts as its reproducibility contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Final outcome labels (kept as plain strings so traces serialize
#: trivially and the net package stays import-independent of repro.dht).
DELIVERED = "delivered"
DROPPED = "dropped"
DEST_DOWN = "dest_down"


class MessageTrace(NamedTuple):
    """The delivery record of one application or routing message (a
    named tuple: a traced transport writes one per delivery)."""

    kind: str
    src: int
    dst: int
    attempts: int
    latency_ms: float
    outcome: str
    #: The traffic category the transport read off the message's kind
    #: (``"write"``, ``"query"``, ``"routing"``, ``"maintenance"``);
    #: ``"other"`` on a trace built without one.
    category: str = "other"

    @property
    def retries(self) -> int:
        """Retransmissions beyond the first attempt."""
        return self.attempts - 1


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    ``q`` is in [0, 100]; an empty sample set yields 0.0 so reports can
    always print.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate view over a set of message traces."""

    messages: int = 0
    delivered: int = 0
    dropped: int = 0
    dest_down: int = 0
    attempts: int = 0
    latency_p50_ms: float = 0.0
    latency_p90_ms: float = 0.0
    latency_p99_ms: float = 0.0
    #: Nearest-rank p99.9 — the deep-tail column of the ``net`` sweep's
    #: table (meaningful once a rollup covers ≳1000 samples; below that
    #: the nearest-rank rule makes it the sample maximum).
    latency_p99_9_ms: float = 0.0
    latency_mean_ms: float = 0.0
    by_kind: Tuple[Tuple[str, int], ...] = field(default=())
    #: Count of per-hop ``lookup`` routing messages in this rollup —
    #: the wire cost of resolving responsible peers, broken out so
    #: sweeps can report routing traffic beside application traffic.
    lookup_messages: int = 0

    @property
    def retries(self) -> int:
        """Total retransmissions across all messages."""
        return self.attempts - self.messages

    @property
    def delivery_ratio(self) -> float:
        """Fraction of messages that were eventually delivered."""
        return self.delivered / self.messages if self.messages else 1.0


class TraceLog:
    """Append-only log of message traces with rollup reporting."""

    def __init__(self) -> None:
        self._records: List[MessageTrace] = []

    def record(self, trace: MessageTrace) -> None:
        self._records.append(trace)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[MessageTrace]:
        """All traces recorded so far (copy)."""
        return list(self._records)

    def filtered(
        self, kind: Optional[str] = None, outcome: Optional[str] = None
    ) -> List[MessageTrace]:
        """Traces matching the given kind and/or outcome."""
        return [
            t
            for t in self._records
            if (kind is None or t.kind == kind)
            and (outcome is None or t.outcome == outcome)
        ]

    # -- rollups -----------------------------------------------------------

    def rollup(self, kind: Optional[str] = None) -> TraceSummary:
        """Aggregate counters and latency percentiles.

        Percentiles are computed over *delivered* messages only — a
        dropped message's elapsed time is retry overhead, not a latency
        sample — while attempt/retry counters cover everything.
        """
        return self._rollup_records(self.filtered(kind=kind))

    def category_rollup(self) -> Dict[str, TraceSummary]:
        """One :class:`TraceSummary` per traffic category present in
        the log (:attr:`MessageTrace.category`), so transport sweeps can
        report write-path delivery/latency beside query traffic."""
        buckets: Dict[str, List[MessageTrace]] = {}
        for t in self._records:
            buckets.setdefault(t.category, []).append(t)
        return {
            category: self._rollup_records(records)
            for category, records in sorted(buckets.items())
        }

    @staticmethod
    def _rollup_records(records: List[MessageTrace]) -> TraceSummary:
        delivered_latencies = [
            t.latency_ms for t in records if t.outcome == DELIVERED
        ]
        kinds: Dict[str, int] = {}
        for t in records:
            kinds[t.kind] = kinds.get(t.kind, 0) + 1
        mean = (
            sum(delivered_latencies) / len(delivered_latencies)
            if delivered_latencies
            else 0.0
        )
        return TraceSummary(
            messages=len(records),
            delivered=sum(1 for t in records if t.outcome == DELIVERED),
            dropped=sum(1 for t in records if t.outcome == DROPPED),
            dest_down=sum(1 for t in records if t.outcome == DEST_DOWN),
            attempts=sum(t.attempts for t in records),
            latency_p50_ms=percentile(delivered_latencies, 50),
            latency_p90_ms=percentile(delivered_latencies, 90),
            latency_p99_ms=percentile(delivered_latencies, 99),
            latency_p99_9_ms=percentile(delivered_latencies, 99.9),
            latency_mean_ms=mean,
            by_kind=tuple(sorted(kinds.items())),
            lookup_messages=kinds.get("lookup", 0),
        )

    def summary_table(self) -> str:
        """A deterministic fixed-format report (same seed → same bytes)."""
        s = self.rollup()
        lines = [
            f"messages   {s.messages}",
            f"delivered  {s.delivered}",
            f"dropped    {s.dropped}",
            f"dest_down  {s.dest_down}",
            f"attempts   {s.attempts}",
            f"retries    {s.retries}",
            f"latency_ms mean={s.latency_mean_ms:.3f} "
            f"p50={s.latency_p50_ms:.3f} p90={s.latency_p90_ms:.3f} "
            f"p99={s.latency_p99_ms:.3f} p99.9={s.latency_p99_9_ms:.3f}",
        ]
        for kind, count in s.by_kind:
            lines.append(f"  kind {kind:<16} {count}")
        return "\n".join(lines)
