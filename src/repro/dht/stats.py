"""Network-cost accounting.

:class:`NetworkStats` aggregates every :class:`~repro.dht.messages.Message`
the simulator delivers, broken down by message kind, so experiments can
report *measured* message counts, bytes, and hop totals for index
construction vs. maintenance vs. query processing — the costs the
paper's introduction argues about.  A message's bytes and traffic
category come from its kind's row (:class:`~repro.dht.messages.MessageKind`);
the hops of a completed lookup are counted here and nowhere else.

Recording runs once per delivered message and once per lookup, so it
reaches a kind's counters through a list indexed by
:attr:`MessageKind.ordinal <repro.dht.messages.MessageKind.ordinal>` and
never hashes the enum; the dict views are built when read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .messages import ALL_KINDS, Message, MessageKind

_LOOKUP = MessageKind.LOOKUP.ordinal


@dataclass
class KindStats:
    """Aggregate counters for one message kind."""

    messages: int = 0
    bytes: int = 0
    hops: int = 0


class NetworkStats:
    """Per-kind and total message/byte/hop counters.

    Supports *checkpoints*: ``snapshot()`` returns an immutable copy, and
    ``delta_since(snapshot)`` gives the traffic between then and now —
    how the cost benches isolate e.g. "messages per learning iteration".
    Kinds are reported in the order they were first recorded.
    """

    def __init__(self) -> None:
        #: ``kind.ordinal → its row``, ``None`` until the kind is recorded.
        self._rows: List[Optional[KindStats]] = [None] * len(ALL_KINDS)
        #: Ordinals of the recorded kinds, first recorded first.
        self._seen: List[int] = []
        #: hops → completed lookups: bounded by the hop limit
        #: ``2·id_bits + N``, where a sample per lookup grew with the ring's life.
        self._lookup_hops: Counter = Counter()

    def _open_row(self, ordinal: int) -> KindStats:
        row = self._rows[ordinal] = KindStats()
        self._seen.append(ordinal)
        return row

    def record(self, msg: Message) -> None:
        """Account for one delivered message."""
        ordinal = msg.kind.ordinal
        row = self._rows[ordinal] or self._open_row(ordinal)
        row.messages += 1
        row.bytes += msg.size_bytes
        row.hops += msg.hops

    def record_lookup(self, hops: int) -> None:
        """Record the hop count of one completed DHT lookup."""
        self._lookup_hops[hops] += 1
        row = self._rows[_LOOKUP] or self._open_row(_LOOKUP)
        row.messages += 1
        row.hops += hops

    # -- reading -----------------------------------------------------------

    def _items(self) -> List[Tuple[MessageKind, KindStats]]:
        """``(kind, live row)`` for every recorded kind, first seen first."""
        rows = self._rows
        return [(ALL_KINDS[ordinal], rows[ordinal]) for ordinal in self._seen]

    def kind(self, kind: MessageKind) -> KindStats:
        """Counters for one kind (zeros if never seen)."""
        return self._rows[kind.ordinal] or KindStats()

    @property
    def total_messages(self) -> int:
        return sum(s.messages for __, s in self._items())

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes for __, s in self._items())

    @property
    def lookup_hop_histogram(self) -> Counter:
        """``hops → lookups`` so far (a copy; subtract an earlier one for
        the hop distribution of a phase)."""
        return Counter(self._lookup_hops)

    @property
    def mean_lookup_hops(self) -> float:
        """Mean hops per lookup (0.0 when no lookups happened)."""
        lookups = sum(self._lookup_hops.values())
        if not lookups:
            return 0.0
        return sum(hops * n for hops, n in self._lookup_hops.items()) / lookups

    def snapshot(self) -> Dict[MessageKind, KindStats]:
        """An immutable-enough copy of the current per-kind counters."""
        return {k: KindStats(s.messages, s.bytes, s.hops) for k, s in self._items()}

    def delta_since(
        self, snapshot: Dict[MessageKind, KindStats]
    ) -> Dict[MessageKind, KindStats]:
        """Per-kind traffic recorded after *snapshot* was taken."""
        delta: Dict[MessageKind, KindStats] = {}
        for kind, now in self._items():
            then = snapshot.get(kind, KindStats())
            d = KindStats(
                messages=now.messages - then.messages,
                bytes=now.bytes - then.bytes,
                hops=now.hops - then.hops,
            )
            if d.messages or d.bytes or d.hops:
                delta[kind] = d
        return delta

    def summary(self) -> Dict[str, Dict[str, int]]:
        """A plain-dict summary for printing/reporting."""
        return {
            kind.value: {
                "messages": s.messages,
                "bytes": s.bytes,
                "hops": s.hops,
            }
            for kind, s in sorted(self._items(), key=lambda kv: kv[0].value)
        }
