"""Captured operations: the bridge between SPRITE's synchronous call
chain and the event-driven runtime (DESIGN.md §15).

The retrieval stack executes one operation as a nested synchronous call
chain, so the concurrent runtime *captures* instead of rewriting it: the
operation runs once under
:meth:`~repro.dht.ring.ChordRing.capture_messages`, which yields its
real result and its *timeline* — the ordered ``(kind, dst)`` of every
message it sent, per-hop lookup traffic included — and the caller
replays that timeline through a :class:`~repro.net.sched.Scheduler`
(:func:`~repro.net.sched.replay_timeline`), where it contends with the
other in-flight operations for the per-peer service queues.  Semantics
come from the capture, timing from the replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from ..corpus.relevance import Query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .system import DistributedSystem

#: One captured message leg: (message-kind name, destination peer id).
TimelineEntry = Tuple[str, int]


@dataclass(frozen=True)
class CapturedOp:
    """One synchronously executed operation plus its message timeline.
    ``result`` is already final — replay only decides *when* the
    operation completes, never *what* it computed."""

    label: str
    timeline: Tuple[TimelineEntry, ...]
    result: object = None

    @property
    def messages(self) -> int:
        return len(self.timeline)


def capture_query(
    system: "DistributedSystem",
    query: Query,
    top_k: Optional[int] = None,
    cache: bool = True,
) -> CapturedOp:
    """Capture one query execution: result = ``(ranked, execution)``."""
    with system.ring.capture_messages() as log:
        ranked, execution = system.execute(query, top_k=top_k, cache=cache)
    return CapturedOp(
        label=f"query:{query.query_id}",
        timeline=tuple((t.kind, t.dst) for t in log.records),
        result=(ranked, execution),
    )
